#ifndef STMAKER_LANDMARK_SIGNIFICANCE_H_
#define STMAKER_LANDMARK_SIGNIFICANCE_H_

/// \file
/// The landmark-visit corpus and the HITS-like landmark significance
/// computed over it (Sec. IV-B).

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "landmark/landmark.h"

namespace stmaker {

/// \brief The raw landmark-visit corpus behind HITS significance: one
/// record per traveller, in first-seen order, accumulating per-landmark
/// visit counts across that traveller's trajectories.
///
/// STMaker::Train shards one during parallel ingestion, computes the
/// significance of the merged corpus, and drops it once the scores are
/// installed.
/// Records carry the original traveller key; trajectories with no
/// traveller id get a fresh synthetic negative key (-1, -2, ...) so they
/// still contribute hub mass without conflating distinct vehicles.
///
/// Determinism: records keep insertion order and per-record visit pairs
/// keep first-visited order; Merge() replays `other`'s records in that
/// order. Merging per-shard corpora of a trajectory list split into
/// contiguous index blocks (shard 0 first) therefore reproduces exactly
/// the corpus a serial pass would build — traveller numbering, anonymous
/// key assignment, pair order, and (integral) counts alike.
///
/// Not internally synchronized; each ingestion shard owns a private
/// corpus and the merge is serial.
class VisitCorpus {
 public:
  /// One traveller's accumulated visits.
  struct Record {
    int64_t key = 0;  ///< Original traveller id, or -k for the k-th
                      ///< anonymous trajectory.
    std::vector<std::pair<LandmarkId, double>> visits;  ///< first-seen order
  };

  /// Records the landmark visits of one trajectory. `raw_traveler` >= 0
  /// accumulates onto that traveller's record; negative ids allocate a
  /// fresh anonymous record.
  void AddTrajectory(int64_t raw_traveler,
                     const std::vector<LandmarkId>& landmarks);

  /// Folds `other` into this corpus (see class comment for ordering).
  void Merge(const VisitCorpus& other);

  /// HITS-like landmark significance (Sec. IV-B; Zheng et al. WWW'09
  /// [41]). Travellers are modelled as authorities, landmarks as hubs, and
  /// visits as hyperlinks between them, weighted by their counts. Runs
  /// `iterations` rounds of power iteration with L2 normalization, which
  /// converge to the principal singular vectors of the visit matrix, and
  /// returns the landmark hub scores max-normalized to [0, 1] — the
  /// significance l.s used by the partition potential. Landmarks no record
  /// visits score 0. Every visited landmark id must be below
  /// `num_landmarks`.
  std::vector<double> Significance(size_t num_landmarks,
                                   int iterations = 40) const;

  size_t num_travelers() const { return records_.size(); }
  const std::vector<Record>& records() const { return records_; }

 private:
  /// Find-or-create the record for `key`, preserving insertion order.
  Record& RecordFor(int64_t key);

  std::vector<Record> records_;
  std::unordered_map<int64_t, size_t> index_;  ///< key -> records_ index
  int64_t anonymous_counter_ = 0;
};

}  // namespace stmaker

#endif  // STMAKER_LANDMARK_SIGNIFICANCE_H_
