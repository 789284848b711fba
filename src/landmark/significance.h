#ifndef STMAKER_LANDMARK_SIGNIFICANCE_H_
#define STMAKER_LANDMARK_SIGNIFICANCE_H_

/// \file
/// HITS-like landmark significance model and the visit corpus behind it
/// (Sec. IV-B).

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "landmark/landmark_index.h"

namespace stmaker {

/// \brief HITS-like landmark significance (Sec. IV-B; Zheng et al. WWW'09
/// [41]).
///
/// Travellers are modelled as authorities, landmarks as hubs, and
/// check-ins/visits as hyperlinks between them. Power iteration with L2
/// normalization converges to the principal singular vectors of the visit
/// matrix; the landmark hub score, normalized to [0, 1] by its maximum, is
/// the significance l.s used by the partition potential.
class SignificanceModel {
 public:
  /// `num_landmarks` fixes the landmark score vector size; `num_travelers`
  /// is an initial capacity — AddVisit grows the traveller set on demand.
  SignificanceModel(size_t num_travelers, size_t num_landmarks);

  /// Records one visit (check-in) of `traveler` at `landmark`. Repeat visits
  /// accumulate weight; traveller ids beyond the current count grow the set.
  void AddVisit(int64_t traveler, LandmarkId landmark);

  /// Records `weight` visits at once (equivalent to `weight` AddVisit
  /// calls). Used when building the model from an aggregated VisitCorpus.
  void AddVisitWeight(int64_t traveler, LandmarkId landmark, double weight);

  /// Runs `iterations` of HITS power iteration and returns the landmark
  /// significance vector (max-normalized to [0, 1]). Landmarks with no
  /// visits get 0.
  std::vector<double> Compute(int iterations = 40) const;

  /// Convenience: Compute() and install the scores into `index`.
  void Apply(LandmarkIndex* index, int iterations = 40) const;

  size_t num_travelers() const { return visits_by_traveler_.size(); }
  size_t num_landmarks() const { return num_landmarks_; }

 private:
  size_t num_landmarks_;
  /// Sparse visit multigraph: (traveler, landmark, count).
  std::vector<std::vector<std::pair<int64_t, double>>> visits_by_traveler_;
};

/// \brief The raw landmark-visit corpus behind HITS significance: one
/// record per traveller, in first-seen order, accumulating per-landmark
/// visit counts across that traveller's trajectories.
///
/// STMaker::Train shards one during parallel ingestion, builds a
/// SignificanceModel from the merged corpus, and drops it once the scores
/// are installed.
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

  /// Builds the HITS model over this corpus; traveller i of the model is
  /// records()[i].
  SignificanceModel BuildModel(size_t num_landmarks) const;

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
