#ifndef STMAKER_CORE_HISTORICAL_FEATURE_MAP_H_
#define STMAKER_CORE_HISTORICAL_FEATURE_MAP_H_

/// \file
/// The historical feature map of Sec. V-B: regular feature values per
/// directed landmark pair, accumulated from the training corpus.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "landmark/landmark.h"

namespace stmaker {

/// \brief The historical feature map of Sec. V-B: a directed graph over
/// landmarks whose edge (l_i → l_j) is annotated with the average value of
/// every feature among historical trajectories travelling from l_i directly
/// to l_j.
///
/// Against these "regular" values the summarizer measures how unusual a
/// given partition's moving behaviour is. Categorical features are stored as
/// running averages too; a Row reports them as-is and callers round to the
/// nearest category when a categorical reading is needed.
///
/// Thread-safety: the map is read-only once training (or a model load) has
/// built it. Concurrent const reads (Lookup, GlobalAverage, Edges) are
/// safe; the mutations (AddSegment, AddAccumulated, Merge) belong to
/// training and must be serialized against everything else.
class HistoricalFeatureMap {
 public:
  /// `num_features` fixes the annotation dimensionality (|F|).
  explicit HistoricalFeatureMap(size_t num_features);

  /// Accumulates one historical segment's feature vector on edge
  /// (from → to). The vector length must equal num_features().
  void AddSegment(LandmarkId from, LandmarkId to,
                  const std::vector<double>& feature_values);

  /// The regular feature values of one edge, read in place from its
  /// accumulator: feature f is sums[f] / count, divided at the point of
  /// use. Valid while the map is unchanged.
  struct Row {
    const double* sums = nullptr;
    double count = 0;

    /// The regular value of feature `f`; 0 for the global row of a map
    /// without history (GlobalAverage's convention).
    double operator[](size_t f) const {
      return count > 0 ? sums[f] / count : 0.0;
    }
  };

  /// The row of edge (from → to), or the global row — whose values are
  /// GlobalAverage(f) — when the history has no such transition. One hash
  /// probe; allocates nothing.
  Row Lookup(LandmarkId from, LandmarkId to) const;

  /// Global average of feature `f` across every annotated edge — the
  /// fallback regular value for transitions absent from the history.
  double GlobalAverage(size_t feature) const;

  size_t num_features() const { return num_features_; }
  size_t NumEdges() const { return edges_.size(); }

  /// True when no history has been accumulated at all — GlobalAverage then
  /// fabricates zeros, and callers should degrade to BaselineStatus::
  /// kNoBaseline instead of comparing against them.
  bool empty() const { return global_count_ == 0; }

  /// One annotated edge in raw accumulator form, for model persistence.
  struct EdgeRecord {
    LandmarkId from;
    LandmarkId to;
    std::vector<double> sums;  ///< Per-feature value sums.
    double count;              ///< Number of accumulated segments.
  };

  /// All edges in deterministic first-annotated order (serialization hook).
  std::vector<EdgeRecord> Edges() const;

  /// Merges a pre-aggregated edge record (deserialization hook). The sums
  /// length must equal num_features() and count must be positive.
  void AddAccumulated(LandmarkId from, LandmarkId to,
                      const std::vector<double>& sums, double count);

  /// Folds every edge accumulator of `other` (which must have the same
  /// feature dimensionality) into this map, replaying them in `other`'s
  /// first-annotated order. Edge set, edge order, and counts compose
  /// exactly; per-feature sums are regrouped (a + (b + c) instead of
  /// (a + b) + c), so merging partial maps can differ from one serial pass
  /// in the last floating-point ulp. Training therefore builds one map per
  /// ingested batch in corpus order and merges it once (see DESIGN.md
  /// "Parallel execution & determinism").
  void Merge(const HistoricalFeatureMap& other);

 private:
  struct Key {
    LandmarkId from;
    LandmarkId to;
    bool operator==(const Key& o) const {
      return from == o.from && to == o.to;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = static_cast<uint64_t>(k.from) * 0x9e3779b97f4a7c15ULL;
      h ^= static_cast<uint64_t>(k.to) + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };
  struct Accumulator {
    std::vector<double> sum;
    double count = 0;
  };

  size_t num_features_;
  std::unordered_map<Key, Accumulator, KeyHash> edges_;
  std::vector<Key> key_order_;  ///< first-annotated order of edges_ keys
  std::vector<double> global_sum_;
  double global_count_ = 0;
};

}  // namespace stmaker

#endif  // STMAKER_CORE_HISTORICAL_FEATURE_MAP_H_
