#ifndef STMAKER_CORE_IRREGULARITY_H_
#define STMAKER_CORE_IRREGULARITY_H_

/// \file
/// Irregular-rate computation and feature-sequence edit distance
/// (Sec. V-A).

#include <vector>

#include "core/feature.h"
#include "core/feature_extractor.h"
#include "core/historical_feature_map.h"
#include "core/popular_route.h"
#include "core/summary.h"
#include "traj/trajectory.h"

namespace stmaker {

/// \brief Edit distance between two feature value sequences (Sec. V-A).
///
/// Insertions and deletions cost 1. Substitution costs |a - b| for numeric
/// features over values normalized by the largest magnitude across *both*
/// sequences (a shared constant keeps equal raw values equal after
/// normalization), and 0/1 equality on raw values for categorical features.
double FeatureSequenceEditDistance(const std::vector<double>& a,
                                   const std::vector<double>& b,
                                   FeatureValueType type);

/// \brief What one partition was compared with (Sec. V), and the result.
///
/// The rows view the historical feature map in place, so the comparison
/// is valid while the analyzer's feature map is unchanged.
struct PartitionComparison {
  /// Γ_f(TP), one per registry feature.
  std::vector<double> rates;
  /// Baseline provenance, one per registry feature.
  std::vector<BaselineStatus> baselines;
  /// The historical row of each partition segment, in segment order (the
  /// global row for a transition the history never saw).
  std::vector<HistoricalFeatureMap::Row> segment_rows;
  /// The historical row of each edge of the popular route between the
  /// partition's endpoints; empty when there is no such route or it has
  /// no edges.
  std::vector<HistoricalFeatureMap::Row> route_rows;
};

/// \brief Computes per-feature irregular rates Γ_f(TP) for trajectory
/// partitions (Sec. V).
///
/// Routing features compare the partition's per-segment feature sequence
/// against the popular route's (mined by PopularRouteMiner, annotated by the
/// historical feature map) via the edit distance above. Moving features
/// average the per-segment deviation from the historical feature map's
/// regular values. A partition whose endpoints have no popular route is
/// maximally irregular in routing (Γ_f = w_f), matching the edit distance
/// against an empty sequence.
class IrregularityAnalyzer {
 public:
  /// All pointees must outlive the analyzer. `feature_map` is const and
  /// read in place.
  IrregularityAnalyzer(const FeatureRegistry* registry,
                       const PopularRouteMiner* miner,
                       const HistoricalFeatureMap* feature_map);

  /// Compares the partition covering segments [seg_begin, seg_end) of
  /// `symbolic` (whose per-segment features are `segments`, covering the
  /// whole trajectory) with its history: one popular-route lookup, one
  /// feature-map row per partition segment and one per route edge. Returns
  /// one rate and one baseline status per registry feature, together with
  /// the rows they were computed from.
  ///
  /// Degraded mode: when the trained model carries no baseline for a
  /// feature at all — an empty feature map for moving features, or a miner
  /// with zero transitions for routing features — the rate is neutral (0)
  /// and that feature is marked BaselineStatus::kNoBaseline. A *trained*
  /// model whose history merely lacks this partition's endpoints keeps the
  /// paper semantics (routing maximally irregular, moving features against
  /// the global average); only a model with nothing to compare against
  /// degrades.
  ///
  /// `ctx` bounds the popular-route lookup. A deadline/cancel abort inside
  /// the lookup degrades the rates like a missing route would — callers on
  /// the serving path (STMaker::Summarize) re-check the context right
  /// after this call, and deadline/cancellation are sticky, so a summary
  /// built from such degraded rates is always discarded, never returned.
  PartitionComparison IrregularRates(
      const SymbolicTrajectory& symbolic,
      const std::vector<SegmentFeatures>& segments, size_t seg_begin,
      size_t seg_end, const RequestContext* ctx = nullptr) const;

 private:
  const FeatureRegistry* registry_;
  const PopularRouteMiner* miner_;
  const HistoricalFeatureMap* feature_map_;
};

}  // namespace stmaker

#endif  // STMAKER_CORE_IRREGULARITY_H_
