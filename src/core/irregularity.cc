#include "core/irregularity.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace stmaker {

double FeatureSequenceEditDistance(const std::vector<double>& a,
                                   const std::vector<double>& b,
                                   FeatureValueType type) {
  if (a.empty()) return static_cast<double>(b.size());
  if (b.empty()) return static_cast<double>(a.size());

  // Shared normalization constant for numeric substitution costs.
  double max_abs = 0;
  if (type == FeatureValueType::kNumeric) {
    for (double v : a) max_abs = std::max(max_abs, std::fabs(v));
    for (double v : b) max_abs = std::max(max_abs, std::fabs(v));
  }
  auto subst = [&](double x, double y) -> double {
    if (type == FeatureValueType::kCategorical) {
      return x == y ? 0.0 : 1.0;
    }
    return max_abs > 0 ? std::fabs(x - y) / max_abs : 0.0;
  };

  const size_t n = a.size();
  const size_t m = b.size();
  std::vector<double> prev(m + 1), cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = static_cast<double>(j);
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = static_cast<double>(i);
    for (size_t j = 1; j <= m; ++j) {
      cur[j] = std::min({prev[j - 1] + subst(a[i - 1], b[j - 1]),
                         prev[j] + 1.0, cur[j - 1] + 1.0});
    }
    prev.swap(cur);
  }
  return prev[m];
}

IrregularityAnalyzer::IrregularityAnalyzer(
    const FeatureRegistry* registry, const PopularRouteMiner* miner,
    const HistoricalFeatureMap* feature_map)
    : registry_(registry), miner_(miner), feature_map_(feature_map) {
  STMAKER_CHECK(registry != nullptr);
  STMAKER_CHECK(miner != nullptr);
  STMAKER_CHECK(feature_map != nullptr);
  STMAKER_CHECK(feature_map->num_features() == registry->size());
}

PartitionComparison IrregularityAnalyzer::IrregularRates(
    const SymbolicTrajectory& symbolic,
    const std::vector<SegmentFeatures>& segments, size_t seg_begin,
    size_t seg_end, const RequestContext* ctx) const {
  STMAKER_CHECK(seg_begin < seg_end);
  STMAKER_CHECK(seg_end <= segments.size());
  STMAKER_CHECK(segments.size() + 1 == symbolic.samples.size());
  const size_t num_features = registry_->size();
  PartitionComparison out;
  out.rates.assign(num_features, 0.0);
  out.baselines.assign(num_features, BaselineStatus::kHistorical);
  // A model with no mined transitions / no feature history cannot ground
  // any comparison; those features degrade to a neutral rate instead of
  // reading as maximally irregular (routing) or deviating from fabricated
  // zeros (moving). See the header's degraded-mode contract.
  const bool no_routing_baseline = miner_->NumTransitions() == 0;
  const bool no_moving_baseline = feature_map_->empty();

  // The history this partition is compared with: each segment's row, and
  // the rows along the popular route between the partition's endpoints.
  out.segment_rows.reserve(seg_end - seg_begin);
  for (size_t s = seg_begin; s < seg_end; ++s) {
    out.segment_rows.push_back(feature_map_->Lookup(
        symbolic.samples[s].landmark, symbolic.samples[s + 1].landmark));
  }
  Result<std::vector<LandmarkId>> pr =
      miner_->PopularRoute(symbolic.samples[seg_begin].landmark,
                           symbolic.samples[seg_end].landmark, ctx);
  if (pr.ok() && pr->size() >= 2) {
    out.route_rows.reserve(pr->size() - 1);
    for (size_t i = 0; i + 1 < pr->size(); ++i) {
      out.route_rows.push_back(feature_map_->Lookup((*pr)[i], (*pr)[i + 1]));
    }
  }

  std::vector<double> f_tp;  // edit-distance inputs, reused per feature
  std::vector<double> f_pr;
  for (size_t f = 0; f < num_features; ++f) {
    const FeatureDef& def = registry_->def(f);
    if ((def.kind == FeatureKind::kRouting && no_routing_baseline) ||
        (def.kind != FeatureKind::kRouting && no_moving_baseline)) {
      out.baselines[f] = BaselineStatus::kNoBaseline;  // rate stays 0
      continue;
    }
    if (def.kind == FeatureKind::kRouting) {
      // Γ_f = w_f · d(F_TP, F_PR) / max(|F_TP|, |F_PR|).
      f_tp.clear();
      for (size_t s = seg_begin; s < seg_end; ++s) {
        f_tp.push_back(segments[s].values[f]);
      }
      f_pr.clear();
      for (const HistoricalFeatureMap::Row& row : out.route_rows) {
        // The historical map stores running averages; categorical features
        // must be snapped back to a category before the 0/1 equality cost,
        // or a stored 2.94 would never "equal" the trip's grade 3.
        f_pr.push_back(def.value_type == FeatureValueType::kCategorical
                           ? std::round(row[f])
                           : row[f]);
      }
      double d = FeatureSequenceEditDistance(f_tp, f_pr, def.value_type);
      double denom =
          static_cast<double>(std::max(f_tp.size(), f_pr.size()));
      out.rates[f] = denom > 0 ? def.weight * d / denom : 0.0;
    } else {
      // Γ_f = w_f · mean_t |norm(f(TS_t)) − norm(r_t)|. Per the paper, the
      // normalization constant is the biggest feature value among the
      // partition's own segments; regular values are normalized by the same
      // constant (and may exceed 1 when the trip's values are unusually
      // small). An all-zero partition has nothing to report: rate 0 — a
      // trip with no stay points is not "irregular" about stay points.
      double max_abs = 0;
      for (size_t s = seg_begin; s < seg_end; ++s) {
        max_abs = std::max(max_abs, std::fabs(segments[s].values[f]));
      }
      double sum = 0;
      if (max_abs > 0) {
        for (size_t s = seg_begin; s < seg_end; ++s) {
          sum += std::fabs(segments[s].values[f] -
                           out.segment_rows[s - seg_begin][f]) /
                 max_abs;
        }
      }
      out.rates[f] =
          def.weight * sum / static_cast<double>(seg_end - seg_begin);
    }
  }
  return out;
}

}  // namespace stmaker
