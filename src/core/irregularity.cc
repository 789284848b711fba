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

double IrregularityAnalyzer::RegularValueForSegment(
    const SymbolicTrajectory& symbolic, size_t seg, size_t feature) const {
  STMAKER_CHECK(seg + 1 < symbolic.samples.size());
  Result<std::vector<double>> regular = feature_map_->RegularValuesCopy(
      symbolic.samples[seg].landmark, symbolic.samples[seg + 1].landmark);
  if (regular.ok()) return regular.value()[feature];
  return feature_map_->GlobalAverage(feature);
}

namespace {

/// Regular feature vectors along a mined route's edges, with global-average
/// fallback for edges the feature map has not seen.
std::vector<std::vector<double>> RouteFeatureVectors(
    const HistoricalFeatureMap& map, const std::vector<LandmarkId>& route) {
  const size_t num_features = map.num_features();
  std::vector<std::vector<double>> values;
  for (size_t i = 0; i + 1 < route.size(); ++i) {
    Result<std::vector<double>> avg =
        map.RegularValuesCopy(route[i], route[i + 1]);
    if (avg.ok()) {
      values.push_back(std::move(avg).value());
    } else {
      std::vector<double> fallback(num_features, 0.0);
      for (size_t f = 0; f < num_features; ++f) {
        fallback[f] = map.GlobalAverage(f);
      }
      values.push_back(std::move(fallback));
    }
  }
  return values;
}

}  // namespace

Result<std::vector<std::vector<double>>>
IrregularityAnalyzer::PopularRouteFeatureValues(
    const SymbolicTrajectory& symbolic, size_t seg_begin, size_t seg_end,
    const RequestContext* ctx) const {
  STMAKER_CHECK(seg_begin < seg_end);
  STMAKER_CHECK(seg_end < symbolic.samples.size());
  LandmarkId from = symbolic.samples[seg_begin].landmark;
  LandmarkId to = symbolic.samples[seg_end].landmark;
  STMAKER_ASSIGN_OR_RETURN(std::vector<LandmarkId> route,
                           miner_->PopularRoute(from, to, ctx));
  std::vector<std::vector<double>> values =
      RouteFeatureVectors(*feature_map_, route);
  if (values.empty()) {
    return Status::NotFound("popular route has no edges");
  }
  return values;
}

std::vector<double> IrregularityAnalyzer::IrregularRates(
    const SymbolicTrajectory& symbolic,
    const std::vector<SegmentFeatures>& segments, size_t seg_begin,
    size_t seg_end, std::vector<BaselineStatus>* baselines,
    const RequestContext* ctx) const {
  STMAKER_CHECK(seg_begin < seg_end);
  STMAKER_CHECK(seg_end <= segments.size());
  STMAKER_CHECK(segments.size() + 1 == symbolic.samples.size());
  const size_t num_features = registry_->size();
  std::vector<double> rates(num_features, 0.0);
  if (baselines != nullptr) {
    baselines->assign(num_features, BaselineStatus::kHistorical);
  }
  // A model with no mined transitions / no feature history cannot ground
  // any comparison; those features degrade to a neutral rate instead of
  // reading as maximally irregular (routing) or deviating from fabricated
  // zeros (moving). See the header's degraded-mode contract.
  const bool no_routing_baseline = miner_->NumTransitions() == 0;
  const bool no_moving_baseline = feature_map_->empty();

  // Popular route between the partition's endpoints, shared by all routing
  // features.
  LandmarkId from = symbolic.samples[seg_begin].landmark;
  LandmarkId to = symbolic.samples[seg_end].landmark;
  Result<std::vector<LandmarkId>> pr = miner_->PopularRoute(from, to, ctx);

  // Regular feature vectors along the popular route edges.
  std::vector<std::vector<double>> pr_values;  // [edge][feature]
  if (pr.ok()) {
    pr_values = RouteFeatureVectors(*feature_map_, pr.value());
  }

  for (size_t f = 0; f < num_features; ++f) {
    const FeatureDef& def = registry_->def(f);
    if ((def.kind == FeatureKind::kRouting && no_routing_baseline) ||
        (def.kind != FeatureKind::kRouting && no_moving_baseline)) {
      rates[f] = 0.0;  // neutral: nothing to compare against
      if (baselines != nullptr) {
        (*baselines)[f] = BaselineStatus::kNoBaseline;
      }
      continue;
    }
    if (def.kind == FeatureKind::kRouting) {
      // Γ_f = w_f · d(F_TP, F_PR) / max(|F_TP|, |F_PR|).
      std::vector<double> f_tp;
      for (size_t s = seg_begin; s < seg_end; ++s) {
        f_tp.push_back(segments[s].values[f]);
      }
      std::vector<double> f_pr;
      for (const std::vector<double>& v : pr_values) {
        // The historical map stores running averages; categorical features
        // must be snapped back to a category before the 0/1 equality cost,
        // or a stored 2.94 would never "equal" the trip's grade 3.
        f_pr.push_back(def.value_type == FeatureValueType::kCategorical
                           ? std::round(v[f])
                           : v[f]);
      }
      double d = FeatureSequenceEditDistance(f_tp, f_pr, def.value_type);
      double denom =
          static_cast<double>(std::max(f_tp.size(), f_pr.size()));
      rates[f] = denom > 0 ? def.weight * d / denom : 0.0;
    } else {
      // Γ_f = w_f · mean_t |norm(f(TS_t)) − norm(r_t)|. Per the paper, the
      // normalization constant is the biggest feature value among the
      // partition's own segments; regular values are normalized by the same
      // constant (and may exceed 1 when the trip's values are unusually
      // small). An all-zero partition has nothing to report: rate 0 — a
      // trip with no stay points is not "irregular" about stay points.
      double max_abs = 0;
      std::vector<double> values;
      std::vector<double> regulars;
      for (size_t s = seg_begin; s < seg_end; ++s) {
        double v = segments[s].values[f];
        double r = RegularValueForSegment(symbolic, s, f);
        values.push_back(v);
        regulars.push_back(r);
        max_abs = std::max(max_abs, std::fabs(v));
      }
      double sum = 0;
      if (max_abs > 0) {
        for (size_t i = 0; i < values.size(); ++i) {
          sum += std::fabs(values[i] - regulars[i]) / max_abs;
        }
      }
      rates[f] = def.weight * sum / static_cast<double>(values.size());
    }
  }
  return rates;
}

}  // namespace stmaker
