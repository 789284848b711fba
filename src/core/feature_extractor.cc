#include "core/feature_extractor.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "core/votes.h"

namespace stmaker {

FeatureExtractor::FeatureExtractor(const RoadNetwork* network,
                                   const LandmarkIndex* landmarks,
                                   const FeatureRegistry* registry,
                                   const FeatureExtractorOptions& options)
    : network_(network),
      landmarks_(landmarks),
      registry_(registry),
      options_(options),
      matcher_(network, options.matcher) {
  STMAKER_CHECK(network != nullptr);
  STMAKER_CHECK(landmarks != nullptr);
  STMAKER_CHECK(registry != nullptr);
}

Result<std::vector<SegmentFeatures>> FeatureExtractor::Extract(
    const CalibratedTrajectory& trajectory, const RequestContext* ctx) const {
  const size_t num_segments = trajectory.NumSegments();
  if (num_segments == 0) {
    return Status::InvalidArgument(
        "trajectory has no segments to extract features from");
  }
  STMAKER_RETURN_IF_ERROR(CheckContext(ctx));

  // Whole-trajectory passes, sliced per segment afterwards. The dominant
  // scratch consumer here is matcher_.Match, which runs inside the thread
  // arena; the per-segment buffers below stay std::vector (their types are
  // part of the SegmentContext extension API) but are hoisted and reused.
  std::vector<Vec2> positions;
  positions.reserve(trajectory.raw.samples.size());
  for (const RawSample& s : trajectory.raw.samples) {
    positions.push_back(s.pos);
  }
  STMAKER_ASSIGN_OR_RETURN(std::vector<EdgeId> matched,
                           matcher_.Match(positions, ctx));
  std::vector<StayPoint> stays =
      DetectStayPoints(trajectory.raw, options_.stay);
  std::vector<UTurn> uturns = DetectUTurns(trajectory.raw, options_.uturn);

  CancelCheck check(ctx, /*stride=*/16);  // segments are coarse units
  std::vector<SegmentFeatures> out(num_segments);
  const std::vector<std::pair<size_t, size_t>> ranges =
      trajectory.SegmentSampleRanges();
  NameVotes<> name_votes;
  // Only registered extractors read a SegmentContext; the built-in features
  // never need its copies of the segment's fixes and matched edges.
  const bool has_extractors =
      std::any_of(registry_->defs().begin(), registry_->defs().end(),
                  [](const FeatureDef& def) { return bool(def.extractor); });
  // Plain vectors (SegmentContext's types are part of the extension API),
  // but hoisted: assign() reuses their capacity across segments.
  RawTrajectory segment_raw;
  segment_raw.traveler = trajectory.raw.traveler;
  std::vector<EdgeId> matched_slice;
  for (size_t seg = 0; seg < num_segments; ++seg) {
    STMAKER_RETURN_IF_ERROR(check.Tick());
    SegmentFeatures& sf = out[seg];
    const auto [first, last] = ranges[seg];
    auto [t0, t1] = trajectory.SegmentTimeSpan(seg);
    sf.length_m = trajectory.SegmentLength(seg);
    sf.duration_s = t1 - t0;

    // --- Routing attributes from the matched edges. -------------------------
    EnumVotes<RoadGrade, 7> grade_votes;
    EnumVotes<TrafficDirection, 2> direction_votes;
    name_votes.clear();
    double width_sum = 0;
    int width_count = 0;
    for (size_t i = first; i < last && i < matched.size(); ++i) {
      EdgeId e = matched[i];
      if (e < 0) continue;
      const RoadEdge& edge = network_->edge(e);
      grade_votes.Vote(edge.grade);
      direction_votes.Vote(edge.direction);
      name_votes.Vote(&edge.name);
      width_sum += edge.width_m;
      width_count++;
    }
    if (width_count > 0) {
      sf.dominant_grade = grade_votes.Best();
      sf.dominant_direction = direction_votes.Best();
      sf.dominant_road_name = name_votes.Best();
      sf.mean_width_m = width_sum / width_count;
    }

    // --- Moving attributes. --------------------------------------------------
    sf.speed_kmh =
        sf.duration_s > 0 ? sf.length_m / sf.duration_s * 3.6 : 0.0;
    for (const StayPoint& s : StayPointsInWindow(stays, t0, t1)) {
      sf.num_stays++;
      sf.total_stay_s += s.Duration();
    }
    for (const UTurn& u : UTurnsInWindow(uturns, t0, t1)) {
      sf.num_uturns++;
      LandmarkId near = landmarks_->Nearest(u.pos, 400.0);
      if (near >= 0) {
        sf.uturn_places.push_back(landmarks_->landmark(near).name);
      }
    }

    // --- Assemble the feature vector in registry order. ---------------------
    SegmentContext context;
    if (has_extractors) {
      segment_raw.samples.assign(trajectory.raw.samples.begin() + first,
                                 trajectory.raw.samples.begin() + last);
      matched_slice.assign(
          matched.begin() + std::min(first, matched.size()),
          matched.begin() + std::min(last, matched.size()));
      context.segment_raw = &segment_raw;
      context.matched_edges = &matched_slice;
      context.network = network_;
      context.segment_length_m = sf.length_m;
      context.duration_s = sf.duration_s;
    }

    sf.values.resize(registry_->size(), 0.0);
    for (size_t f = 0; f < registry_->size(); ++f) {
      const FeatureDef& def = registry_->def(f);
      if (def.extractor) {
        sf.values[f] = def.extractor(context);
        continue;
      }
      switch (f) {
        case kGradeOfRoadFeature:
          sf.values[f] = static_cast<double>(sf.dominant_grade);
          break;
        case kRoadWidthFeature:
          sf.values[f] = sf.mean_width_m;
          break;
        case kTrafficDirectionFeature:
          sf.values[f] = static_cast<double>(sf.dominant_direction);
          break;
        case kSpeedFeature:
          sf.values[f] = sf.speed_kmh;
          break;
        case kStayPointsFeature:
          sf.values[f] = static_cast<double>(sf.num_stays);
          break;
        case kUTurnsFeature:
          sf.values[f] = static_cast<double>(sf.num_uturns);
          break;
        default:
          return Status::Internal(
              "built-in feature without native implementation: " + def.id);
      }
    }
  }
  return out;
}

}  // namespace stmaker
