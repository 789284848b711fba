#ifndef STMAKER_CORE_FEATURE_EXTRACTOR_H_
#define STMAKER_CORE_FEATURE_EXTRACTOR_H_

/// \file
/// Per-segment feature-vector computation over calibrated trajectories.

#include <string>
#include <vector>

#include "common/status.h"
#include "core/feature.h"
#include "landmark/landmark_index.h"
#include "roadnet/map_matcher.h"
#include "roadnet/road_network.h"
#include "traj/calibration.h"
#include "traj/stay_point.h"
#include "traj/uturn.h"

namespace stmaker {

/// Extraction parameters (detector thresholds and matcher tuning).
struct FeatureExtractorOptions {
  StayPointOptions stay;
  UTurnOptions uturn;
  MapMatchOptions matcher;
};

/// \brief Feature values and descriptive context for one trajectory segment.
///
/// `values` is the |F|-dimensional raw feature vector in registry order
/// (categorical features stored as their integer codes). The remaining
/// fields feed summary phrase construction (Sec. VI-A).
struct SegmentFeatures {
  std::vector<double> values;

  RoadGrade dominant_grade = RoadGrade::kCountryRoad;
  std::string dominant_road_name;
  TrafficDirection dominant_direction = TrafficDirection::kTwoWay;
  double mean_width_m = 0;
  double speed_kmh = 0;
  int num_stays = 0;
  double total_stay_s = 0;
  int num_uturns = 0;
  std::vector<std::string> uturn_places;  ///< Nearest landmark names.
  double length_m = 0;
  double duration_s = 0;
};

/// \brief Computes the per-segment feature vectors of a calibrated
/// trajectory (Sec. III).
///
/// Routing features come from map-matching the segment's raw fixes to road
/// edges; moving features from the stay-point and U-turn detectors and the
/// segment's length/duration. User-registered features are evaluated through
/// their extractor callbacks on the same SegmentContext.
class FeatureExtractor {
 public:
  /// All pointees must outlive the extractor.
  FeatureExtractor(const RoadNetwork* network, const LandmarkIndex* landmarks,
                   const FeatureRegistry* registry,
                   const FeatureExtractorOptions& options =
                       FeatureExtractorOptions());

  /// Extracts features for every segment of `trajectory`. The result has
  /// exactly trajectory.NumSegments() entries.
  ///
  /// With a context, map matching and the per-segment loop check the
  /// deadline and abort with kDeadlineExceeded.
  Result<std::vector<SegmentFeatures>> Extract(
      const CalibratedTrajectory& trajectory,
      const RequestContext* ctx = nullptr) const;

 private:
  const RoadNetwork* network_;
  const LandmarkIndex* landmarks_;
  const FeatureRegistry* registry_;
  FeatureExtractorOptions options_;
  MapMatcher matcher_;
};

}  // namespace stmaker

#endif  // STMAKER_CORE_FEATURE_EXTRACTOR_H_
