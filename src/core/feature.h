#ifndef STMAKER_CORE_FEATURE_H_
#define STMAKER_CORE_FEATURE_H_

/// \file
/// Feature definitions and the extensible FeatureRegistry (Sec. V).

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "roadnet/road_network.h"
#include "traj/trajectory.h"

namespace stmaker {

/// Routing features describe *where* the object travels; moving features
/// describe *how* (Sec. III). The distinction drives how irregularity is
/// measured (Sec. V-A vs V-B).
enum class FeatureKind {
  kRouting,
  kMoving,
};

/// Numeric features compare by absolute difference; categorical features
/// (stored as small integers) compare by equality (Eq. 6 vs Eq. 7).
enum class FeatureValueType {
  kNumeric,
  kCategorical,
};

/// Everything a custom feature extractor may look at for one trajectory
/// segment (Sec. VI-B). Pointers are borrowed and valid only during the
/// extractor call.
struct SegmentContext {
  const RawTrajectory* segment_raw = nullptr;  ///< Raw fixes of the segment.
  const std::vector<EdgeId>* matched_edges = nullptr;  ///< Per-fix edge ids
                                                       ///< (-1 = unmatched).
  const RoadNetwork* network = nullptr;
  double segment_length_m = 0;
  double duration_s = 0;
};

/// Extracts the feature's raw (unnormalized) value for one segment.
using FeatureExtractorFn = std::function<double(const SegmentContext&)>;

/// \brief Descriptor of one feature (built-in or user-registered).
struct FeatureDef {
  std::string id;            ///< Stable identifier, e.g. "speed".
  std::string display_name;  ///< Human-readable name used in generic phrases.
  FeatureKind kind = FeatureKind::kMoving;
  FeatureValueType value_type = FeatureValueType::kNumeric;
  double weight = 1.0;       ///< w_f: user interest weight (Sec. IV-B, V).
  /// Extractor for user-registered features; built-ins (empty extractor)
  /// are computed natively by FeatureExtractor.
  FeatureExtractorFn extractor;
  /// Phrase template for user-registered features, with placeholders
  /// {value} and {regular}; empty selects the generic phrase.
  std::string phrase_template;
};

/// Indices of the six built-in features within FeatureRegistry::BuiltIn().
inline constexpr size_t kGradeOfRoadFeature = 0;
inline constexpr size_t kRoadWidthFeature = 1;
inline constexpr size_t kTrafficDirectionFeature = 2;
inline constexpr size_t kSpeedFeature = 3;
inline constexpr size_t kStayPointsFeature = 4;
inline constexpr size_t kUTurnsFeature = 5;
inline constexpr size_t kNumBuiltInFeatures = 6;

/// \brief The ordered set of features in play (Table III + IV, extensible
/// per Sec. VI-B).
///
/// The registry fixes the dimensionality |F| of segment feature vectors and
/// carries per-feature weights. Built-in features occupy indices 0..5 in the
/// canonical order (GR, RW, TD, Spe, Stay, U-turn); user features append.
class FeatureRegistry {
 public:
  /// The paper's six features with weight 1.
  static FeatureRegistry BuiltIn();

  /// Appends a user feature (Sec. VI-B). The definition must have a
  /// non-empty unique id and, unless it duplicates built-in semantics, an
  /// extractor. Returns the new feature index.
  Result<size_t> Register(FeatureDef def);

  size_t size() const { return defs_.size(); }
  const FeatureDef& def(size_t index) const;
  const std::vector<FeatureDef>& defs() const { return defs_; }

  /// Sets w_f for one feature.
  Status SetWeight(const std::string& id, double weight);

  /// The weight vector in feature order.
  std::vector<double> Weights() const;

 private:
  std::vector<FeatureDef> defs_;
};

}  // namespace stmaker

#endif  // STMAKER_CORE_FEATURE_H_
