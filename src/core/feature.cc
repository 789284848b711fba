#include "core/feature.h"

#include "common/check.h"

namespace stmaker {

FeatureRegistry FeatureRegistry::BuiltIn() {
  FeatureRegistry reg;
  reg.defs_ = {
      {"grade_of_road", "grade of road", FeatureKind::kRouting,
       FeatureValueType::kCategorical, 1.0, nullptr, ""},
      {"road_width", "road width", FeatureKind::kRouting,
       FeatureValueType::kNumeric, 1.0, nullptr, ""},
      {"traffic_direction", "traffic direction", FeatureKind::kRouting,
       FeatureValueType::kCategorical, 1.0, nullptr, ""},
      {"speed", "speed", FeatureKind::kMoving, FeatureValueType::kNumeric,
       1.0, nullptr, ""},
      {"stay_points", "stay points", FeatureKind::kMoving,
       FeatureValueType::kNumeric, 1.0, nullptr, ""},
      {"u_turns", "U-turns", FeatureKind::kMoving,
       FeatureValueType::kNumeric, 1.0, nullptr, ""},
  };
  return reg;
}

Result<size_t> FeatureRegistry::Register(FeatureDef def) {
  if (def.id.empty()) {
    return Status::InvalidArgument("feature id must not be empty");
  }
  for (const FeatureDef& d : defs_) {
    if (d.id == def.id) {
      return Status::InvalidArgument("duplicate feature id: " + def.id);
    }
  }
  if (!def.extractor) {
    return Status::InvalidArgument(
        "user-registered feature needs an extractor: " + def.id);
  }
  if (def.weight < 0) {
    return Status::InvalidArgument("feature weight must be non-negative");
  }
  defs_.push_back(std::move(def));
  return defs_.size() - 1;
}

const FeatureDef& FeatureRegistry::def(size_t index) const {
  STMAKER_CHECK(index < defs_.size());
  return defs_[index];
}

Status FeatureRegistry::SetWeight(const std::string& id, double weight) {
  if (weight < 0) {
    return Status::InvalidArgument("feature weight must be non-negative");
  }
  for (FeatureDef& d : defs_) {
    if (d.id == id) {
      d.weight = weight;
      return Status::OK();
    }
  }
  return Status::NotFound("unknown feature id: " + id);
}

std::vector<double> FeatureRegistry::Weights() const {
  std::vector<double> w;
  w.reserve(defs_.size());
  for (const FeatureDef& d : defs_) w.push_back(d.weight);
  return w;
}

}  // namespace stmaker
