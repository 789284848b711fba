#include <gtest/gtest.h>

#include <cmath>

#include "core/feature.h"
#include "core/feature_extractor.h"
#include "test_world.h"

namespace stmaker {
namespace {

using ::stmaker::testing::GetTestWorld;
using ::stmaker::testing::TestWorld;

// --------------------------------------------------------------------------
// FeatureRegistry
// --------------------------------------------------------------------------

TEST(FeatureRegistryTest, BuiltInOrderMatchesPaper) {
  FeatureRegistry reg = FeatureRegistry::BuiltIn();
  ASSERT_EQ(reg.size(), kNumBuiltInFeatures);
  EXPECT_EQ(reg.def(kGradeOfRoadFeature).id, "grade_of_road");
  EXPECT_EQ(reg.def(kRoadWidthFeature).id, "road_width");
  EXPECT_EQ(reg.def(kTrafficDirectionFeature).id, "traffic_direction");
  EXPECT_EQ(reg.def(kSpeedFeature).id, "speed");
  EXPECT_EQ(reg.def(kStayPointsFeature).id, "stay_points");
  EXPECT_EQ(reg.def(kUTurnsFeature).id, "u_turns");
}

TEST(FeatureRegistryTest, KindsAndTypes) {
  FeatureRegistry reg = FeatureRegistry::BuiltIn();
  EXPECT_EQ(reg.def(kGradeOfRoadFeature).kind, FeatureKind::kRouting);
  EXPECT_EQ(reg.def(kGradeOfRoadFeature).value_type,
            FeatureValueType::kCategorical);
  EXPECT_EQ(reg.def(kRoadWidthFeature).kind, FeatureKind::kRouting);
  EXPECT_EQ(reg.def(kRoadWidthFeature).value_type,
            FeatureValueType::kNumeric);
  EXPECT_EQ(reg.def(kSpeedFeature).kind, FeatureKind::kMoving);
  EXPECT_EQ(reg.def(kUTurnsFeature).kind, FeatureKind::kMoving);
}

TEST(FeatureRegistryTest, DefaultWeightsAreOne) {
  FeatureRegistry reg = FeatureRegistry::BuiltIn();
  for (double w : reg.Weights()) EXPECT_DOUBLE_EQ(w, 1.0);
}

TEST(FeatureRegistryTest, SetWeight) {
  FeatureRegistry reg = FeatureRegistry::BuiltIn();
  ASSERT_TRUE(reg.SetWeight("speed", 2.5).ok());
  EXPECT_DOUBLE_EQ(reg.def(kSpeedFeature).weight, 2.5);
  EXPECT_EQ(reg.SetWeight("speed", -1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.SetWeight("nope", 1).code(), StatusCode::kNotFound);
}

TEST(FeatureRegistryTest, RegisterCustomFeature) {
  FeatureRegistry reg = FeatureRegistry::BuiltIn();
  FeatureDef def;
  def.id = "speed_change";
  def.display_name = "sharp speed changes";
  def.kind = FeatureKind::kMoving;
  def.value_type = FeatureValueType::kNumeric;
  def.extractor = [](const SegmentContext&) { return 1.0; };
  auto idx = reg.Register(def);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, kNumBuiltInFeatures);
  EXPECT_EQ(reg.size(), kNumBuiltInFeatures + 1);
}

TEST(FeatureRegistryTest, RegisterValidation) {
  FeatureRegistry reg = FeatureRegistry::BuiltIn();
  FeatureDef no_id;
  no_id.extractor = [](const SegmentContext&) { return 0.0; };
  EXPECT_FALSE(reg.Register(no_id).ok());

  FeatureDef dup;
  dup.id = "speed";
  dup.extractor = [](const SegmentContext&) { return 0.0; };
  EXPECT_FALSE(reg.Register(dup).ok());

  FeatureDef no_extractor;
  no_extractor.id = "fresh";
  EXPECT_FALSE(reg.Register(no_extractor).ok());

  FeatureDef bad_weight;
  bad_weight.id = "fresh2";
  bad_weight.weight = -2;
  bad_weight.extractor = [](const SegmentContext&) { return 0.0; };
  EXPECT_FALSE(reg.Register(bad_weight).ok());
}

// --------------------------------------------------------------------------
// FeatureExtractor on generated trips
// --------------------------------------------------------------------------

class FeatureExtractorTest : public ::testing::Test {
 protected:
  FeatureExtractorTest()
      : world_(GetTestWorld()),
        registry_(FeatureRegistry::BuiltIn()),
        calibrator_(world_.landmarks.get()),
        extractor_(&world_.city.network, world_.landmarks.get(),
                   &registry_) {}

  const TestWorld& world_;
  FeatureRegistry registry_;
  Calibrator calibrator_;
  FeatureExtractor extractor_;
};

TEST_F(FeatureExtractorTest, VectorsHaveRegistryDimension) {
  auto calibrated = calibrator_.Calibrate(world_.history[0].raw);
  ASSERT_TRUE(calibrated.ok());
  auto features = extractor_.Extract(*calibrated);
  ASSERT_TRUE(features.ok());
  ASSERT_EQ(features->size(), calibrated->NumSegments());
  for (const SegmentFeatures& sf : *features) {
    EXPECT_EQ(sf.values.size(), registry_.size());
  }
}

TEST_F(FeatureExtractorTest, ValuesAreConsistentWithContext) {
  for (int t = 0; t < 20; ++t) {
    auto calibrated = calibrator_.Calibrate(world_.history[t].raw);
    if (!calibrated.ok()) continue;
    auto features = extractor_.Extract(*calibrated);
    ASSERT_TRUE(features.ok());
    for (const SegmentFeatures& sf : *features) {
      // Feature vector mirrors the descriptive context fields.
      EXPECT_DOUBLE_EQ(sf.values[kGradeOfRoadFeature],
                       static_cast<double>(sf.dominant_grade));
      EXPECT_DOUBLE_EQ(sf.values[kRoadWidthFeature], sf.mean_width_m);
      EXPECT_DOUBLE_EQ(sf.values[kSpeedFeature], sf.speed_kmh);
      EXPECT_DOUBLE_EQ(sf.values[kStayPointsFeature], sf.num_stays);
      EXPECT_DOUBLE_EQ(sf.values[kUTurnsFeature], sf.num_uturns);
      // Physical plausibility.
      EXPECT_TRUE(IsValidRoadGrade(
          static_cast<int>(sf.values[kGradeOfRoadFeature])));
      EXPECT_GE(sf.speed_kmh, 0);
      EXPECT_LT(sf.speed_kmh, 140);
      EXPECT_GE(sf.num_stays, 0);
      EXPECT_GE(sf.num_uturns, 0);
      EXPECT_GT(sf.length_m, 0);
      EXPECT_GE(sf.duration_s, 0);
    }
  }
}

TEST_F(FeatureExtractorTest, RoutingAttributesMatchGroundTruthRoute) {
  // The modal grade across extracted segments should usually match a grade
  // actually present on the trip's route.
  const RoadNetwork& net = world_.city.network;
  int checked = 0;
  int matched = 0;
  for (int t = 0; t < 40; ++t) {
    const GeneratedTrip& trip = world_.history[t];
    auto calibrated = calibrator_.Calibrate(trip.raw);
    if (!calibrated.ok()) continue;
    auto features = extractor_.Extract(*calibrated);
    ASSERT_TRUE(features.ok());
    std::set<RoadGrade> route_grades;
    for (EdgeId e : trip.route_edges) route_grades.insert(net.edge(e).grade);
    for (const SegmentFeatures& sf : *features) {
      ++checked;
      if (route_grades.count(sf.dominant_grade)) ++matched;
    }
  }
  ASSERT_GT(checked, 50);
  EXPECT_GT(matched * 10, checked * 9);  // ≥ 90%
}

TEST_F(FeatureExtractorTest, InjectedUTurnAppearsInSomeSegment) {
  int with_uturn = 0;
  int reflected = 0;
  for (const GeneratedTrip& trip : world_.history) {
    if (trip.events.num_uturns == 0) continue;
    auto calibrated = calibrator_.Calibrate(trip.raw);
    if (!calibrated.ok()) continue;
    auto features = extractor_.Extract(*calibrated);
    if (!features.ok()) continue;
    ++with_uturn;
    int total = 0;
    for (const SegmentFeatures& sf : *features) total += sf.num_uturns;
    if (total >= 1) ++reflected;
  }
  ASSERT_GT(with_uturn, 5);
  EXPECT_GT(reflected * 10, with_uturn * 6);
}

TEST_F(FeatureExtractorTest, CustomExtractorReceivesContext) {
  FeatureRegistry reg = FeatureRegistry::BuiltIn();
  FeatureDef def;
  def.id = "fix_density";
  def.display_name = "fix density";
  def.kind = FeatureKind::kMoving;
  def.value_type = FeatureValueType::kNumeric;
  def.extractor = [](const SegmentContext& ctx) {
    EXPECT_NE(ctx.segment_raw, nullptr);
    EXPECT_NE(ctx.matched_edges, nullptr);
    EXPECT_NE(ctx.network, nullptr);
    EXPECT_EQ(ctx.segment_raw->samples.size(), ctx.matched_edges->size());
    if (ctx.segment_length_m <= 0) return 0.0;
    return ctx.segment_raw->samples.size() / ctx.segment_length_m;
  };
  ASSERT_TRUE(reg.Register(def).ok());
  FeatureExtractor extractor(&world_.city.network, world_.landmarks.get(),
                             &reg);
  auto calibrated = calibrator_.Calibrate(world_.history[0].raw);
  ASSERT_TRUE(calibrated.ok());
  auto features = extractor.Extract(*calibrated);
  ASSERT_TRUE(features.ok());
  for (const SegmentFeatures& sf : *features) {
    ASSERT_EQ(sf.values.size(), kNumBuiltInFeatures + 1);
    EXPECT_GT(sf.values[kNumBuiltInFeatures], 0.0);
  }
}

}  // namespace
}  // namespace stmaker
