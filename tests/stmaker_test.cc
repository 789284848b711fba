#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/stmaker.h"
#include "landmark/landmark_index.h"
#include "roadnet/road_network.h"
#include "test_world.h"
#include "traj/calibration.h"

namespace stmaker {
namespace {

using ::stmaker::testing::GetTestWorld;
using ::stmaker::testing::TestWorld;

class STMakerTest : public ::testing::Test {
 protected:
  STMakerTest() : world_(GetTestWorld()) {}

  Result<GeneratedTrip> FreshTrip(double time_of_day, uint64_t seed) {
    Random rng(seed);
    return world_.generator->GenerateTrip(time_of_day, &rng);
  }

  const TestWorld& world_;
};

TEST_F(STMakerTest, TrainedStateIsReported) {
  EXPECT_TRUE(world_.maker->trained());
  EXPECT_GT(world_.maker->num_trained(), 300u);
  EXPECT_GT(world_.maker->popular_routes().NumTransitions(), 100u);
  EXPECT_GT(world_.maker->feature_map()->NumEdges(), 100u);
}

TEST_F(STMakerTest, UntrainedSummarizeFails) {
  // A fresh maker sharing the same substrate but without Train().
  LandmarkIndex& landmarks =
      const_cast<LandmarkIndex&>(*world_.landmarks);
  STMaker fresh(&world_.city.network, &landmarks,
                FeatureRegistry::BuiltIn());
  auto result = fresh.Summarize(world_.history[0].raw);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(STMakerTest, SummaryHasTextAndPartitions) {
  auto trip = FreshTrip(10 * 3600, 1);
  ASSERT_TRUE(trip.ok());
  auto summary = world_.maker->Summarize(trip->raw);
  ASSERT_TRUE(summary.ok());
  EXPECT_FALSE(summary->text.empty());
  ASSERT_FALSE(summary->partitions.empty());
  EXPECT_TRUE(summary->text.find("The car started from") == 0);
  EXPECT_EQ(summary->text.back(), '.');
}

TEST_F(STMakerTest, SummarizeIsDeterministic) {
  auto trip = FreshTrip(9 * 3600, 2);
  ASSERT_TRUE(trip.ok());
  auto a = world_.maker->Summarize(trip->raw);
  auto b = world_.maker->Summarize(trip->raw);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->text, b->text);
}

TEST_F(STMakerTest, PartitionsTileTheSymbolicTrajectory) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    auto trip = FreshTrip(14 * 3600, seed);
    if (!trip.ok()) continue;
    for (int k : {0, 1, 2, 3}) {
      SummaryOptions options;
      options.k = k;
      auto summary = world_.maker->Summarize(trip->raw, options);
      if (!summary.ok()) continue;
      const size_t n = summary->symbolic.NumSegments();
      ASSERT_GE(n, 1u);
      size_t expect_begin = 0;
      for (const PartitionSummary& p : summary->partitions) {
        EXPECT_EQ(p.seg_begin, expect_begin);
        EXPECT_LT(p.seg_begin, p.seg_end);
        expect_begin = p.seg_end;
        // Source/destination names resolve.
        EXPECT_FALSE(p.source_name.empty());
        EXPECT_FALSE(p.destination_name.empty());
        EXPECT_EQ(p.irregular_rates.size(),
                  world_.maker->registry().size());
      }
      EXPECT_EQ(expect_begin, n);
    }
  }
}

TEST_F(STMakerTest, KControlsPartitionCount) {
  auto trip = FreshTrip(11 * 3600, 3);
  ASSERT_TRUE(trip.ok());
  for (int k = 1; k <= 4; ++k) {
    SummaryOptions options;
    options.k = k;
    auto summary = world_.maker->Summarize(trip->raw, options);
    ASSERT_TRUE(summary.ok());
    size_t n = summary->symbolic.NumSegments();
    EXPECT_EQ(summary->partitions.size(),
              std::min<size_t>(static_cast<size_t>(k), n))
        << "k=" << k;
  }
}

TEST_F(STMakerTest, OversizedKIsClamped) {
  auto trip = FreshTrip(11 * 3600, 4);
  ASSERT_TRUE(trip.ok());
  SummaryOptions options;
  options.k = 1000;
  auto summary = world_.maker->Summarize(trip->raw, options);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->partitions.size(), summary->symbolic.NumSegments());
}

TEST_F(STMakerTest, NegativeOrNanEtaIsRejected) {
  auto trip = FreshTrip(12 * 3600, 5);
  ASSERT_TRUE(trip.ok());
  for (double eta : {-0.1, std::nan("")}) {
    SummaryOptions options;
    options.eta = eta;
    auto summary = world_.maker->Summarize(trip->raw, options);
    ASSERT_FALSE(summary.ok()) << "eta " << eta;
    EXPECT_EQ(summary.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(STMakerTest, HighEtaYieldsSmoothSummaries) {
  auto trip = FreshTrip(12 * 3600, 5);
  ASSERT_TRUE(trip.ok());
  SummaryOptions options;
  options.eta = 1e9;
  auto summary = world_.maker->Summarize(trip->raw, options);
  ASSERT_TRUE(summary.ok());
  for (const PartitionSummary& p : summary->partitions) {
    EXPECT_TRUE(p.selected.empty());
  }
  EXPECT_NE(summary->text.find("smoothly"), std::string::npos);
}

TEST_F(STMakerTest, LowerEtaSelectsMoreFeatures) {
  auto trip = FreshTrip(8 * 3600, 6);
  ASSERT_TRUE(trip.ok());
  auto count_selected = [&](double eta) {
    SummaryOptions options;
    options.eta = eta;
    auto summary = world_.maker->Summarize(trip->raw, options);
    EXPECT_TRUE(summary.ok());
    size_t n = 0;
    for (const PartitionSummary& p : summary->partitions) {
      n += p.selected.size();
    }
    return n;
  };
  EXPECT_GE(count_selected(0.05), count_selected(0.5));
}

TEST_F(STMakerTest, SelectedFeaturesCarryPhrasesAboveThreshold) {
  SummaryOptions options;
  options.eta = 0.2;
  for (uint64_t seed = 10; seed < 20; ++seed) {
    auto trip = FreshTrip(8 * 3600, seed);
    if (!trip.ok()) continue;
    auto summary = world_.maker->Summarize(trip->raw, options);
    if (!summary.ok()) continue;
    for (const PartitionSummary& p : summary->partitions) {
      for (const SelectedFeature& sel : p.selected) {
        EXPECT_GT(sel.irregular_rate, options.eta);
        EXPECT_FALSE(sel.phrase.empty());
        EXPECT_NE(p.sentence.find(sel.phrase), std::string::npos)
            << "phrase must appear in the partition sentence";
      }
    }
  }
}

TEST_F(STMakerTest, OnePopularRouteLookupPerPartition) {
  // Each partition is compared with one popular route (Sec. V-A); its
  // irregular rates and its phrases share that one lookup.
  size_t partitions = 0;
  for (size_t trip = 0; trip < 20; ++trip) {
    for (int k : {0, 3}) {
      SummaryOptions options;
      options.k = k;
      const CacheStats before = world_.maker->RouteCacheStats();
      auto summary =
          world_.maker->Summarize(world_.history[trip].raw, options);
      const CacheStats after = world_.maker->RouteCacheStats();
      if (!summary.ok()) continue;
      EXPECT_EQ(after.lookups() - before.lookups(),
                summary->partitions.size())
          << "trip " << trip << " k " << k;
      partitions += summary->partitions.size();
    }
  }
  EXPECT_GT(partitions, 40u);
}

TEST_F(STMakerTest, RushHourTripsMentionSpeedMoreOftenThanNight) {
  auto frequency = [&](double time_of_day, uint64_t seed_base) {
    int total = 0;
    int with_speed = 0;
    for (uint64_t s = 0; s < 40; ++s) {
      auto trip = FreshTrip(time_of_day, seed_base + s);
      if (!trip.ok()) continue;
      auto summary = world_.maker->Summarize(trip->raw);
      if (!summary.ok()) continue;
      ++total;
      if (summary->ContainsFeature(kSpeedFeature)) ++with_speed;
    }
    EXPECT_GT(total, 20);
    return static_cast<double>(with_speed) / total;
  };
  double rush = frequency(8 * 3600, 100);
  double night = frequency(2.5 * 3600, 200);
  EXPECT_GT(rush, night);
}

TEST_F(STMakerTest, CalibrateExposedAndConsistentWithSummary) {
  auto trip = FreshTrip(15 * 3600, 7);
  ASSERT_TRUE(trip.ok());
  auto calibrated = world_.maker->Calibrate(trip->raw);
  ASSERT_TRUE(calibrated.ok());
  auto summary = world_.maker->Summarize(trip->raw);
  ASSERT_TRUE(summary.ok());
  ASSERT_EQ(summary->symbolic.size(), calibrated->symbolic.size());
  for (size_t i = 0; i < summary->symbolic.size(); ++i) {
    EXPECT_EQ(summary->symbolic.samples[i].landmark,
              calibrated->symbolic.samples[i].landmark);
  }
}

TEST_F(STMakerTest, GarbageInputFailsCleanly) {
  EXPECT_FALSE(world_.maker->Summarize(RawTrajectory{}).ok());
  RawTrajectory one_point;
  one_point.samples.push_back({{0, 0}, 0});
  EXPECT_FALSE(world_.maker->Summarize(one_point).ok());
  RawTrajectory far_away;
  far_away.samples = {{{1e7, 1e7}, 0}, {{1e7 + 100, 1e7}, 60}};
  EXPECT_FALSE(world_.maker->Summarize(far_away).ok());
}

TEST_F(STMakerTest, CustomFeatureEndToEnd) {
  // A fresh maker with a "sharp speed change" feature (the paper's SpeC),
  // trained on a small slice of the corpus.
  LandmarkIndex& landmarks = const_cast<LandmarkIndex&>(*world_.landmarks);
  FeatureRegistry reg = FeatureRegistry::BuiltIn();
  FeatureDef def;
  def.id = "speed_change";
  def.display_name = "sharp speed changes";
  def.kind = FeatureKind::kMoving;
  def.value_type = FeatureValueType::kNumeric;
  def.phrase_template = "with {value} sharp speed changes (usually {regular})";
  def.extractor = [](const SegmentContext& ctx) {
    const auto& samples = ctx.segment_raw->samples;
    int changes = 0;
    double prev_speed = -1;
    for (size_t i = 1; i < samples.size(); ++i) {
      double dt = samples[i].time - samples[i - 1].time;
      if (dt <= 0) continue;
      double v = Distance(samples[i].pos, samples[i - 1].pos) / dt;
      if (prev_speed >= 0 && std::fabs(v - prev_speed) > 8.0) ++changes;
      prev_speed = v;
    }
    return static_cast<double>(changes);
  };
  ASSERT_TRUE(reg.Register(std::move(def)).ok());

  STMaker maker(&world_.city.network, &landmarks, std::move(reg));
  std::vector<RawTrajectory> history;
  for (size_t i = 0; i < 150; ++i) history.push_back(world_.history[i].raw);
  ASSERT_TRUE(maker.Train(history).ok());

  auto trip = FreshTrip(8 * 3600, 8);
  ASSERT_TRUE(trip.ok());
  auto summary = maker.Summarize(trip->raw);
  ASSERT_TRUE(summary.ok());
  for (const PartitionSummary& p : summary->partitions) {
    EXPECT_EQ(p.irregular_rates.size(), kNumBuiltInFeatures + 1);
  }
}


TEST_F(STMakerTest, FeatureWeightShiftsSelection) {
  // Replicates Fig. 10(a)'s mechanism: boosting w_speed increases the
  // number of summaries mentioning speed.
  LandmarkIndex& landmarks = const_cast<LandmarkIndex&>(*world_.landmarks);
  STMaker maker(&world_.city.network, &landmarks,
                FeatureRegistry::BuiltIn());
  std::vector<RawTrajectory> history;
  for (size_t i = 0; i < 200; ++i) history.push_back(world_.history[i].raw);
  ASSERT_TRUE(maker.Train(history).ok());

  auto frequency = [&](double weight) {
    EXPECT_TRUE(maker.registry().SetWeight("speed", weight).ok());
    int total = 0;
    int with_speed = 0;
    for (uint64_t s = 0; s < 40; ++s) {
      Random rng(4000 + s);
      auto trip = world_.generator->GenerateTrip(13 * 3600, &rng);
      if (!trip.ok()) continue;
      auto summary = maker.Summarize(trip->raw);
      if (!summary.ok()) continue;
      ++total;
      if (summary->ContainsFeature(kSpeedFeature)) ++with_speed;
    }
    EXPECT_GT(total, 20);
    return static_cast<double>(with_speed) / total;
  };
  double low = frequency(0.5);
  double high = frequency(4.0);
  EXPECT_TRUE(maker.registry().SetWeight("speed", 1.0).ok());
  EXPECT_GE(high, low);
}

// Anchor thinning breaks exact distance ties by significance, and training
// rewrites significance after it has calibrated the corpus through the
// calibration cache. A 3 km street has "Tie A" at (1500, 60) and "Tie B"
// at (1560, -60): both exactly 60 m off the street and 60 m apart in arc,
// closer than min_spacing_m, so significance alone picks which one a
// full-street trip keeps. Forty travellers start next to Tie B, so
// training makes it the more significant of the two.
class TrainedSignificanceTest : public ::testing::Test {
 protected:
  TrainedSignificanceTest() {
    NodeId west = net_.AddNode({0, 0});
    NodeId east = net_.AddNode({3000, 0});
    EXPECT_TRUE(net_.AddEdge(west, east, RoadGrade::kNationalRoad, 20,
                             TrafficDirection::kTwoWay, "Long Avenue")
                    .ok());
    net_.AnnotateTurningPoints();
    net_.BuildSpatialIndex();
    // Four POIs per site, symmetric, so each centroid is exact.
    std::vector<RawPoi> pois;
    for (double dx : {-6.0, -2.0, 2.0, 6.0}) {
      pois.push_back({{1500 + dx, 60}, "Tie A"});
      pois.push_back({{1560 + dx, -60}, "Tie B"});
    }
    landmarks_ = std::make_unique<LandmarkIndex>(
        LandmarkIndex::Build(net_, pois));
    for (const Landmark& lm : landmarks_->landmarks()) {
      if (lm.name == "Tie A") tie_a_ = lm.id;
      if (lm.name == "Tie B") tie_b_ = lm.id;
    }
    EXPECT_GE(tie_a_, 0);
    EXPECT_GE(tie_b_, 0);
    for (int64_t traveler = 0; traveler < 3; ++traveler) {
      street_trips_.push_back(Trip(0, traveler));
    }
    for (int64_t traveler = 100; traveler < 140; ++traveler) {
      tie_b_trips_.push_back(Trip(1580, traveler));
    }
  }

  /// Eastbound at 10 m/s from x = `from` to the end of the street.
  static RawTrajectory Trip(double from, int64_t traveler) {
    RawTrajectory trip;
    trip.traveler = traveler;
    for (double x = from; x <= 3000; x += 100) {
      trip.samples.push_back({{x, 0}, 8 * 3600 + (x - from) / 10});
    }
    return trip;
  }

  std::vector<LandmarkId> Anchors(const Result<CalibratedTrajectory>& c) {
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    std::vector<LandmarkId> ids;
    if (!c.ok()) return ids;
    for (const SymbolicSample& s : c->symbolic.samples) {
      ids.push_back(s.landmark);
    }
    return ids;
  }

  /// What a freshly built, cache-off calibrator over today's significance
  /// makes of the first street trip — what a container-loaded model sees.
  std::vector<LandmarkId> FreshAnchors() {
    CalibrationOptions uncached;
    uncached.cache_size = 0;
    return Anchors(
        Calibrator(landmarks_.get(), uncached).Calibrate(street_trips_[0]));
  }

  double Significance(LandmarkId id) {
    return landmarks_->landmark(id).significance;
  }

  RoadNetwork net_;
  std::unique_ptr<LandmarkIndex> landmarks_;
  LandmarkId tie_a_ = -1;
  LandmarkId tie_b_ = -1;
  std::vector<RawTrajectory> street_trips_;
  std::vector<RawTrajectory> tie_b_trips_;
};

TEST_F(TrainedSignificanceTest, CalibrateAfterTrainUsesTrainedSignificance) {
  STMaker maker(&net_, landmarks_.get(), FeatureRegistry::BuiltIn());
  std::vector<RawTrajectory> history = street_trips_;
  history.insert(history.end(), tie_b_trips_.begin(), tie_b_trips_.end());
  ASSERT_TRUE(maker.Train(history).ok());
  ASSERT_GT(Significance(tie_b_), Significance(tie_a_));

  std::vector<LandmarkId> want = FreshAnchors();
  EXPECT_NE(std::find(want.begin(), want.end(), tie_b_), want.end());
  EXPECT_EQ(std::find(want.begin(), want.end(), tie_a_), want.end());
  EXPECT_EQ(Anchors(maker.Calibrate(street_trips_[0])), want);
}

TEST_F(TrainedSignificanceTest, CalibrateAfterRetrainUsesTrainedSignificance) {
  // The first Train memoizes the street trip's calibration under its
  // scores; the second Train of the same maker flips them, and the memo
  // must not outlive the flip.
  STMaker maker(&net_, landmarks_.get(), FeatureRegistry::BuiltIn());
  ASSERT_TRUE(maker.Train(street_trips_).ok());
  ASSERT_GT(Significance(tie_a_), Significance(tie_b_));
  EXPECT_EQ(Anchors(maker.Calibrate(street_trips_[0])), FreshAnchors());

  std::vector<RawTrajectory> history = street_trips_;
  history.insert(history.end(), tie_b_trips_.begin(), tie_b_trips_.end());
  ASSERT_TRUE(maker.Train(history).ok());
  ASSERT_GT(Significance(tie_b_), Significance(tie_a_));
  std::vector<LandmarkId> want = FreshAnchors();
  EXPECT_NE(std::find(want.begin(), want.end(), tie_b_), want.end());
  EXPECT_EQ(Anchors(maker.Calibrate(street_trips_[0])), want);
}

}  // namespace
}  // namespace stmaker
