#include <gtest/gtest.h>

#include <cmath>

#include "core/stmaker.h"
#include "test_world.h"

namespace stmaker {
namespace {

using ::stmaker::testing::GetTestWorld;
using ::stmaker::testing::LoadedModel;
using ::stmaker::testing::SaveAndLoad;
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


TEST_F(STMakerTest, TrainIncrementalAccumulatesKnowledge) {
  LandmarkIndex& landmarks = const_cast<LandmarkIndex&>(*world_.landmarks);
  STMaker maker(&world_.city.network, &landmarks,
                FeatureRegistry::BuiltIn());
  std::vector<RawTrajectory> first_half;
  std::vector<RawTrajectory> second_half;
  for (size_t i = 0; i < 200; ++i) first_half.push_back(world_.history[i].raw);
  for (size_t i = 200; i < 400; ++i) {
    second_half.push_back(world_.history[i].raw);
  }
  ASSERT_TRUE(maker.Train(first_half).ok());
  size_t transitions_before = maker.popular_routes().NumTransitions();
  size_t trained_before = maker.num_trained();
  ASSERT_TRUE(maker.TrainIncremental(second_half).ok());
  EXPECT_GT(maker.num_trained(), trained_before);
  EXPECT_GE(maker.popular_routes().NumTransitions(), transitions_before);

  // Incremental(A then B) must equal Train(A+B) observably.
  STMaker batch(&world_.city.network, &landmarks,
                FeatureRegistry::BuiltIn());
  std::vector<RawTrajectory> all = first_half;
  all.insert(all.end(), second_half.begin(), second_half.end());
  ASSERT_TRUE(batch.Train(all).ok());
  EXPECT_EQ(maker.num_trained(), batch.num_trained());
  EXPECT_EQ(maker.popular_routes().NumTransitions(),
            batch.popular_routes().NumTransitions());
  EXPECT_EQ(maker.feature_map()->NumEdges(),
            batch.feature_map()->NumEdges());
  auto trip = FreshTrip(9 * 3600, 70);
  ASSERT_TRUE(trip.ok());
  auto a = maker.Summarize(trip->raw);
  auto b = batch.Summarize(trip->raw);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->text, b->text);
}

TEST_F(STMakerTest, TrainIncrementalRequiresPriorTraining) {
  LandmarkIndex& landmarks = const_cast<LandmarkIndex&>(*world_.landmarks);
  STMaker fresh(&world_.city.network, &landmarks,
                FeatureRegistry::BuiltIn());
  std::vector<RawTrajectory> some = {world_.history[0].raw};
  EXPECT_EQ(fresh.TrainIncremental(some).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(STMakerTest, TrainIncrementalComposesWithAContainerLoad) {
  // The container carries the visit corpus, so a restored model keeps
  // accumulating: LoadModelContainer then TrainIncremental must behave like
  // the original maker doing the same TrainIncremental.
  std::unique_ptr<LoadedModel> loaded =
      SaveAndLoad(*world_.maker, "incr_after_load.stm");
  STMaker& restored = *loaded->maker;
  size_t trained_before = restored.num_trained();
  std::vector<RawTrajectory> more;
  for (size_t i = 0; i < 50; ++i) more.push_back(world_.history[i].raw);
  ASSERT_TRUE(restored.TrainIncremental(more).ok());
  EXPECT_GT(restored.num_trained(), trained_before);
  auto trip = FreshTrip(9 * 3600, 70);
  ASSERT_TRUE(trip.ok());
  EXPECT_TRUE(restored.Summarize(trip->raw).ok());
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

}  // namespace
}  // namespace stmaker
