#include <gtest/gtest.h>

#include "core/corpus_stats.h"
#include "core/group_summarizer.h"
#include "core/summary_clustering.h"
#include "core/summary_index.h"
#include "test_world.h"

namespace stmaker {
namespace {

using ::stmaker::testing::GetTestWorld;
using ::stmaker::testing::TestWorld;

// --------------------------------------------------------------------------
// Corpus statistics
// --------------------------------------------------------------------------

Summary MakeSummaryWithFeatures(std::vector<std::vector<size_t>> partitions) {
  Summary summary;
  size_t seg = 0;
  for (const auto& features : partitions) {
    PartitionSummary p;
    p.seg_begin = seg;
    p.seg_end = seg + 1;
    ++seg;
    for (size_t f : features) {
      SelectedFeature sel;
      sel.feature = f;
      p.selected.push_back(sel);
    }
    summary.partitions.push_back(std::move(p));
  }
  return summary;
}

TEST(CorpusStatsTest, FeatureFrequencies) {
  std::vector<Summary> corpus;
  corpus.push_back(MakeSummaryWithFeatures({{0, 3}}));
  corpus.push_back(MakeSummaryWithFeatures({{3}, {3}}));  // counted once
  corpus.push_back(MakeSummaryWithFeatures({{}}));
  std::vector<double> ff = ComputeFeatureFrequencies(corpus, 6);
  EXPECT_DOUBLE_EQ(ff[0], 1.0 / 3);
  EXPECT_DOUBLE_EQ(ff[3], 2.0 / 3);
  EXPECT_DOUBLE_EQ(ff[1], 0.0);
}

TEST(CorpusStatsTest, PartitionDescriptionRates) {
  std::vector<Summary> corpus;
  corpus.push_back(MakeSummaryWithFeatures({{0}, {}, {}}));   // 3 partitions
  corpus.push_back(MakeSummaryWithFeatures({{0, 3}}));        // 1 partition
  std::vector<double> rates = ComputePartitionDescriptionRates(corpus, 6);
  EXPECT_DOUBLE_EQ(rates[0], 2.0 / 4);
  EXPECT_DOUBLE_EQ(rates[3], 1.0 / 4);
}

TEST(CorpusStatsTest, EmptyCorpus) {
  EXPECT_EQ(ComputeFeatureFrequencies({}, 6), std::vector<double>(6, 0.0));
  EXPECT_EQ(ComputePartitionDescriptionRates({}, 6),
            std::vector<double>(6, 0.0));
}

// --------------------------------------------------------------------------
// GroupSummarizer
// --------------------------------------------------------------------------

class GroupSummarizerTest : public ::testing::Test {
 protected:
  GroupSummarizerTest() : world_(GetTestWorld()) {}

  std::vector<RawTrajectory> MakeGroup(double time_of_day, size_t count,
                                       uint64_t seed) {
    std::vector<RawTrajectory> group;
    Random rng(seed);
    while (group.size() < count) {
      auto trip = world_.generator->GenerateTrip(time_of_day, &rng);
      if (trip.ok()) group.push_back(trip->raw);
    }
    return group;
  }

  const TestWorld& world_;
};

TEST_F(GroupSummarizerTest, ProducesAggregateAndText) {
  GroupSummarizer group_summarizer(world_.maker.get());
  std::vector<RawTrajectory> group = MakeGroup(8.5 * 3600, 20, 1);
  auto result = group_summarizer.Summarize(group);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->num_trajectories, 15u);
  EXPECT_EQ(result->feature_frequency.size(),
            world_.maker->registry().size());
  EXPECT_GT(result->mean_speed_kmh, 5.0);
  EXPECT_LT(result->mean_speed_kmh, 120.0);
  EXPECT_FALSE(result->text.empty());
  EXPECT_NE(result->text.find("Among"), std::string::npos);
}

TEST_F(GroupSummarizerTest, RushHourGroupSlowerThanNightGroup) {
  GroupSummarizer group_summarizer(world_.maker.get());
  auto rush = group_summarizer.Summarize(MakeGroup(8.0 * 3600, 25, 2));
  auto night = group_summarizer.Summarize(MakeGroup(2.0 * 3600, 25, 3));
  ASSERT_TRUE(rush.ok());
  ASSERT_TRUE(night.ok());
  EXPECT_LT(rush->mean_speed_kmh, night->mean_speed_kmh);
  EXPECT_GE(rush->slower_than_usual_share, night->slower_than_usual_share);
}

TEST_F(GroupSummarizerTest, EmptyGroupFails) {
  GroupSummarizer group_summarizer(world_.maker.get());
  EXPECT_EQ(group_summarizer.Summarize({}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(GroupSummarizerTest, AllGarbageGroupFails) {
  GroupSummarizer group_summarizer(world_.maker.get());
  RawTrajectory garbage;
  garbage.samples = {{{1e7, 1e7}, 0}, {{1e7 + 10, 1e7}, 10}};
  auto result = group_summarizer.Summarize({garbage, garbage});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(GroupSummarizerTest, PartialFailuresAreCounted) {
  GroupSummarizer group_summarizer(world_.maker.get());
  std::vector<RawTrajectory> group = MakeGroup(12 * 3600, 5, 4);
  RawTrajectory garbage;
  garbage.samples = {{{1e7, 1e7}, 0}, {{1e7 + 10, 1e7}, 10}};
  group.push_back(garbage);
  auto result = group_summarizer.Summarize(group);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_trajectories, 5u);
  EXPECT_EQ(result->num_failed, 1u);
}

// --------------------------------------------------------------------------
// SummaryIndex
// --------------------------------------------------------------------------

Summary MakeIndexedSummary(std::vector<LandmarkId> landmarks,
                           std::vector<size_t> features,
                           const std::string& text) {
  Summary summary;
  for (LandmarkId lm : landmarks) {
    summary.symbolic.samples.push_back({lm, 0.0});
  }
  PartitionSummary p;
  for (size_t f : features) {
    SelectedFeature sel;
    sel.feature = f;
    p.selected.push_back(sel);
  }
  summary.partitions.push_back(std::move(p));
  summary.text = text;
  return summary;
}

TEST(SummaryIndexTest, FeatureQueries) {
  SummaryIndex index;
  index.Add(MakeIndexedSummary({1, 2, 3}, {kSpeedFeature}, "fast trip"));
  index.Add(MakeIndexedSummary({3, 4}, {kUTurnsFeature}, "u-turn trip"));
  index.Add(MakeIndexedSummary({5}, {kSpeedFeature, kUTurnsFeature},
                               "both"));
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(index.WithFeature(kSpeedFeature),
            (std::vector<SummaryIndex::DocId>{0, 2}));
  EXPECT_EQ(index.WithFeature(kUTurnsFeature),
            (std::vector<SummaryIndex::DocId>{1, 2}));
  EXPECT_TRUE(index.WithFeature(kStayPointsFeature).empty());
}

TEST(SummaryIndexTest, TextSearchIsCaseInsensitive) {
  SummaryIndex index;
  index.Add(MakeIndexedSummary({1}, {}, "The car moved along Suzhou Road"));
  index.Add(MakeIndexedSummary({2}, {}, "smooth sailing"));
  EXPECT_EQ(index.ContainingText("suzhou"),
            (std::vector<SummaryIndex::DocId>{0}));
  EXPECT_EQ(index.ContainingText("SMOOTH"),
            (std::vector<SummaryIndex::DocId>{1}));
  EXPECT_EQ(index.ContainingText("").size(), 2u);
  EXPECT_TRUE(index.ContainingText("zebra").empty());
}

TEST(SummaryIndexTest, BooleanComposition) {
  std::vector<SummaryIndex::DocId> a = {0, 2, 4, 6};
  std::vector<SummaryIndex::DocId> b = {1, 2, 3, 4};
  EXPECT_EQ(SummaryIndex::And(a, b),
            (std::vector<SummaryIndex::DocId>{2, 4}));
  EXPECT_TRUE(SummaryIndex::And(a, {}).empty());
}

TEST(SummaryIndexTest, EndToEndSemanticQuery) {
  // "Find trips that stopped and had unusual speed" over real summaries.
  const auto& world = GetTestWorld();
  SummaryIndex index;
  Random rng(11);
  int added = 0;
  while (added < 60) {
    double start = world.generator->SampleStartTimeOfDay(&rng);
    auto trip = world.generator->GenerateTrip(start, &rng);
    if (!trip.ok()) continue;
    auto summary = world.maker->Summarize(trip->raw);
    if (!summary.ok()) continue;
    index.Add(std::move(summary).value());
    ++added;
  }
  // Query composition is self-consistent with a linear scan.
  std::vector<SummaryIndex::DocId> with_speed =
      index.WithFeature(kSpeedFeature);
  for (SummaryIndex::DocId id = 0; id < index.size(); ++id) {
    bool expected = index.summary(id).ContainsFeature(kSpeedFeature);
    bool found = std::find(with_speed.begin(), with_speed.end(), id) !=
                 with_speed.end();
    EXPECT_EQ(found, expected) << "doc " << id;
  }
  // And() restricts to exactly the summaries a linear scan finds.
  std::vector<SummaryIndex::DocId> both = SummaryIndex::And(
      index.WithFeature(kStayPointsFeature), with_speed);
  std::vector<SummaryIndex::DocId> scanned;
  for (SummaryIndex::DocId id = 0; id < index.size(); ++id) {
    if (index.summary(id).ContainsFeature(kSpeedFeature) &&
        index.summary(id).ContainsFeature(kStayPointsFeature)) {
      scanned.push_back(id);
    }
  }
  EXPECT_EQ(both, scanned);
}


// --------------------------------------------------------------------------
// Summary clustering (Sec. VI-C)
// --------------------------------------------------------------------------

Summary WithText(const std::string& text) {
  Summary s;
  s.text = text;
  return s;
}

TEST(SummaryClusteringTest, DistanceProperties) {
  Summary a = WithText("The car moved slower than usual");
  Summary b = WithText("The car moved slower than usual");
  Summary c = WithText("completely different words entirely");
  EXPECT_DOUBLE_EQ(SummaryTextDistance(a, b), 0.0);
  EXPECT_DOUBLE_EQ(SummaryTextDistance(a, a), 0.0);
  EXPECT_GT(SummaryTextDistance(a, c), 0.9);
  EXPECT_DOUBLE_EQ(SummaryTextDistance(a, c), SummaryTextDistance(c, a));
  EXPECT_DOUBLE_EQ(SummaryTextDistance(WithText(""), WithText("")), 0.0);
}

TEST(SummaryClusteringTest, NumbersAreIgnored) {
  Summary a = WithText("with the speed of 30 km/h which was 14 km/h slower");
  Summary b = WithText("with the speed of 55 km/h which was 20 km/h slower");
  EXPECT_DOUBLE_EQ(SummaryTextDistance(a, b), 0.0);
}

TEST(SummaryClusteringTest, GroupsByPattern) {
  std::vector<Summary> corpus = {
      WithText("The car moved from A to B slower than usual"),
      WithText("The car moved from A to B slower than usual"),
      WithText("Then it conducted one U-turn at Zhichun Road junction"),
      WithText("The car moved from A to B slower than usual"),
      WithText("Then it conducted one U-turn at Suzhou Road junction"),
  };
  std::vector<SummaryCluster> clusters =
      ClusterSummaries(corpus, {.distance_threshold = 0.4});
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0].members, (std::vector<size_t>{0, 1, 3}));
  EXPECT_EQ(clusters[1].members, (std::vector<size_t>{2, 4}));
  // Representatives are members.
  for (const SummaryCluster& c : clusters) {
    EXPECT_NE(std::find(c.members.begin(), c.members.end(),
                        c.representative),
              c.members.end());
  }
}

TEST(SummaryClusteringTest, EveryInputInExactlyOneCluster) {
  const auto& world = GetTestWorld();
  std::vector<Summary> corpus;
  Random rng(21);
  while (corpus.size() < 50) {
    double start = world.generator->SampleStartTimeOfDay(&rng);
    auto trip = world.generator->GenerateTrip(start, &rng);
    if (!trip.ok()) continue;
    auto summary = world.maker->Summarize(trip->raw);
    if (!summary.ok()) continue;
    corpus.push_back(std::move(summary).value());
  }
  std::vector<SummaryCluster> clusters = ClusterSummaries(corpus);
  std::vector<int> seen(corpus.size(), 0);
  for (const SummaryCluster& c : clusters) {
    for (size_t m : c.members) {
      ASSERT_LT(m, corpus.size());
      seen[m]++;
    }
  }
  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "summary " << i;
  }
  EXPECT_LT(clusters.size(), corpus.size()) << "some grouping must occur";
}

TEST(SummaryClusteringTest, ZeroThresholdIsExactTextGrouping) {
  std::vector<Summary> corpus = {WithText("alpha beta"),
                                 WithText("alpha beta"),
                                 WithText("gamma delta")};
  std::vector<SummaryCluster> clusters =
      ClusterSummaries(corpus, {.distance_threshold = 0.0});
  EXPECT_EQ(clusters.size(), 2u);
}

}  // namespace
}  // namespace stmaker
