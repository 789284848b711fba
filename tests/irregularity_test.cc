#include <gtest/gtest.h>

#include "core/feature.h"
#include "core/historical_feature_map.h"
#include "core/irregularity.h"
#include "core/popular_route.h"

namespace stmaker {
namespace {

// --------------------------------------------------------------------------
// HistoricalFeatureMap
// --------------------------------------------------------------------------

using EdgeRecords = std::vector<HistoricalFeatureMap::EdgeRecord>;

TEST(FeatureMapTest, AveragesAccumulate) {
  HistoricalFeatureMap map(2, EdgeRecords{{1, 2, {10, 1}, 1},
                                          {1, 2, {20, 3}, 1}});
  HistoricalFeatureMap::Row avg = map.Lookup(1, 2);
  EXPECT_DOUBLE_EQ(avg[0], 15.0);
  EXPECT_DOUBLE_EQ(avg[1], 2.0);
  EXPECT_EQ(map.NumEdges(), 1u);
}

TEST(FeatureMapTest, DirectionalEdges) {
  HistoricalFeatureMap map(1, EdgeRecords{{1, 2, {10}, 1}, {3, 4, {30}, 1}});
  EXPECT_DOUBLE_EQ(map.Lookup(1, 2)[0], 10.0);
  EXPECT_DOUBLE_EQ(map.Lookup(2, 1)[0], 20.0);  // unseen: global average
}

TEST(FeatureMapTest, MissingEdgeReadsTheGlobalAverage) {
  HistoricalFeatureMap map(2, EdgeRecords{{1, 2, {10, 1}, 1},
                                          {3, 4, {30, 2}, 1}});
  HistoricalFeatureMap::Row missing = map.Lookup(5, 6);
  for (size_t f = 0; f < 2; ++f) {
    EXPECT_EQ(missing[f], map.GlobalAverage(f));
  }
}

TEST(FeatureMapTest, EmptyMapReadsZeros) {
  HistoricalFeatureMap map(3);
  HistoricalFeatureMap::Row missing = map.Lookup(5, 6);
  for (size_t f = 0; f < 3; ++f) EXPECT_EQ(missing[f], 0.0);
}

TEST(FeatureMapTest, LookupDividesTheEdgeSums) {
  // A row divides the edge's sums when read: bit-identical to the average
  // of its records.
  HistoricalFeatureMap two(1, EdgeRecords{{1, 2, {0.1}, 1},
                                          {1, 2, {0.2}, 1}});
  EXPECT_EQ(two.Lookup(1, 2)[0], (0.1 + 0.2) / 2.0);
  HistoricalFeatureMap three(1, EdgeRecords{{1, 2, {0.1}, 1},
                                            {1, 2, {0.2}, 1},
                                            {1, 2, {0.4}, 1}});
  EXPECT_EQ(three.Lookup(1, 2)[0], (0.1 + 0.2 + 0.4) / 3.0);
}

TEST(FeatureMapTest, GlobalAverageSpansAllEdges) {
  HistoricalFeatureMap map(1, EdgeRecords{{1, 2, {10}, 1}, {3, 4, {30}, 1}});
  EXPECT_DOUBLE_EQ(map.GlobalAverage(0), 20.0);
}

TEST(FeatureMapTest, GlobalRowSumsEdgeTotalsInFirstSeenOrder) {
  // Records a, b, c on edges e1, e2, e1: the global sum is (a + c) + b,
  // grouped by edge, as a map rebuilt from Edges() computes it. Record
  // order would give (a + b) + c = 0, since 1e16 + 1 rounds to 1e16.
  HistoricalFeatureMap map(1, EdgeRecords{{1, 2, {1e16}, 1},
                                          {3, 4, {1}, 1},
                                          {1, 2, {-1e16}, 1}});
  EXPECT_EQ(map.GlobalAverage(0), 1.0 / 3.0);
  HistoricalFeatureMap rebuilt(1, map.Edges());
  EXPECT_EQ(rebuilt.GlobalAverage(0), map.GlobalAverage(0));
}

TEST(FeatureMapTest, GlobalAverageEmptyMapIsZero) {
  HistoricalFeatureMap map(3);
  EXPECT_DOUBLE_EQ(map.GlobalAverage(1), 0.0);
}

// --------------------------------------------------------------------------
// FeatureSequenceEditDistance (Sec. V-A)
// --------------------------------------------------------------------------

TEST(EditDistanceTest, EmptySequences) {
  EXPECT_DOUBLE_EQ(
      FeatureSequenceEditDistance({}, {}, FeatureValueType::kNumeric), 0.0);
  EXPECT_DOUBLE_EQ(FeatureSequenceEditDistance({1, 2, 3}, {},
                                               FeatureValueType::kNumeric),
                   3.0);
  EXPECT_DOUBLE_EQ(FeatureSequenceEditDistance({}, {1, 2},
                                               FeatureValueType::kCategorical),
                   2.0);
}

TEST(EditDistanceTest, IdenticalSequencesAreZero) {
  std::vector<double> seq = {1, 3, 3, 7};
  EXPECT_DOUBLE_EQ(
      FeatureSequenceEditDistance(seq, seq, FeatureValueType::kNumeric), 0.0);
  EXPECT_DOUBLE_EQ(FeatureSequenceEditDistance(seq, seq,
                                               FeatureValueType::kCategorical),
                   0.0);
}

TEST(EditDistanceTest, CategoricalSubstitutionCostsOne) {
  EXPECT_DOUBLE_EQ(FeatureSequenceEditDistance({1, 2, 3}, {1, 5, 3},
                                               FeatureValueType::kCategorical),
                   1.0);
}

TEST(EditDistanceTest, CategoricalMatchesClassicLevenshtein) {
  // "kitten" → "sitting" = 3 with unit costs.
  std::vector<double> kitten = {'k', 'i', 't', 't', 'e', 'n'};
  std::vector<double> sitting = {'s', 'i', 't', 't', 'i', 'n', 'g'};
  EXPECT_DOUBLE_EQ(FeatureSequenceEditDistance(kitten, sitting,
                                               FeatureValueType::kCategorical),
                   3.0);
}

TEST(EditDistanceTest, NumericSubstitutionScalesWithDifference) {
  // Sequences {10} vs {5}: shared max 10 → cost 0.5.
  EXPECT_DOUBLE_EQ(FeatureSequenceEditDistance({10}, {5},
                                               FeatureValueType::kNumeric),
                   0.5);
  // Closer values cost less.
  EXPECT_LT(FeatureSequenceEditDistance({10}, {9},
                                        FeatureValueType::kNumeric),
            FeatureSequenceEditDistance({10}, {5},
                                        FeatureValueType::kNumeric));
}

TEST(EditDistanceTest, SymmetricForBothTypes) {
  std::vector<double> a = {1, 4, 2, 2};
  std::vector<double> b = {4, 4, 1};
  EXPECT_DOUBLE_EQ(
      FeatureSequenceEditDistance(a, b, FeatureValueType::kNumeric),
      FeatureSequenceEditDistance(b, a, FeatureValueType::kNumeric));
  EXPECT_DOUBLE_EQ(
      FeatureSequenceEditDistance(a, b, FeatureValueType::kCategorical),
      FeatureSequenceEditDistance(b, a, FeatureValueType::kCategorical));
}

TEST(EditDistanceTest, BoundedByMaxLength) {
  std::vector<double> a = {1, 2, 3, 4, 5};
  std::vector<double> b = {9, 9};
  double d = FeatureSequenceEditDistance(a, b, FeatureValueType::kCategorical);
  EXPECT_LE(d, 5.0);
  EXPECT_GE(d, 3.0);  // at least the length difference
}

TEST(EditDistanceTest, InsertionCheaperThanFullSubstitution) {
  // {1,2,3} vs {1,3}: delete the 2 → cost 1 (categorical).
  EXPECT_DOUBLE_EQ(FeatureSequenceEditDistance({1, 2, 3}, {1, 3},
                                               FeatureValueType::kCategorical),
                   1.0);
}

// --------------------------------------------------------------------------
// IrregularityAnalyzer
// --------------------------------------------------------------------------

// A hand-built two-segment world: landmarks 0→1→2, with history showing
// grade 3 / width 20 / two-way / 50 km/h / 0 stays / 0 u-turns on both hops.
class IrregularityTest : public ::testing::Test {
 protected:
  IrregularityTest()
      : registry_(FeatureRegistry::BuiltIn()),
        miner_(HistoryTransitions()),
        map_(registry_.size(), HistoryEdges()) {
    symbolic_.samples = {{0, 0.0}, {1, 60.0}, {2, 120.0}};
  }

  // History: ten identical trips 0→1→2.
  static std::vector<PopularRouteMiner::Transition> HistoryTransitions() {
    std::vector<PopularRouteMiner::Transition> out;
    for (int i = 0; i < 10; ++i) {
      out.push_back({0, 1, 1.0});
      out.push_back({1, 2, 1.0});
    }
    return out;
  }
  static EdgeRecords HistoryEdges() {
    EdgeRecords out;
    for (int i = 0; i < 10; ++i) {
      out.push_back({0, 1, {3, 20, 1, 50, 0, 0}, 1});
      out.push_back({1, 2, {3, 20, 1, 50, 0, 0}, 1});
    }
    return out;
  }

  std::vector<SegmentFeatures> SegmentsWith(
      std::vector<std::vector<double>> values) {
    std::vector<SegmentFeatures> out;
    for (auto& v : values) {
      SegmentFeatures sf;
      sf.values = std::move(v);
      sf.length_m = 1000;
      sf.duration_s = 72;
      out.push_back(std::move(sf));
    }
    return out;
  }

  FeatureRegistry registry_;
  PopularRouteMiner miner_;
  HistoricalFeatureMap map_;
  SymbolicTrajectory symbolic_;
};

TEST_F(IrregularityTest, RegularTripHasLowRates) {
  IrregularityAnalyzer analyzer(&registry_, &miner_, &map_);
  auto segs = SegmentsWith({{3, 20, 1, 50, 0, 0}, {3, 20, 1, 50, 0, 0}});
  std::vector<double> rates =
      analyzer.IrregularRates(symbolic_, segs, 0, 2).rates;
  ASSERT_EQ(rates.size(), registry_.size());
  for (size_t f = 0; f < rates.size(); ++f) {
    EXPECT_LT(rates[f], 0.05) << registry_.def(f).id;
  }
}

TEST_F(IrregularityTest, SlowSpeedRaisesSpeedRateOnly) {
  IrregularityAnalyzer analyzer(&registry_, &miner_, &map_);
  auto segs = SegmentsWith({{3, 20, 1, 25, 0, 0}, {3, 20, 1, 25, 0, 0}});
  std::vector<double> rates =
      analyzer.IrregularRates(symbolic_, segs, 0, 2).rates;
  EXPECT_GT(rates[kSpeedFeature], 0.2);
  EXPECT_LT(rates[kGradeOfRoadFeature], 0.05);
  EXPECT_LT(rates[kStayPointsFeature], 0.05);
}

TEST_F(IrregularityTest, StaysRaiseStayRate) {
  IrregularityAnalyzer analyzer(&registry_, &miner_, &map_);
  auto segs = SegmentsWith({{3, 20, 1, 50, 2, 0}, {3, 20, 1, 50, 0, 0}});
  std::vector<double> rates =
      analyzer.IrregularRates(symbolic_, segs, 0, 2).rates;
  EXPECT_GT(rates[kStayPointsFeature], 0.2);
}

TEST_F(IrregularityTest, DifferentRoadGradeRaisesRoutingRate) {
  IrregularityAnalyzer analyzer(&registry_, &miner_, &map_);
  // Took feeder roads (grade 7) instead of the historical grade 3.
  auto segs = SegmentsWith({{7, 20, 1, 50, 0, 0}, {7, 20, 1, 50, 0, 0}});
  std::vector<double> rates =
      analyzer.IrregularRates(symbolic_, segs, 0, 2).rates;
  EXPECT_GT(rates[kGradeOfRoadFeature], 0.5);
}

TEST_F(IrregularityTest, FeatureWeightScalesRate) {
  ASSERT_TRUE(registry_.SetWeight("speed", 3.0).ok());
  IrregularityAnalyzer analyzer(&registry_, &miner_, &map_);
  auto segs = SegmentsWith({{3, 20, 1, 25, 0, 0}, {3, 20, 1, 25, 0, 0}});
  std::vector<double> heavy =
      analyzer.IrregularRates(symbolic_, segs, 0, 2).rates;
  ASSERT_TRUE(registry_.SetWeight("speed", 1.0).ok());
  std::vector<double> base =
      analyzer.IrregularRates(symbolic_, segs, 0, 2).rates;
  EXPECT_NEAR(heavy[kSpeedFeature], 3.0 * base[kSpeedFeature], 1e-9);
}

TEST_F(IrregularityTest, NoPopularRouteMakesRoutingMaximallyIrregular) {
  IrregularityAnalyzer analyzer(&registry_, &miner_, &map_);
  // A partition between landmarks never connected in the history: symbolic
  // trajectory 2 → 0 (reverse direction, no transitions mined).
  SymbolicTrajectory reversed;
  reversed.samples = {{2, 0.0}, {0, 60.0}};
  auto segs = SegmentsWith({{3, 20, 1, 50, 0, 0}});
  std::vector<double> rates =
      analyzer.IrregularRates(reversed, segs, 0, 1).rates;
  EXPECT_DOUBLE_EQ(rates[kGradeOfRoadFeature], 1.0);  // w_f * d/len = 1
  EXPECT_DOUBLE_EQ(rates[kRoadWidthFeature], 1.0);
}

TEST_F(IrregularityTest, SubPartitionUsesItsOwnPopularRoute) {
  IrregularityAnalyzer analyzer(&registry_, &miner_, &map_);
  auto segs = SegmentsWith({{3, 20, 1, 50, 0, 0}, {3, 20, 1, 50, 0, 0}});
  // Only the first segment.
  std::vector<double> rates =
      analyzer.IrregularRates(symbolic_, segs, 0, 1).rates;
  for (size_t f = 0; f < rates.size(); ++f) {
    EXPECT_LT(rates[f], 0.05);
  }
}

TEST_F(IrregularityTest, ComparisonReturnsTheRowsItRead) {
  IrregularityAnalyzer analyzer(&registry_, &miner_, &map_);
  auto segs = SegmentsWith({{3, 20, 1, 40, 0, 0}, {3, 20, 1, 40, 0, 0}});
  PartitionComparison cmp = analyzer.IrregularRates(symbolic_, segs, 0, 2);
  // One row per segment, one per popular-route edge (0 → 1 → 2).
  ASSERT_EQ(cmp.segment_rows.size(), 2u);
  ASSERT_EQ(cmp.route_rows.size(), 2u);
  EXPECT_EQ(cmp.segment_rows[0].sums, map_.Lookup(0, 1).sums);
  EXPECT_EQ(cmp.segment_rows[1].sums, map_.Lookup(1, 2).sums);
  EXPECT_EQ(cmp.route_rows[0].sums, map_.Lookup(0, 1).sums);
  EXPECT_EQ(cmp.route_rows[1].sums, map_.Lookup(1, 2).sums);
  EXPECT_DOUBLE_EQ(cmp.segment_rows[0][kSpeedFeature], 50.0);
  ASSERT_EQ(cmp.baselines.size(), registry_.size());
  for (BaselineStatus b : cmp.baselines) {
    EXPECT_EQ(b, BaselineStatus::kHistorical);
  }
}

TEST_F(IrregularityTest, UnseenSegmentReadsTheGlobalAverage) {
  IrregularityAnalyzer analyzer(&registry_, &miner_, &map_);
  SymbolicTrajectory unknown;
  unknown.samples = {{7, 0.0}, {8, 60.0}};
  auto segs = SegmentsWith({{3, 20, 1, 50, 0, 0}});
  PartitionComparison cmp = analyzer.IrregularRates(unknown, segs, 0, 1);
  ASSERT_EQ(cmp.segment_rows.size(), 1u);
  EXPECT_DOUBLE_EQ(cmp.segment_rows[0][kSpeedFeature], 50.0);  // global
  EXPECT_TRUE(cmp.route_rows.empty());  // 7 → 8 has no popular route
}

}  // namespace
}  // namespace stmaker
