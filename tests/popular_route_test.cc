#include <gtest/gtest.h>

#include "core/popular_route.h"

namespace stmaker {
namespace {

using Transitions = std::vector<PopularRouteMiner::Transition>;

/// Appends the transitions of `times` trips along `landmarks` as Train
/// lists them: one count-1 transition per consecutive pair, in order.
void AddTrips(Transitions* history, const std::vector<LandmarkId>& landmarks,
              int times = 1) {
  for (int t = 0; t < times; ++t) {
    for (size_t i = 0; i + 1 < landmarks.size(); ++i) {
      history->push_back({landmarks[i], landmarks[i + 1], 1.0});
    }
  }
}

/// The mined count of (a → b), 0 when the pair was never mined.
double TransitionCount(const PopularRouteMiner& miner, LandmarkId a,
                       LandmarkId b) {
  for (const PopularRouteMiner::Transition& t : miner.Transitions()) {
    if (t.from == a && t.to == b) return t.count;
  }
  return 0;
}

TEST(PopularRouteTest, CountsTransitions) {
  Transitions history;
  AddTrips(&history, {1, 2, 3});
  AddTrips(&history, {1, 2, 4});
  PopularRouteMiner miner(history);
  EXPECT_DOUBLE_EQ(TransitionCount(miner, 1, 2), 2.0);
  EXPECT_DOUBLE_EQ(TransitionCount(miner, 2, 3), 1.0);
  EXPECT_DOUBLE_EQ(TransitionCount(miner, 2, 4), 1.0);
  EXPECT_DOUBLE_EQ(TransitionCount(miner, 3, 1), 0.0);
  EXPECT_EQ(miner.NumTransitions(), 3u);
}

TEST(PopularRouteTest, SelfTransitionsIgnored) {
  Transitions history;
  AddTrips(&history, {1, 1, 2});
  PopularRouteMiner miner(history);
  EXPECT_DOUBLE_EQ(TransitionCount(miner, 1, 1), 0.0);
  EXPECT_DOUBLE_EQ(TransitionCount(miner, 1, 2), 1.0);
}

TEST(PopularRouteTest, DirectRouteFound) {
  Transitions history;
  AddTrips(&history, {1, 2, 3});
  PopularRouteMiner miner(history);
  auto route = miner.PopularRoute(1, 3);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(*route, (std::vector<LandmarkId>{1, 2, 3}));
}

TEST(PopularRouteTest, PrefersFrequentPath) {
  // 1→3 via 2 travelled 10 times; via 4 travelled once.
  Transitions history;
  AddTrips(&history, {1, 2, 3}, 10);
  AddTrips(&history, {1, 4, 3});
  PopularRouteMiner miner(history);
  auto route = miner.PopularRoute(1, 3);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(*route, (std::vector<LandmarkId>{1, 2, 3}));
}

TEST(PopularRouteTest, FrequentDirectEdgeBeatsLongChain) {
  // A heavily travelled direct hop should beat a detour of rare hops.
  Transitions history;
  AddTrips(&history, {1, 3}, 20);
  AddTrips(&history, {1, 2});
  AddTrips(&history, {2, 3});
  PopularRouteMiner miner(history);
  auto route = miner.PopularRoute(1, 3);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(*route, (std::vector<LandmarkId>{1, 3}));
}

TEST(PopularRouteTest, MultiHopRouteAssembledFromDifferentTrajectories) {
  Transitions history;
  AddTrips(&history, {1, 2});
  AddTrips(&history, {2, 3});
  AddTrips(&history, {3, 4});
  PopularRouteMiner miner(history);
  auto route = miner.PopularRoute(1, 4);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(*route, (std::vector<LandmarkId>{1, 2, 3, 4}));
}

TEST(PopularRouteTest, SameSourceAndDestination) {
  Transitions history;
  AddTrips(&history, {1, 2});
  PopularRouteMiner miner(history);
  auto route = miner.PopularRoute(1, 1);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(*route, std::vector<LandmarkId>{1});
}

TEST(PopularRouteTest, UnreachableReturnsNotFound) {
  Transitions history;
  AddTrips(&history, {1, 2});
  AddTrips(&history, {3, 4});
  PopularRouteMiner miner(history);
  auto route = miner.PopularRoute(1, 4);
  ASSERT_FALSE(route.ok());
  EXPECT_EQ(route.status().code(), StatusCode::kNotFound);
}

TEST(PopularRouteTest, UnknownSourceReturnsNotFound) {
  Transitions history;
  AddTrips(&history, {1, 2});
  PopularRouteMiner miner(history);
  EXPECT_FALSE(miner.PopularRoute(99, 2).ok());
}

TEST(PopularRouteTest, RespectsTransitionDirection) {
  Transitions history;
  AddTrips(&history, {1, 2});
  PopularRouteMiner miner(history);
  EXPECT_TRUE(miner.PopularRoute(1, 2).ok());
  EXPECT_FALSE(miner.PopularRoute(2, 1).ok());
}


TEST(PopularRouteTest, TransferProbabilityBeatsBusyCorridorFrankenroute) {
  // Direct chain 1→2→3 travelled 20 times end to end; a busy unrelated
  // corridor 1→9→3 exists where 1→9 is hugely popular (but as part of
  // other journeys) and 9→3 is rare. Raw-count mining would chain the busy
  // fragments; transfer probabilities must keep the real route.
  Transitions history;
  AddTrips(&history, {1, 2, 3}, 20);
  AddTrips(&history, {1, 9, 8}, 200);
  AddTrips(&history, {9, 3});
  PopularRouteMiner miner(history);
  auto route = miner.PopularRoute(1, 3);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(*route, (std::vector<LandmarkId>{1, 2, 3}));
}

TEST(PopularRouteTest, RareSkipTransitionIsPruned) {
  // 1→2→3→4 travelled 50 times; a single trip recorded the skip 1→3
  // directly (anchor-granularity artifact). The popular route must follow
  // the chain, not the one-off shortcut.
  Transitions history;
  AddTrips(&history, {1, 2, 3, 4}, 50);
  AddTrips(&history, {1, 3});
  PopularRouteMiner miner(history);
  auto route = miner.PopularRoute(1, 4);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(*route, (std::vector<LandmarkId>{1, 2, 3, 4}));
}

TEST(PopularRouteTest, PrunedGraphFallsBackWhenDisconnected) {
  // The ONLY way from 1 to 3 is a transition that pruning would drop
  // (1→3 is rare next to the dominant 1→2). The query must still succeed
  // via the unpruned fallback.
  Transitions history;
  AddTrips(&history, {1, 2}, 50);
  AddTrips(&history, {1, 3});
  PopularRouteMiner miner(history);
  auto route = miner.PopularRoute(1, 3);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(*route, (std::vector<LandmarkId>{1, 3}));
}

TEST(PopularRouteTest, EmptyMinerHasNoRoutes) {
  PopularRouteMiner miner;
  EXPECT_EQ(miner.NumTransitions(), 0u);
  EXPECT_FALSE(miner.PopularRoute(1, 2).ok());
}

TEST(PopularRouteTest, NumTransitionsCountsDistinctPairs) {
  const Transitions records = {
      {2, 1, 1.0},
      {1, 2, 1.0},  // the reverse is its own pair
      {1, 2, 4.0},  // same pair: count grows, not size
      {3, 3, 5.0},  // self-loop: ignored
      {3, 4, 0.0},  // non-positive count: ignored
  };
  PopularRouteMiner miner(records);
  EXPECT_EQ(miner.NumTransitions(), 2u);
  const Transitions mined = miner.Transitions();
  ASSERT_EQ(mined.size(), 2u);  // one per distinct pair, first-mined order
  EXPECT_EQ(mined[0].from, 2);
  EXPECT_EQ(mined[0].to, 1);
  EXPECT_EQ(mined[0].count, 1.0);
  EXPECT_EQ(mined[1].from, 1);
  EXPECT_EQ(mined[1].to, 2);
  EXPECT_EQ(mined[1].count, 5.0);

  // Later records add only the pairs the earlier ones lack.
  Transitions more = records;
  more.push_back({1, 2, 2.0});
  more.push_back({2, 3, 1.0});
  more.push_back({4, 1, 1.0});
  PopularRouteMiner bigger(more);
  EXPECT_EQ(bigger.NumTransitions(), 4u);
  EXPECT_EQ(bigger.NumTransitions(), bigger.Transitions().size());
  EXPECT_DOUBLE_EQ(TransitionCount(bigger, 1, 2), 7.0);
}

}  // namespace
}  // namespace stmaker
