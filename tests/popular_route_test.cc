#include <gtest/gtest.h>

#include "core/popular_route.h"

namespace stmaker {
namespace {

SymbolicTrajectory Traj(std::vector<LandmarkId> landmarks) {
  SymbolicTrajectory t;
  double time = 0;
  for (LandmarkId id : landmarks) {
    t.samples.push_back({id, time});
    time += 60;
  }
  return t;
}

TEST(PopularRouteTest, CountsTransitions) {
  PopularRouteMiner miner;
  miner.AddTrajectory(Traj({1, 2, 3}));
  miner.AddTrajectory(Traj({1, 2, 4}));
  EXPECT_DOUBLE_EQ(miner.TransitionCount(1, 2), 2.0);
  EXPECT_DOUBLE_EQ(miner.TransitionCount(2, 3), 1.0);
  EXPECT_DOUBLE_EQ(miner.TransitionCount(2, 4), 1.0);
  EXPECT_DOUBLE_EQ(miner.TransitionCount(3, 1), 0.0);
  EXPECT_EQ(miner.NumTransitions(), 3u);
}

TEST(PopularRouteTest, SelfTransitionsIgnored) {
  PopularRouteMiner miner;
  miner.AddTrajectory(Traj({1, 1, 2}));
  EXPECT_DOUBLE_EQ(miner.TransitionCount(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(miner.TransitionCount(1, 2), 1.0);
}

TEST(PopularRouteTest, DirectRouteFound) {
  PopularRouteMiner miner;
  miner.AddTrajectory(Traj({1, 2, 3}));
  auto route = miner.PopularRoute(1, 3);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(*route, (std::vector<LandmarkId>{1, 2, 3}));
}

TEST(PopularRouteTest, PrefersFrequentPath) {
  // 1→3 via 2 travelled 10 times; via 4 travelled once.
  PopularRouteMiner miner;
  for (int i = 0; i < 10; ++i) miner.AddTrajectory(Traj({1, 2, 3}));
  miner.AddTrajectory(Traj({1, 4, 3}));
  auto route = miner.PopularRoute(1, 3);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(*route, (std::vector<LandmarkId>{1, 2, 3}));
}

TEST(PopularRouteTest, FrequentDirectEdgeBeatsLongChain) {
  // A heavily travelled direct hop should beat a detour of rare hops.
  PopularRouteMiner miner;
  for (int i = 0; i < 20; ++i) miner.AddTrajectory(Traj({1, 3}));
  miner.AddTrajectory(Traj({1, 2}));
  miner.AddTrajectory(Traj({2, 3}));
  auto route = miner.PopularRoute(1, 3);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(*route, (std::vector<LandmarkId>{1, 3}));
}

TEST(PopularRouteTest, MultiHopRouteAssembledFromDifferentTrajectories) {
  PopularRouteMiner miner;
  miner.AddTrajectory(Traj({1, 2}));
  miner.AddTrajectory(Traj({2, 3}));
  miner.AddTrajectory(Traj({3, 4}));
  auto route = miner.PopularRoute(1, 4);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(*route, (std::vector<LandmarkId>{1, 2, 3, 4}));
}

TEST(PopularRouteTest, SameSourceAndDestination) {
  PopularRouteMiner miner;
  miner.AddTrajectory(Traj({1, 2}));
  auto route = miner.PopularRoute(1, 1);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(*route, std::vector<LandmarkId>{1});
}

TEST(PopularRouteTest, UnreachableReturnsNotFound) {
  PopularRouteMiner miner;
  miner.AddTrajectory(Traj({1, 2}));
  miner.AddTrajectory(Traj({3, 4}));
  auto route = miner.PopularRoute(1, 4);
  ASSERT_FALSE(route.ok());
  EXPECT_EQ(route.status().code(), StatusCode::kNotFound);
}

TEST(PopularRouteTest, UnknownSourceReturnsNotFound) {
  PopularRouteMiner miner;
  miner.AddTrajectory(Traj({1, 2}));
  EXPECT_FALSE(miner.PopularRoute(99, 2).ok());
}

TEST(PopularRouteTest, RespectsTransitionDirection) {
  PopularRouteMiner miner;
  miner.AddTrajectory(Traj({1, 2}));
  EXPECT_TRUE(miner.PopularRoute(1, 2).ok());
  EXPECT_FALSE(miner.PopularRoute(2, 1).ok());
}


TEST(PopularRouteTest, TransferProbabilityBeatsBusyCorridorFrankenroute) {
  // Direct chain 1→2→3 travelled 20 times end to end; a busy unrelated
  // corridor 1→9→3 exists where 1→9 is hugely popular (but as part of
  // other journeys) and 9→3 is rare. Raw-count mining would chain the busy
  // fragments; transfer probabilities must keep the real route.
  PopularRouteMiner miner;
  for (int i = 0; i < 20; ++i) miner.AddTrajectory(Traj({1, 2, 3}));
  for (int i = 0; i < 200; ++i) miner.AddTrajectory(Traj({1, 9, 8}));
  miner.AddTrajectory(Traj({9, 3}));
  auto route = miner.PopularRoute(1, 3);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(*route, (std::vector<LandmarkId>{1, 2, 3}));
}

TEST(PopularRouteTest, RareSkipTransitionIsPruned) {
  // 1→2→3→4 travelled 50 times; a single trip recorded the skip 1→3
  // directly (anchor-granularity artifact). The popular route must follow
  // the chain, not the one-off shortcut.
  PopularRouteMiner miner;
  for (int i = 0; i < 50; ++i) miner.AddTrajectory(Traj({1, 2, 3, 4}));
  miner.AddTrajectory(Traj({1, 3}));
  auto route = miner.PopularRoute(1, 4);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(*route, (std::vector<LandmarkId>{1, 2, 3, 4}));
}

TEST(PopularRouteTest, PrunedGraphFallsBackWhenDisconnected) {
  // The ONLY way from 1 to 3 is a transition that pruning would drop
  // (1→3 is rare next to the dominant 1→2). The query must still succeed
  // via the unpruned fallback.
  PopularRouteMiner miner;
  for (int i = 0; i < 50; ++i) miner.AddTrajectory(Traj({1, 2}));
  miner.AddTrajectory(Traj({1, 3}));
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
  PopularRouteMiner miner;
  miner.AddTransitionCount(1, 2, 1.0);
  miner.AddTransitionCount(1, 2, 4.0);  // same pair: count grows, not size
  miner.AddTransitionCount(2, 1, 1.0);  // the reverse is its own pair
  miner.AddTransitionCount(3, 3, 5.0);  // self-loop: ignored
  miner.AddTransitionCount(3, 4, 0.0);  // non-positive count: ignored
  EXPECT_EQ(miner.NumTransitions(), 2u);
  EXPECT_EQ(miner.NumTransitions(), miner.Transitions().size());
  EXPECT_DOUBLE_EQ(miner.TransitionCount(1, 2), 5.0);

  // Further counts add only the pairs this miner lacks.
  miner.AddTransitionCount(1, 2, 2.0);
  miner.AddTransitionCount(2, 3, 1.0);
  miner.AddTransitionCount(4, 1, 1.0);
  EXPECT_EQ(miner.NumTransitions(), 4u);
  EXPECT_EQ(miner.NumTransitions(), miner.Transitions().size());
  EXPECT_DOUBLE_EQ(miner.TransitionCount(1, 2), 7.0);

  // Move-assignment carries the count over and replaces the target's.
  PopularRouteMiner target;
  target.AddTransitionCount(7, 8, 1.0);
  target = std::move(miner);
  EXPECT_EQ(target.NumTransitions(), 4u);
  EXPECT_EQ(target.NumTransitions(), target.Transitions().size());
  PopularRouteMiner constructed(std::move(target));
  EXPECT_EQ(constructed.NumTransitions(), 4u);
  EXPECT_EQ(constructed.NumTransitions(), constructed.Transitions().size());
}

}  // namespace
}  // namespace stmaker
