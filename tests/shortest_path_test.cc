#include <gtest/gtest.h>

#include "common/random.h"
#include "roadnet/map_generator.h"
#include "roadnet/shortest_path.h"

namespace stmaker {
namespace {

RoadNetwork MakeDiamond() {
  // a → b → d (long) and a → c → d (short); plus a one-way shortcut d → a.
  RoadNetwork net;
  NodeId a = net.AddNode({0, 0});
  NodeId b = net.AddNode({0, 1000});
  NodeId c = net.AddNode({300, 0});
  NodeId d = net.AddNode({300, 1000});
  EXPECT_TRUE(net.AddEdge(a, b, RoadGrade::kCountryRoad, 10,
                          TrafficDirection::kTwoWay, "ab").ok());
  EXPECT_TRUE(net.AddEdge(b, d, RoadGrade::kCountryRoad, 10,
                          TrafficDirection::kTwoWay, "bd").ok());
  EXPECT_TRUE(net.AddEdge(a, c, RoadGrade::kCountryRoad, 10,
                          TrafficDirection::kTwoWay, "ac").ok());
  EXPECT_TRUE(net.AddEdge(c, d, RoadGrade::kCountryRoad, 10,
                          TrafficDirection::kTwoWay, "cd").ok());
  return net;
}

TEST(ShortestPathTest, PicksShorterBranch) {
  RoadNetwork net = MakeDiamond();
  ShortestPathRouter router(&net);
  auto path = router.Route(0, 3);
  ASSERT_TRUE(path.ok());
  // Via c: 300 + 1000 = 1300 < via b: 1000 + 300 = 1300 — equal actually;
  // make it strict: route 0 → 2 is 300, 2 → 3 is 1000.
  EXPECT_DOUBLE_EQ(path->cost, 1300.0);
  EXPECT_EQ(path->nodes.size(), path->edges.size() + 1);
  EXPECT_EQ(path->nodes.front(), 0);
  EXPECT_EQ(path->nodes.back(), 3);
}

TEST(ShortestPathTest, PathEdgesConnectNodes) {
  RoadNetwork net = MakeDiamond();
  ShortestPathRouter router(&net);
  auto path = router.Route(1, 2);
  ASSERT_TRUE(path.ok());
  for (size_t i = 0; i < path->edges.size(); ++i) {
    const RoadEdge& e = net.edge(path->edges[i]);
    NodeId u = path->nodes[i];
    NodeId v = path->nodes[i + 1];
    EXPECT_TRUE((e.from == u && e.to == v) || (e.from == v && e.to == u));
  }
}

TEST(ShortestPathTest, SameSourceAndDestination) {
  RoadNetwork net = MakeDiamond();
  ShortestPathRouter router(&net);
  auto path = router.Route(2, 2);
  ASSERT_TRUE(path.ok());
  EXPECT_DOUBLE_EQ(path->cost, 0.0);
  EXPECT_EQ(path->nodes, std::vector<NodeId>{2});
  EXPECT_TRUE(path->edges.empty());
}

TEST(ShortestPathTest, UnreachableReturnsNotFound) {
  RoadNetwork net;
  net.AddNode({0, 0});
  net.AddNode({100, 0});  // isolated
  ShortestPathRouter router(&net);
  auto path = router.Route(0, 1);
  ASSERT_FALSE(path.ok());
  EXPECT_EQ(path.status().code(), StatusCode::kNotFound);
}

TEST(ShortestPathTest, RespectsOneWayRestrictions) {
  RoadNetwork net;
  NodeId a = net.AddNode({0, 0});
  NodeId b = net.AddNode({100, 0});
  ASSERT_TRUE(net.AddEdge(a, b, RoadGrade::kFeederRoad, 5,
                          TrafficDirection::kOneWay, "one-way").ok());
  ShortestPathRouter router(&net);
  EXPECT_TRUE(router.Route(a, b).ok());
  EXPECT_FALSE(router.Route(b, a).ok());
}

TEST(ShortestPathTest, InvalidNodeIds) {
  RoadNetwork net = MakeDiamond();
  ShortestPathRouter router(&net);
  EXPECT_EQ(router.Route(-1, 2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(router.Route(0, 99).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShortestPathTest, TravelTimeCostPrefersHighway) {
  // Two routes a → d: direct country road (1000 m at 50 km/h = 72 s) vs
  // a dogleg on a highway (1400 m at 100 km/h = 50.4 s).
  RoadNetwork net;
  NodeId a = net.AddNode({0, 0});
  NodeId m = net.AddNode({700, 700});
  NodeId d = net.AddNode({1000, 0});
  ASSERT_TRUE(net.AddEdge(a, d, RoadGrade::kCountryRoad, 10,
                          TrafficDirection::kTwoWay, "direct").ok());
  auto h1 = net.AddEdge(a, m, RoadGrade::kHighway, 30,
                        TrafficDirection::kTwoWay, "h1");
  auto h2 = net.AddEdge(m, d, RoadGrade::kHighway, 30,
                        TrafficDirection::kTwoWay, "h2");
  ASSERT_TRUE(h1.ok() && h2.ok());
  ShortestPathRouter router(&net);
  auto by_length = router.Route(a, d, LengthCost());
  ASSERT_TRUE(by_length.ok());
  EXPECT_EQ(by_length->edges.size(), 1u);  // direct
  auto by_time = router.Route(a, d, TravelTimeCost());
  ASSERT_TRUE(by_time.ok());
  EXPECT_EQ(by_time->edges.size(), 2u);  // via the highway
}

// Property: Dijkstra agrees with Bellman–Ford on generated city maps.
struct RouterParam {
  uint64_t map_seed;
  uint64_t query_seed;
};

class RouterAgreementTest : public ::testing::TestWithParam<RouterParam> {};

TEST_P(RouterAgreementTest, DijkstraMatchesBellmanFordCost) {
  MapGeneratorOptions options;
  options.blocks_x = 6;
  options.blocks_y = 6;
  options.seed = GetParam().map_seed;
  GeneratedMap map = MapGenerator(options).Generate();
  ShortestPathRouter router(&map.network);
  Random rng(GetParam().query_seed);
  for (int q = 0; q < 15; ++q) {
    NodeId src = static_cast<NodeId>(rng.UniformInt(map.network.NumNodes()));
    NodeId dst = static_cast<NodeId>(rng.UniformInt(map.network.NumNodes()));
    auto d = router.Route(src, dst, TravelTimeCost());
    auto bf = router.RouteBellmanFord(src, dst, TravelTimeCost());
    ASSERT_EQ(d.ok(), bf.ok()) << src << "→" << dst;
    if (d.ok()) {
      EXPECT_NEAR(d->cost, bf->cost, 1e-6) << src << "→" << dst;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RouterAgreementTest,
                         ::testing::Values(RouterParam{1, 10},
                                           RouterParam{2, 20},
                                           RouterParam{3, 30},
                                           RouterParam{4, 40}));

}  // namespace
}  // namespace stmaker
