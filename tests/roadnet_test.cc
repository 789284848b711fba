#include <gtest/gtest.h>

#include <queue>
#include <set>
#include <unordered_set>

#include "common/random.h"
#include "roadnet/map_generator.h"
#include "roadnet/map_matcher.h"
#include "roadnet/road_network.h"
#include "roadnet/road_types.h"

namespace stmaker {
namespace {

// --------------------------------------------------------------------------
// Road types
// --------------------------------------------------------------------------

TEST(RoadTypesTest, GradeNames) {
  EXPECT_EQ(RoadGradeName(RoadGrade::kHighway), "highway");
  EXPECT_EQ(RoadGradeName(RoadGrade::kExpressRoad), "express road");
  EXPECT_EQ(RoadGradeName(RoadGrade::kFeederRoad), "feeder road");
}

TEST(RoadTypesTest, SpeedsDecreaseWithGrade) {
  double prev = 1e9;
  for (int g = 1; g <= 7; ++g) {
    double v = FreeFlowSpeedKmh(static_cast<RoadGrade>(g));
    EXPECT_LT(v, prev) << "grade " << g;
    EXPECT_GT(v, 0);
    prev = v;
  }
}

TEST(RoadTypesTest, WidthsDecreaseWithGrade) {
  double prev = 1e9;
  for (int g = 1; g <= 7; ++g) {
    double w = TypicalWidthMeters(static_cast<RoadGrade>(g));
    EXPECT_LT(w, prev);
    EXPECT_GT(w, 0);
    prev = w;
  }
}

TEST(RoadTypesTest, GradeValidation) {
  EXPECT_TRUE(IsValidRoadGrade(1));
  EXPECT_TRUE(IsValidRoadGrade(7));
  EXPECT_FALSE(IsValidRoadGrade(0));
  EXPECT_FALSE(IsValidRoadGrade(8));
  EXPECT_FALSE(IsValidRoadGrade(-3));
}

TEST(RoadTypesTest, DirectionNames) {
  EXPECT_EQ(TrafficDirectionName(TrafficDirection::kOneWay),
            "a one-way road");
  EXPECT_EQ(TrafficDirectionName(TrafficDirection::kTwoWay),
            "a two-way road");
}

// --------------------------------------------------------------------------
// RoadNetwork
// --------------------------------------------------------------------------

TEST(RoadNetworkTest, AddNodesAndEdges) {
  RoadNetwork net;
  NodeId a = net.AddNode({0, 0});
  NodeId b = net.AddNode({100, 0});
  auto e = net.AddEdge(a, b, RoadGrade::kCountryRoad, 10.0,
                       TrafficDirection::kTwoWay, "Test Road");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(net.NumNodes(), 2u);
  EXPECT_EQ(net.NumEdges(), 1u);
  EXPECT_DOUBLE_EQ(net.edge(*e).length_m, 100.0);
  EXPECT_EQ(net.edge(*e).name, "Test Road");
}

TEST(RoadNetworkTest, TwoWayEdgeTraversableBothDirections) {
  RoadNetwork net;
  NodeId a = net.AddNode({0, 0});
  NodeId b = net.AddNode({100, 0});
  ASSERT_TRUE(net.AddEdge(a, b, RoadGrade::kCountryRoad, 10.0,
                          TrafficDirection::kTwoWay, "R").ok());
  ASSERT_EQ(net.OutEdges(a).size(), 1u);
  ASSERT_EQ(net.OutEdges(b).size(), 1u);
  EXPECT_TRUE(net.OutEdges(a)[0].forward);
  EXPECT_FALSE(net.OutEdges(b)[0].forward);
}

TEST(RoadNetworkTest, OneWayEdgeRestrictsTraversal) {
  RoadNetwork net;
  NodeId a = net.AddNode({0, 0});
  NodeId b = net.AddNode({100, 0});
  ASSERT_TRUE(net.AddEdge(a, b, RoadGrade::kFeederRoad, 5.0,
                          TrafficDirection::kOneWay, "R").ok());
  EXPECT_EQ(net.OutEdges(a).size(), 1u);
  EXPECT_TRUE(net.OutEdges(b).empty());
}

TEST(RoadNetworkTest, AddEdgeValidation) {
  RoadNetwork net;
  NodeId a = net.AddNode({0, 0});
  NodeId b = net.AddNode({1, 0});
  EXPECT_FALSE(net.AddEdge(a, a, RoadGrade::kCountryRoad, 10,
                           TrafficDirection::kTwoWay, "loop").ok());
  EXPECT_FALSE(net.AddEdge(a, 99, RoadGrade::kCountryRoad, 10,
                           TrafficDirection::kTwoWay, "oob").ok());
  EXPECT_FALSE(net.AddEdge(a, b, RoadGrade::kCountryRoad, -1,
                           TrafficDirection::kTwoWay, "badwidth").ok());
}

TEST(RoadNetworkTest, FindEdgeBetweenRespectsDirection) {
  RoadNetwork net;
  NodeId a = net.AddNode({0, 0});
  NodeId b = net.AddNode({100, 0});
  auto e = net.AddEdge(a, b, RoadGrade::kFeederRoad, 5.0,
                       TrafficDirection::kOneWay, "R");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(net.FindEdgeBetween(a, b), *e);
  EXPECT_EQ(net.FindEdgeBetween(b, a), -1);
}

TEST(RoadNetworkTest, TurningPointAnnotation) {
  // A path a-b-c: a and c have degree 1 (turning points), b degree 2 (not).
  RoadNetwork net;
  NodeId a = net.AddNode({0, 0});
  NodeId b = net.AddNode({100, 0});
  NodeId c = net.AddNode({200, 0});
  ASSERT_TRUE(net.AddEdge(a, b, RoadGrade::kCountryRoad, 10,
                          TrafficDirection::kTwoWay, "R").ok());
  ASSERT_TRUE(net.AddEdge(b, c, RoadGrade::kCountryRoad, 10,
                          TrafficDirection::kTwoWay, "R").ok());
  net.AnnotateTurningPoints();
  EXPECT_TRUE(net.node(a).is_turning_point);
  EXPECT_FALSE(net.node(b).is_turning_point);
  EXPECT_TRUE(net.node(c).is_turning_point);
}

TEST(RoadNetworkTest, NearestEdgeAndEdgesNear) {
  RoadNetwork net;
  NodeId a = net.AddNode({0, 0});
  NodeId b = net.AddNode({1000, 0});
  NodeId c = net.AddNode({0, 500});
  NodeId d = net.AddNode({1000, 500});
  auto e1 = net.AddEdge(a, b, RoadGrade::kCountryRoad, 10,
                        TrafficDirection::kTwoWay, "South");
  auto e2 = net.AddEdge(c, d, RoadGrade::kCountryRoad, 10,
                        TrafficDirection::kTwoWay, "North");
  ASSERT_TRUE(e1.ok() && e2.ok());
  // Before the index is built every spatial query comes back empty.
  EXPECT_EQ(net.NearestEdge({500, 100}, 300), -1);
  EXPECT_TRUE(net.EdgesNear({500, 100}, 300).empty());
  std::vector<std::pair<double, EdgeId>> unindexed;
  net.ClosestEdges({500, 100}, 300, 3, &unindexed);
  EXPECT_TRUE(unindexed.empty());
  net.BuildSpatialIndex();
  EXPECT_EQ(net.NearestEdge({500, 100}, 300), *e1);
  EXPECT_EQ(net.NearestEdge({500, 400}, 300), *e2);
  EXPECT_EQ(net.NearestEdge({500, 5000}, 300), -1);
  std::vector<EdgeId> near = net.EdgesNear({500, 250}, 260);
  EXPECT_EQ(near.size(), 2u);
}

TEST(RoadNetworkTest, NearestEdgeFindsEveryEdgeWithinMaxRadius) {
  // The closest point of the edge is (25, 0), 100 m from the query, but
  // every point of the edge a 50 m sampling would keep is over 103 m away:
  // only an index over the segment itself finds it at max_radius 101.
  RoadNetwork net;
  NodeId a = net.AddNode({0, 0});
  NodeId b = net.AddNode({100, 0});
  auto e = net.AddEdge(a, b, RoadGrade::kCountryRoad, 10,
                       TrafficDirection::kTwoWay, "Short");
  ASSERT_TRUE(e.ok());
  net.BuildSpatialIndex();
  const Vec2 q{25, 100};
  EXPECT_DOUBLE_EQ(net.DistanceToEdge(q, *e), 100.0);
  EXPECT_EQ(net.EdgesNear(q, 101), std::vector<EdgeId>{*e});
  EXPECT_EQ(net.NearestEdge(q, 101), *e);
  EXPECT_EQ(net.NearestEdge(q, 100), *e);  // the bound is inclusive
  EXPECT_EQ(net.NearestEdge(q, 99.9), -1);
}

TEST(RoadNetworkTest, NearestEdgeBreaksDistanceTiesByLowestId) {
  // Three edges 100 m from the query, which a row-by-row cell scan meets
  // in descending id order.
  RoadNetwork net;
  NodeId n0 = net.AddNode({0, 300});
  NodeId n1 = net.AddNode({100, 300});
  NodeId n2 = net.AddNode({200, 100});
  NodeId n3 = net.AddNode({200, 300});
  NodeId n4 = net.AddNode({0, 100});
  NodeId n5 = net.AddNode({100, 100});
  auto top = net.AddEdge(n0, n1, RoadGrade::kCountryRoad, 10,
                         TrafficDirection::kTwoWay, "Top");
  auto right = net.AddEdge(n2, n3, RoadGrade::kCountryRoad, 10,
                           TrafficDirection::kTwoWay, "Right");
  auto bottom = net.AddEdge(n4, n5, RoadGrade::kCountryRoad, 10,
                            TrafficDirection::kTwoWay, "Bottom");
  ASSERT_TRUE(top.ok() && right.ok() && bottom.ok());
  net.BuildSpatialIndex();
  const Vec2 q{100, 200};
  for (EdgeId id : {*top, *right, *bottom}) {
    EXPECT_DOUBLE_EQ(net.DistanceToEdge(q, id), 100.0) << id;
  }
  EXPECT_EQ(net.NearestEdge(q, 150), *top);
  std::vector<std::pair<double, EdgeId>> closest;
  net.ClosestEdges(q, 150, 2, &closest);
  EXPECT_EQ(closest, (std::vector<std::pair<double, EdgeId>>{
                         {100.0, *top}, {100.0, *right}}));
}

// --------------------------------------------------------------------------
// MapGenerator
// --------------------------------------------------------------------------

class MapGeneratorTest : public ::testing::Test {
 protected:
  static const GeneratedMap& Map() {
    static const GeneratedMap& map = *[] {
      MapGeneratorOptions options;
      options.blocks_x = 12;
      options.blocks_y = 12;
      options.seed = 7;
      return new GeneratedMap(MapGenerator(options).Generate());
    }();
    return map;
  }
};

TEST_F(MapGeneratorTest, DeterministicForSameSeed) {
  MapGeneratorOptions options;
  options.blocks_x = 8;
  options.blocks_y = 8;
  options.seed = 5;
  GeneratedMap m1 = MapGenerator(options).Generate();
  GeneratedMap m2 = MapGenerator(options).Generate();
  ASSERT_EQ(m1.network.NumNodes(), m2.network.NumNodes());
  ASSERT_EQ(m1.network.NumEdges(), m2.network.NumEdges());
  for (size_t i = 0; i < m1.network.NumNodes(); ++i) {
    EXPECT_EQ(m1.network.node(i).pos, m2.network.node(i).pos);
  }
  for (size_t i = 0; i < m1.network.NumEdges(); ++i) {
    EXPECT_EQ(m1.network.edge(i).name, m2.network.edge(i).name);
    EXPECT_EQ(m1.network.edge(i).grade, m2.network.edge(i).grade);
  }
}

TEST_F(MapGeneratorTest, NodeCountMatchesGrid) {
  EXPECT_EQ(Map().network.NumNodes(), 13u * 13u);
}

TEST_F(MapGeneratorTest, AllGradesPresent) {
  std::set<RoadGrade> grades;
  for (const RoadEdge& e : Map().network.edges()) grades.insert(e.grade);
  for (int g = 1; g <= 7; ++g) {
    EXPECT_TRUE(grades.count(static_cast<RoadGrade>(g)))
        << "missing grade " << g;
  }
}

TEST_F(MapGeneratorTest, GraphIsConnected) {
  const RoadNetwork& net = Map().network;
  // BFS over the undirected topology.
  std::vector<bool> seen(net.NumNodes(), false);
  std::queue<NodeId> queue;
  queue.push(0);
  seen[0] = true;
  size_t visited = 1;
  std::vector<std::vector<NodeId>> undirected(net.NumNodes());
  for (const RoadEdge& e : net.edges()) {
    undirected[e.from].push_back(e.to);
    undirected[e.to].push_back(e.from);
  }
  while (!queue.empty()) {
    NodeId u = queue.front();
    queue.pop();
    for (NodeId v : undirected[u]) {
      if (!seen[v]) {
        seen[v] = true;
        ++visited;
        queue.push(v);
      }
    }
  }
  EXPECT_EQ(visited, net.NumNodes());
}

TEST_F(MapGeneratorTest, EveryEdgeNamedWithPositiveAttributes) {
  for (const RoadEdge& e : Map().network.edges()) {
    EXPECT_FALSE(e.name.empty());
    EXPECT_GT(e.width_m, 0);
    EXPECT_GT(e.length_m, 0);
    EXPECT_TRUE(IsValidRoadGrade(static_cast<int>(e.grade)));
  }
}

TEST_F(MapGeneratorTest, OuterRingIsHighway) {
  const RoadNetwork& net = Map().network;
  int highway_edges = 0;
  for (const RoadEdge& e : net.edges()) {
    if (e.grade == RoadGrade::kHighway) {
      ++highway_edges;
      EXPECT_NE(e.name.find("Ring Highway"), std::string::npos);
    }
  }
  // The ring has 4 * blocks edges.
  EXPECT_EQ(highway_edges, 4 * 12);
}

TEST_F(MapGeneratorTest, HighGradeRoadsAreNeverOneWay) {
  // Highways, express roads, and national roads are always two-way; one-way
  // systems only appear from provincial grade down.
  for (const RoadEdge& e : Map().network.edges()) {
    if (static_cast<int>(e.grade) <= 3) {
      EXPECT_EQ(e.direction, TrafficDirection::kTwoWay)
          << "grade " << static_cast<int>(e.grade) << " road " << e.name;
    }
  }
}

TEST_F(MapGeneratorTest, SomeMinorRoadsRemoved) {
  // Full grid would have 2 * 12 * 13 = 312 edges.
  EXPECT_LT(Map().network.NumEdges(), 312u);
}

TEST_F(MapGeneratorTest, OneWayStreetsAppearAcrossSeeds) {
  // One-way conversion is per minor line with probability 0.2, so any single
  // small map may have none; across a few seeds some must appear.
  int one_way = 0;
  for (uint64_t seed : {1u, 2u, 3u}) {
    MapGeneratorOptions options;
    options.blocks_x = 12;
    options.blocks_y = 12;
    options.seed = seed;
    GeneratedMap map = MapGenerator(options).Generate();
    for (const RoadEdge& e : map.network.edges()) {
      if (e.direction == TrafficDirection::kOneWay) ++one_way;
    }
  }
  EXPECT_GT(one_way, 0);
}

TEST_F(MapGeneratorTest, TurningPointsAnnotated) {
  size_t turning = 0;
  for (const RoadNode& n : Map().network.nodes()) {
    if (n.is_turning_point) ++turning;
  }
  EXPECT_GT(turning, Map().network.NumNodes() / 2);
}

TEST_F(MapGeneratorTest, ExtentMatchesBlocks) {
  // 12 blocks at 500 m = 6 km across (plus ring jitter = 0 on boundary).
  EXPECT_NEAR(Map().extent.Width(), 6000.0, 1.0);
  EXPECT_NEAR(Map().extent.Height(), 6000.0, 1.0);
}


TEST_F(MapGeneratorTest, NearestEdgeMatchesBruteForce) {
  const RoadNetwork& net = Map().network;
  Random rng(91);
  for (int q = 0; q < 60; ++q) {
    Vec2 p{rng.Uniform(-3500, 3500), rng.Uniform(-3500, 3500)};
    EdgeId got = net.NearestEdge(p, 400.0);
    // Brute force over all edges.
    EdgeId best = -1;
    double best_d = 400.0;
    for (const RoadEdge& e : net.edges()) {
      double d = net.DistanceToEdge(p, e.id);
      if (d <= best_d) {
        best_d = d;
        best = e.id;
      }
    }
    if (best < 0) {
      EXPECT_EQ(got, -1) << q;
    } else {
      ASSERT_GE(got, 0) << q;
      EXPECT_NEAR(net.DistanceToEdge(p, got), best_d, 1e-9) << q;
    }
  }
}

// --------------------------------------------------------------------------
// MapMatcher
// --------------------------------------------------------------------------

TEST(MapMatcherTest, MatchesFixesToCorrectStreets) {
  RoadNetwork net;
  NodeId a = net.AddNode({0, 0});
  NodeId b = net.AddNode({1000, 0});
  NodeId c = net.AddNode({1000, 1000});
  auto e1 = net.AddEdge(a, b, RoadGrade::kNationalRoad, 20,
                        TrafficDirection::kTwoWay, "East Avenue");
  auto e2 = net.AddEdge(b, c, RoadGrade::kNationalRoad, 20,
                        TrafficDirection::kTwoWay, "North Avenue");
  ASSERT_TRUE(e1.ok() && e2.ok());
  net.BuildSpatialIndex();

  MapMatcher matcher(&net);
  // A noisy L-shaped drive a → b → c.
  std::vector<Vec2> fixes;
  for (int x = 0; x <= 1000; x += 100) {
    fixes.push_back({static_cast<double>(x), (x % 200 == 0) ? 8.0 : -6.0});
  }
  for (int y = 100; y <= 1000; y += 100) {
    fixes.push_back({(y % 200 == 0) ? 1007.0 : 995.0,
                     static_cast<double>(y)});
  }
  std::vector<EdgeId> matched = matcher.Match(fixes);
  ASSERT_EQ(matched.size(), fixes.size());
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(matched[i], *e1) << i;
  for (size_t i = 12; i < matched.size(); ++i) EXPECT_EQ(matched[i], *e2) << i;
}

TEST(MapMatcherTest, FarFixesUnmatched) {
  RoadNetwork net;
  NodeId a = net.AddNode({0, 0});
  NodeId b = net.AddNode({100, 0});
  ASSERT_TRUE(net.AddEdge(a, b, RoadGrade::kCountryRoad, 10,
                          TrafficDirection::kTwoWay, "R").ok());
  net.BuildSpatialIndex();
  MapMatcher matcher(&net);
  std::vector<EdgeId> matched = matcher.Match({{50, 5000}, {50, 0}});
  ASSERT_EQ(matched.size(), 2u);
  EXPECT_EQ(matched[0], -1);
  EXPECT_EQ(matched[1], 0);
}

TEST(MapMatcherTest, EmptyInput) {
  RoadNetwork net;
  net.AddNode({0, 0});
  net.BuildSpatialIndex();
  MapMatcher matcher(&net);
  EXPECT_TRUE(matcher.Match({}).empty());
}

TEST(MapMatcherTest, ContinuityBreaksTiesTowardConnectedEdges) {
  // Two parallel streets 40 m apart; fixes run along the middle, slightly
  // nearer the south street at the start. Viterbi should not zig-zag.
  RoadNetwork net;
  NodeId a = net.AddNode({0, 0});
  NodeId b = net.AddNode({2000, 0});
  NodeId c = net.AddNode({0, 40});
  NodeId d = net.AddNode({2000, 40});
  auto south = net.AddEdge(a, b, RoadGrade::kCountryRoad, 10,
                           TrafficDirection::kTwoWay, "South");
  auto north = net.AddEdge(c, d, RoadGrade::kCountryRoad, 10,
                           TrafficDirection::kTwoWay, "North");
  ASSERT_TRUE(south.ok() && north.ok());
  net.BuildSpatialIndex();
  MapMatcher matcher(&net);
  std::vector<Vec2> fixes;
  Random rng(3);
  for (int x = 0; x <= 2000; x += 50) {
    fixes.push_back({static_cast<double>(x), 15.0 + rng.Uniform(-8, 8)});
  }
  std::vector<EdgeId> matched = matcher.Match(fixes);
  // All fixes should land on a single street, not alternate.
  std::unordered_set<EdgeId> used(matched.begin(), matched.end());
  EXPECT_EQ(used.size(), 1u);
}

}  // namespace
}  // namespace stmaker
