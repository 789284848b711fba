/// \file
/// Scenario-DSL suite: every topology in ScenarioCorpus() is exercised
/// against brute-force oracles — spatial queries vs. a full edge scan, the
/// pruned Viterbi matcher vs. an unpruned reference, CSR adjacency vs. the
/// edge list — plus per-topology behavioral checks (one-way rings route
/// the long way around, disconnected components never mix, dead ends don't
/// capture through traffic).

#include "scenario_dsl.h"

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "roadnet/map_matcher.h"
#include "roadnet/shortest_path.h"

namespace stmaker {
namespace {

using ::stmaker::testing::BuildScenario;
using ::stmaker::testing::EdgeSpec;
using ::stmaker::testing::NamedScenario;
using ::stmaker::testing::Scenario;
using ::stmaker::testing::ScenarioCorpus;
using ::stmaker::testing::ScenarioPath;
using ::stmaker::testing::ScenarioTrip;

// --- Brute-force oracles ----------------------------------------------------

std::vector<EdgeId> BruteEdgesNear(const RoadNetwork& net, const Vec2& p,
                                   double radius) {
  std::vector<EdgeId> out;
  for (const RoadEdge& e : net.edges()) {
    if (net.DistanceToEdge(p, e.id) <= radius) out.push_back(e.id);
  }
  return out;
}

/// The edge nearest to `p` within `max_radius`, the lowest id among
/// equidistant ones, or -1 when no edge qualifies.
EdgeId BruteNearest(const RoadNetwork& net, const Vec2& p,
                    double max_radius) {
  EdgeId best = -1;
  double best_d = 0;
  for (const RoadEdge& e : net.edges()) {
    double d = net.DistanceToEdge(p, e.id);
    if (d <= max_radius && (best < 0 || d < best_d)) {
      best_d = d;
      best = e.id;
    }
  }
  return best;
}

/// The pre-optimization matcher, kept verbatim as an oracle: candidates
/// from a full sort of EdgesNear, Viterbi with no pruning.
std::vector<EdgeId> ReferenceMatch(const RoadNetwork& net,
                                   const MapMatchOptions& options,
                                   const std::vector<Vec2>& points) {
  const size_t n = points.size();
  std::vector<EdgeId> result(n, -1);
  if (n == 0) return result;

  auto connected = [&net](EdgeId a, EdgeId b) {
    const RoadEdge& ea = net.edge(a);
    const RoadEdge& eb = net.edge(b);
    return ea.from == eb.from || ea.from == eb.to || ea.to == eb.from ||
           ea.to == eb.to;
  };

  std::vector<std::vector<EdgeId>> cand(n);
  std::vector<std::vector<double>> emit(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::pair<double, EdgeId>> scored;
    for (EdgeId e : net.EdgesNear(points[i], options.candidate_radius_m)) {
      scored.emplace_back(net.DistanceToEdge(points[i], e), e);
    }
    std::sort(scored.begin(), scored.end());
    size_t keep = std::min<size_t>(
        scored.size(), static_cast<size_t>(options.max_candidates));
    for (size_t k = 0; k < keep; ++k) {
      double d = scored[k].first / options.gps_sigma_m;
      cand[i].push_back(scored[k].second);
      emit[i].push_back(d * d);
    }
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  size_t i = 0;
  while (i < n) {
    if (cand[i].empty()) {
      ++i;
      continue;
    }
    size_t run_end = i;
    while (run_end < n && !cand[run_end].empty()) ++run_end;
    std::vector<std::vector<double>> score(run_end - i);
    std::vector<std::vector<int>> back(run_end - i);
    score[0] = emit[i];
    back[0].assign(cand[i].size(), -1);
    for (size_t t = i + 1; t < run_end; ++t) {
      size_t r = t - i;
      score[r].assign(cand[t].size(), kInf);
      back[r].assign(cand[t].size(), -1);
      for (size_t j = 0; j < cand[t].size(); ++j) {
        for (size_t p = 0; p < cand[t - 1].size(); ++p) {
          double trans;
          if (cand[t][j] == cand[t - 1][p]) {
            trans = 0;
          } else if (connected(cand[t][j], cand[t - 1][p])) {
            trans = options.adjacency_cost;
          } else {
            trans = options.jump_cost;
          }
          double s = score[r - 1][p] + trans + emit[t][j];
          if (s < score[r][j]) {
            score[r][j] = s;
            back[r][j] = static_cast<int>(p);
          }
        }
      }
    }
    size_t last = run_end - i - 1;
    int best = 0;
    for (size_t j = 1; j < score[last].size(); ++j) {
      if (score[last][j] < score[last][best]) best = static_cast<int>(j);
    }
    for (size_t r = run_end - i; r-- > 0;) {
      result[i + r] = cand[i + r][best];
      if (r > 0) best = back[r][best];
    }
    i = run_end;
  }
  return result;
}

/// Deterministic probe points scattered over (and beyond) the map's
/// bounding box, including exact node positions (boundary cases).
std::vector<Vec2> ProbePoints(const Scenario& s) {
  double min_x = 1e18, min_y = 1e18, max_x = -1e18, max_y = -1e18;
  for (const RoadNode& node : s.network.nodes()) {
    min_x = std::min(min_x, node.pos.x);
    min_y = std::min(min_y, node.pos.y);
    max_x = std::max(max_x, node.pos.x);
    max_y = std::max(max_y, node.pos.y);
  }
  std::vector<Vec2> probes;
  const int kGrid = 7;
  for (int ix = -1; ix <= kGrid; ++ix) {
    for (int iy = -1; iy <= kGrid; ++iy) {
      double fx = static_cast<double>(ix) / (kGrid - 1);
      double fy = static_cast<double>(iy) / (kGrid - 1);
      probes.push_back({min_x + fx * (max_x - min_x),
                        min_y + fy * (max_y - min_y)});
    }
  }
  for (const RoadNode& node : s.network.nodes()) probes.push_back(node.pos);
  return probes;
}

// --- Corpus-wide oracle sweeps ---------------------------------------------

TEST(ScenarioSuite, CorpusHasAtLeastSixTopologies) {
  EXPECT_GE(ScenarioCorpus().size(), 6u);
}

TEST(ScenarioSuite, SpatialQueriesMatchBruteForceOnEveryScenario) {
  for (const NamedScenario& named : ScenarioCorpus()) {
    SCOPED_TRACE(named.name);
    Scenario s = named.Build();
    for (const Vec2& p : ProbePoints(s)) {
      for (double radius : {0.0, 10.0, 60.0, 250.0, 5000.0}) {
        std::vector<EdgeId> expected = BruteEdgesNear(s.network, p, radius);
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(s.network.EdgesNear(p, radius), expected)
            << "p=(" << p.x << "," << p.y << ") r=" << radius;
      }
      EXPECT_EQ(s.network.NearestEdge(p, 120.0),
                BruteNearest(s.network, p, 120.0))
          << "p=(" << p.x << "," << p.y << ")";
    }
  }
}

TEST(ScenarioSuite, ClosestEdgesIsHeadOfFullRadiusScanOnEveryScenario) {
  for (const NamedScenario& named : ScenarioCorpus()) {
    SCOPED_TRACE(named.name);
    Scenario s = named.Build();
    for (const Vec2& p : ProbePoints(s)) {
      for (double radius : {30.0, 60.0, 200.0}) {
        std::vector<std::pair<double, EdgeId>> oracle;
        for (EdgeId e : BruteEdgesNear(s.network, p, radius)) {
          oracle.emplace_back(s.network.DistanceToEdge(p, e), e);
        }
        std::sort(oracle.begin(), oracle.end());
        for (size_t k : {size_t{1}, size_t{3}, size_t{6}, size_t{100}}) {
          std::vector<std::pair<double, EdgeId>> got;
          s.network.ClosestEdges(p, radius, k, &got);
          std::vector<std::pair<double, EdgeId>> expected(
              oracle.begin(),
              oracle.begin() + std::min(oracle.size(), k));
          EXPECT_EQ(got, expected)
              << "p=(" << p.x << "," << p.y << ") r=" << radius
              << " k=" << k;
        }
      }
    }
  }
}

TEST(ScenarioSuite, PrunedMatcherIsByteIdenticalToReferenceOnEveryScenario) {
  for (const NamedScenario& named : ScenarioCorpus()) {
    SCOPED_TRACE(named.name);
    Scenario s = named.Build();
    MapMatchOptions options;
    MapMatcher matcher(&s.network, options);
    // On-road, noisy, and very noisy traces; plus an off-map excursion.
    for (double noise : {0.0, 8.0, 30.0}) {
      std::vector<Vec2> pts =
          ScenarioPath(s, named.route, /*step_m=*/25.0, noise,
                       /*seed=*/named.name.size());
      EXPECT_EQ(matcher.Match(pts), ReferenceMatch(s.network, options, pts))
          << "noise=" << noise;
    }
    std::vector<Vec2> far;
    for (const Vec2& p : ScenarioPath(s, named.route, 25.0, 0.0, 1)) {
      far.push_back({p.x + 5000.0, p.y + 5000.0});
    }
    EXPECT_EQ(matcher.Match(far), ReferenceMatch(s.network, options, far));
  }
}

TEST(ScenarioSuite, CsrAdjacencyConsistentWithEdgeListOnEveryScenario) {
  for (const NamedScenario& named : ScenarioCorpus()) {
    SCOPED_TRACE(named.name);
    Scenario s = named.Build();
    const RoadNetwork& net = s.network;
    // Rebuild expected adjacency straight from the edge list.
    std::vector<std::vector<Adjacency>> expected(net.NumNodes());
    for (const RoadEdge& e : net.edges()) {
      expected[e.from].push_back({e.id, e.to, true});
      if (e.direction == TrafficDirection::kTwoWay) {
        expected[e.to].push_back({e.id, e.from, false});
      }
    }
    size_t total = 0;
    for (const RoadNode& node : net.nodes()) {
      RoadNetwork::AdjacencySpan got = net.OutEdges(node.id);
      ASSERT_EQ(got.size(), expected[node.id].size()) << "node " << node.id;
      for (size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].edge, expected[node.id][k].edge);
        EXPECT_EQ(got[k].neighbor, expected[node.id][k].neighbor);
        EXPECT_EQ(got[k].forward, expected[node.id][k].forward);
      }
      total += got.size();
      // Struct-of-arrays mirrors agree with the canonical records.
      for (const Adjacency& adj : got) {
        const RoadEdge& e = net.edge(adj.edge);
        EXPECT_EQ(net.edge_endpoints(adj.edge).from, e.from);
        EXPECT_EQ(net.edge_endpoints(adj.edge).to, e.to);
        EXPECT_EQ(net.edge_geometry(adj.edge).a.x, net.node(e.from).pos.x);
        EXPECT_EQ(net.edge_geometry(adj.edge).b.y, net.node(e.to).pos.y);
      }
    }
    size_t expected_total = 0;
    for (const auto& v : expected) expected_total += v.size();
    EXPECT_EQ(total, expected_total);
  }
}

// --- Per-topology behavioral checks -----------------------------------------

TEST(ScenarioTopology, DeadEndSpurDoesNotCaptureThroughTraffic) {
  Scenario s = ScenarioCorpus()[0].Build();
  ASSERT_EQ(ScenarioCorpus()[0].name, "dead_end_spur");
  MapMatcher matcher(&s.network);
  std::vector<EdgeId> matched =
      matcher.Match(ScenarioPath(s, "ABCE", 25.0, 5.0, 7));
  EdgeId spur = s.edge("BD");
  for (EdgeId e : matched) EXPECT_NE(e, spur);
}

TEST(ScenarioTopology, OneWayRingRoutesTheLongWayAround) {
  Scenario s = ScenarioCorpus()[1].Build();
  ASSERT_EQ(ScenarioCorpus()[1].name, "one_way_ring");
  ShortestPathRouter router(&s.network);
  // With the ring A->B->C->D->A, going B->A must traverse the other three
  // sides; the direct edge only works A->B.
  Result<Path> forward = router.Route(s.node('A'), s.node('B'));
  ASSERT_TRUE(forward.ok());
  EXPECT_EQ(forward.value().edges.size(), 1u);
  Result<Path> reverse = router.Route(s.node('B'), s.node('A'));
  ASSERT_TRUE(reverse.ok());
  EXPECT_EQ(reverse.value().edges.size(), 3u);
}

TEST(ScenarioTopology, DisconnectedComponentsNeverMix) {
  Scenario s = ScenarioCorpus()[2].Build();
  ASSERT_EQ(ScenarioCorpus()[2].name, "disconnected");
  ShortestPathRouter router(&s.network);
  EXPECT_EQ(router.Route(s.node('A'), s.node('E')).status().code(),
            StatusCode::kNotFound);
  // A trip on the west loop must only match west-loop edges.
  std::set<EdgeId> west;
  for (const auto& [way, edges] : s.ways) {
    if (way == "ABDCA") west.insert(edges.begin(), edges.end());
  }
  MapMatcher matcher(&s.network);
  for (EdgeId e : matcher.Match(ScenarioPath(s, "ABDC", 25.0, 10.0, 3))) {
    if (e >= 0) {
      EXPECT_TRUE(west.count(e) > 0) << "edge " << e;
    }
  }
}

TEST(ScenarioTopology, DegeneratePairMatchesItsOnlyEdge) {
  Scenario s = ScenarioCorpus()[3].Build();
  ASSERT_EQ(ScenarioCorpus()[3].name, "degenerate_pair");
  MapMatcher matcher(&s.network);
  EdgeId only = s.edge("AB");
  for (EdgeId e : matcher.Match(ScenarioPath(s, "AB", 25.0, 5.0, 11))) {
    EXPECT_EQ(e, only);
  }
}

TEST(ScenarioTopology, DenseCoreKeepsMatcherOnRoute) {
  std::vector<NamedScenario> corpus = ScenarioCorpus();
  ASSERT_EQ(corpus[4].name, "dense_core");
  Scenario s = corpus[4].Build();
  // Many candidates per fix; the on-road trace must still match exactly
  // the streets it was drawn on.
  MapMatcher matcher(&s.network);
  std::vector<Vec2> pts = ScenarioPath(s, corpus[4].route, 10.0, 0.0, 1);
  std::vector<EdgeId> matched = matcher.Match(pts);
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_GE(matched[i], 0) << "fix " << i;
    EXPECT_LE(s.network.DistanceToEdge(pts[i], matched[i]), 1e-6)
        << "fix " << i;
  }
}

TEST(ScenarioTopology, LongCorridorCalibratesEndToEnd) {
  std::vector<NamedScenario> corpus = ScenarioCorpus();
  ASSERT_EQ(corpus[5].name, "long_corridor");
  Scenario s = corpus[5].Build();
  ASSERT_NE(s.landmarks, nullptr);
  EXPECT_GT(s.landmarks->size(), 0u);
  // Junction landmarks exist at the bends; a trip down the corridor must
  // produce nearest-landmark hits at its endpoints.
  RawTrajectory trip = ScenarioTrip(s, corpus[5].route);
  ASSERT_GE(trip.samples.size(), 2u);
  EXPECT_GE(s.landmarks->Nearest(trip.samples.front().pos, 200.0), 0);
  EXPECT_GE(s.landmarks->Nearest(trip.samples.back().pos, 200.0), 0);
}

// --- DSL parsing itself -----------------------------------------------------

TEST(ScenarioDsl, GeometryFollowsTheDrawing) {
  Scenario s = BuildScenario(R"(
A----B
     |
     C
)",
                             {{"ABC", {}}});
  EXPECT_EQ(s.network.NumNodes(), 3u);
  EXPECT_EQ(s.network.NumEdges(), 2u);
  Vec2 a = s.pos('A');
  Vec2 b = s.pos('B');
  Vec2 c = s.pos('C');
  EXPECT_DOUBLE_EQ(b.x - a.x, 500.0);  // five cells apart
  EXPECT_DOUBLE_EQ(a.y, b.y);
  EXPECT_DOUBLE_EQ(b.x, c.x);
  EXPECT_DOUBLE_EQ(b.y - c.y, 200.0);  // two rows apart
  EXPECT_DOUBLE_EQ(s.network.edge(s.edge("AB")).length_m, 500.0);
}

TEST(ScenarioDsl, WaypointsAreNotNodes) {
  Scenario s = BuildScenario(R"(
A--1--B
)",
                             {{"AB", {}}});
  EXPECT_EQ(s.network.NumNodes(), 2u);
  Vec2 w = s.pos('1');
  EXPECT_GT(w.x, s.pos('A').x);
  EXPECT_LT(w.x, s.pos('B').x);
}

TEST(ScenarioDsl, WaySpecSetsEdgeAttributes) {
  Scenario s = BuildScenario(R"(
A----B----C
)",
                             {{"ABC",
                               {.grade = RoadGrade::kHighway,
                                .width_m = 30.0,
                                .direction = TrafficDirection::kOneWay,
                                .name = "Test Hwy"}}});
  for (EdgeId e : s.ways.at("ABC")) {
    EXPECT_EQ(s.network.edge(e).grade, RoadGrade::kHighway);
    EXPECT_EQ(s.network.edge(e).width_m, 30.0);
    EXPECT_EQ(s.network.edge(e).direction, TrafficDirection::kOneWay);
    EXPECT_EQ(s.network.edge(e).name, "Test Hwy");
  }
  // One-way: B has no out-edge back to A.
  EXPECT_EQ(s.network.FindEdgeBetween(s.node('B'), s.node('A')), -1);
  EXPECT_GE(s.network.FindEdgeBetween(s.node('A'), s.node('B')), 0);
}

TEST(ScenarioDsl, TripTimesAdvanceWithDistance) {
  Scenario s = BuildScenario("A----------B", {{"AB", {}}});
  RawTrajectory trip =
      ScenarioTrip(s, "AB", /*start_time=*/100.0, /*speed_mps=*/10.0);
  ASSERT_GE(trip.samples.size(), 2u);
  EXPECT_DOUBLE_EQ(trip.samples.front().time, 100.0);
  double expected_duration =
      Distance(s.pos('A'), s.pos('B')) / 10.0;
  EXPECT_NEAR(trip.Duration(), expected_duration, 1e-9);
  for (size_t i = 1; i < trip.samples.size(); ++i) {
    EXPECT_GT(trip.samples[i].time, trip.samples[i - 1].time);
  }
}

}  // namespace
}  // namespace stmaker
