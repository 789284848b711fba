// Cross-cutting property tests: each checks an implementation against an
// independent oracle (a brute-force reference implementation or a
// simulator ground truth) over randomized inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>

#include "common/context.h"
#include "common/random.h"
#include "core/irregularity.h"
#include "roadnet/map_matcher.h"
#include "scenario_dsl.h"
#include "test_world.h"
#include "traj/calibration.h"
#include "traj/stay_point.h"

namespace stmaker {
namespace {

using ::stmaker::testing::GetTestWorld;
using ::stmaker::testing::LoadedModel;
using ::stmaker::testing::SaveAndLoad;
using ::stmaker::testing::TestWorld;

// --------------------------------------------------------------------------
// Edit distance vs. the paper's recursive definition (Sec. V-A).
// --------------------------------------------------------------------------

double RecursiveEditDistance(const std::vector<double>& a, size_t ai,
                             const std::vector<double>& b, size_t bi,
                             FeatureValueType type, double max_abs) {
  // d(rest(a), rest(b)) + cost(head, head), d(rest(a), b) + 1,
  // d(a, rest(b)) + 1 — exactly the paper's recurrence.
  if (ai == a.size()) return static_cast<double>(b.size() - bi);
  if (bi == b.size()) return static_cast<double>(a.size() - ai);
  double cost;
  if (type == FeatureValueType::kCategorical) {
    cost = a[ai] == b[bi] ? 0.0 : 1.0;
  } else {
    cost = max_abs > 0 ? std::fabs(a[ai] - b[bi]) / max_abs : 0.0;
  }
  double subst =
      RecursiveEditDistance(a, ai + 1, b, bi + 1, type, max_abs) + cost;
  double del = RecursiveEditDistance(a, ai + 1, b, bi, type, max_abs) + 1.0;
  double ins = RecursiveEditDistance(a, ai, b, bi + 1, type, max_abs) + 1.0;
  return std::min({subst, del, ins});
}

struct EditDistanceParam {
  size_t len_a;
  size_t len_b;
  FeatureValueType type;
  uint64_t seed;
};

class EditDistanceOracleTest
    : public ::testing::TestWithParam<EditDistanceParam> {};

TEST_P(EditDistanceOracleTest, MatchesRecursiveDefinition) {
  const EditDistanceParam param = GetParam();
  Random rng(param.seed);
  for (int round = 0; round < 20; ++round) {
    std::vector<double> a(param.len_a);
    std::vector<double> b(param.len_b);
    for (double& v : a) {
      v = param.type == FeatureValueType::kCategorical
              ? static_cast<double>(rng.UniformInt(1, 4))
              : rng.Uniform(0, 30);
    }
    for (double& v : b) {
      v = param.type == FeatureValueType::kCategorical
              ? static_cast<double>(rng.UniformInt(1, 4))
              : rng.Uniform(0, 30);
    }
    double max_abs = 0;
    for (double v : a) max_abs = std::max(max_abs, std::fabs(v));
    for (double v : b) max_abs = std::max(max_abs, std::fabs(v));
    double dp = FeatureSequenceEditDistance(a, b, param.type);
    double oracle = RecursiveEditDistance(a, 0, b, 0, param.type, max_abs);
    EXPECT_NEAR(dp, oracle, 1e-9) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EditDistanceOracleTest,
    ::testing::Values(
        EditDistanceParam{3, 3, FeatureValueType::kCategorical, 1},
        EditDistanceParam{5, 2, FeatureValueType::kCategorical, 2},
        EditDistanceParam{2, 6, FeatureValueType::kCategorical, 3},
        EditDistanceParam{4, 4, FeatureValueType::kNumeric, 4},
        EditDistanceParam{6, 3, FeatureValueType::kNumeric, 5},
        EditDistanceParam{1, 7, FeatureValueType::kNumeric, 6},
        EditDistanceParam{7, 7, FeatureValueType::kCategorical, 7}));

// --------------------------------------------------------------------------
// Stay-point detector invariants on random trajectories.
// --------------------------------------------------------------------------

class StayPointPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StayPointPropertyTest, DurationsBoundedAndOrdered) {
  Random rng(GetParam());
  RawTrajectory t;
  double time = 1000;
  Vec2 pos{0, 0};
  for (int i = 0; i < 200; ++i) {
    // Random walk with occasional dwells.
    if (rng.Bernoulli(0.15)) {
      time += rng.Uniform(20, 200);  // dwell: time passes, position holds
    } else {
      pos = pos + Vec2{rng.Uniform(-120, 120), rng.Uniform(-120, 120)};
      time += rng.Uniform(5, 15);
    }
    t.samples.push_back({pos, time});
  }
  StayPointOptions options;
  std::vector<StayPoint> stays = DetectStayPoints(t, options);
  double total = 0;
  double last_arrive = -1e18;
  for (const StayPoint& s : stays) {
    EXPECT_GE(s.Duration(), options.time_threshold_s);
    EXPECT_GT(s.arrive, last_arrive) << "stays must be time-ordered";
    EXPECT_GE(s.arrive, t.StartTime());
    EXPECT_LE(s.leave, t.EndTime());
    last_arrive = s.arrive;
    total += s.Duration();
  }
  EXPECT_LE(total, t.Duration() + 1e-9);
}

TEST_P(StayPointPropertyTest, TimeShiftInvariance) {
  Random rng(GetParam() + 100);
  RawTrajectory t;
  double time = 0;
  for (int i = 0; i < 100; ++i) {
    Vec2 pos{i * 30.0, rng.Uniform(-5, 5)};
    if (i == 50) time += 300;  // one big dwell
    t.samples.push_back({pos, time});
    time += 10;
  }
  RawTrajectory shifted = t;
  for (RawSample& s : shifted.samples) s.time += 12345.0;
  std::vector<StayPoint> a = DetectStayPoints(t, {});
  std::vector<StayPoint> b = DetectStayPoints(shifted, {});
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].arrive + 12345.0, b[i].arrive, 1e-9);
    EXPECT_NEAR(a[i].Duration(), b[i].Duration(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, StayPointPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --------------------------------------------------------------------------
// Map matcher accuracy against simulator ground truth.
// --------------------------------------------------------------------------

TEST(MapMatcherAccuracyTest, MostFixesMatchTheTrueRoute) {
  const TestWorld& world = GetTestWorld();
  MapMatcher matcher(&world.city.network);
  int total = 0;
  int on_route = 0;
  for (size_t t = 0; t < 30; ++t) {
    const GeneratedTrip& trip = world.history[t];
    std::set<EdgeId> truth(trip.route_edges.begin(),
                           trip.route_edges.end());
    std::vector<Vec2> fixes;
    for (const RawSample& s : trip.raw.samples) fixes.push_back(s.pos);
    std::vector<EdgeId> matched = matcher.Match(fixes);
    for (EdgeId e : matched) {
      if (e < 0) continue;
      ++total;
      if (truth.count(e)) ++on_route;
    }
  }
  ASSERT_GT(total, 500);
  // At least 85% of matched fixes should land on the ground-truth route
  // (fixes near intersections legitimately match crossing edges).
  EXPECT_GT(static_cast<double>(on_route) / total, 0.85)
      << on_route << "/" << total;
}

// --------------------------------------------------------------------------
// Calibration: sampling invariance over the simulator, not just a line.
// --------------------------------------------------------------------------

class CalibrationInvarianceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(CalibrationInvarianceTest, ResamplingPreservesLandmarkSequence) {
  const TestWorld& world = GetTestWorld();
  Calibrator calibrator(world.landmarks.get());
  Random rng(GetParam());
  auto trip = world.generator->GenerateTrip(13 * 3600.0, &rng);
  ASSERT_TRUE(trip.ok());
  auto original = calibrator.Calibrate(trip->raw);
  ASSERT_TRUE(original.ok());

  // Decimate: keep every 3rd fix (coarser sampling of the same route).
  RawTrajectory decimated;
  decimated.traveler = trip->raw.traveler;
  for (size_t i = 0; i < trip->raw.samples.size(); i += 3) {
    decimated.samples.push_back(trip->raw.samples[i]);
  }
  decimated.samples.push_back(trip->raw.samples.back());
  auto coarse = calibrator.Calibrate(decimated);
  ASSERT_TRUE(coarse.ok());

  // The landmark sequences should agree almost everywhere; decimation
  // perturbs the polyline by the GPS noise of the surviving fixes, which
  // can flip anchors sitting at the fringe of the anchor radius, so allow
  // a modest edit distance rather than exact equality.
  std::vector<double> a;
  std::vector<double> b;
  for (const SymbolicSample& s : original->symbolic.samples) {
    a.push_back(static_cast<double>(s.landmark));
  }
  for (const SymbolicSample& s : coarse->symbolic.samples) {
    b.push_back(static_cast<double>(s.landmark));
  }
  double d = FeatureSequenceEditDistance(a, b,
                                         FeatureValueType::kCategorical);
  EXPECT_LE(d / std::max(a.size(), b.size()), 0.25)
      << "|orig|=" << a.size() << " |coarse|=" << b.size() << " d=" << d;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CalibrationInvarianceTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

// --------------------------------------------------------------------------
// Scenario-DSL corpus: randomized spatial-query sweeps over every
// hand-drawn topology (dead ends, one-way rings, disconnected components,
// degenerate pairs, dense cores, corridors). Complements the generated
// TestWorld, which only ever produces well-connected grids.
// --------------------------------------------------------------------------

class ScenarioPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScenarioPropertyTest, SpatialQueriesMatchBruteForceUnderRandomProbes) {
  Random rng(GetParam());
  for (const auto& named : ::stmaker::testing::ScenarioCorpus()) {
    SCOPED_TRACE(named.name);
    ::stmaker::testing::Scenario s = named.Build();
    const RoadNetwork& net = s.network;
    double extent = 120.0 * named.grid_m;
    for (int q = 0; q < 25; ++q) {
      Vec2 p{rng.Uniform(-extent * 0.1, extent),
             rng.Uniform(-extent, extent * 0.1)};
      double radius = rng.Uniform(0, 4.0 * named.grid_m);
      // Oracle: full scan over every edge.
      std::vector<std::pair<double, EdgeId>> oracle;
      for (const RoadEdge& e : net.edges()) {
        double d = net.DistanceToEdge(p, e.id);
        if (d <= radius) oracle.emplace_back(d, e.id);
      }
      std::sort(oracle.begin(), oracle.end());

      std::vector<EdgeId> expected_ids;
      for (const auto& [d, id] : oracle) expected_ids.push_back(id);
      std::sort(expected_ids.begin(), expected_ids.end());
      EXPECT_EQ(net.EdgesNear(p, radius), expected_ids);

      size_t k = 1 + static_cast<size_t>(rng.Uniform(0, 8));
      std::vector<std::pair<double, EdgeId>> got;
      net.ClosestEdges(p, radius, k, &got);
      std::vector<std::pair<double, EdgeId>> expected(
          oracle.begin(), oracle.begin() + std::min(oracle.size(), k));
      EXPECT_EQ(got, expected) << "k=" << k << " r=" << radius;
    }
  }
}

TEST_P(ScenarioPropertyTest, MatchedEdgesAreAlwaysValidCandidates) {
  Random rng(GetParam() + 100);
  MapMatchOptions options;
  for (const auto& named : ::stmaker::testing::ScenarioCorpus()) {
    SCOPED_TRACE(named.name);
    ::stmaker::testing::Scenario s = named.Build();
    MapMatcher matcher(&s.network, options);
    double noise = rng.Uniform(0, 25.0);
    std::vector<Vec2> pts = ::stmaker::testing::ScenarioPath(
        s, named.route, /*step_m=*/20.0, noise, GetParam());
    std::vector<EdgeId> matched = matcher.Match(pts);
    ASSERT_EQ(matched.size(), pts.size());
    for (size_t i = 0; i < pts.size(); ++i) {
      if (matched[i] < 0) continue;
      // Whatever the Viterbi chose must be a legal candidate for the fix.
      EXPECT_LE(s.network.DistanceToEdge(pts[i], matched[i]),
                options.candidate_radius_m)
          << "fix " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScenarioPropertyTest,
                         ::testing::Values(7u, 17u, 27u, 37u));

// --------------------------------------------------------------------------
// Random networks built to stress the segment-cell index: diagonal edges,
// edges spanning dozens of cells, edges lying on cell boundaries, and
// zero-length edges, probed at radius 0, 60 and beyond the whole map.
// --------------------------------------------------------------------------

class RandomNetworkSpatialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomNetworkSpatialTest, SpatialQueriesMatchBruteForce) {
  Random rng(GetParam());
  constexpr double kCell = RoadNetwork::kSpatialCellM;
  RoadNetwork net;
  auto add_edge = [&net](const Vec2& a, const Vec2& b) {
    const NodeId from = net.AddNode(a);
    const NodeId to = net.AddNode(b);
    ASSERT_TRUE(net.AddEdge(from, to, RoadGrade::kCountryRoad, 10,
                            TrafficDirection::kTwoWay, "e")
                    .ok());
  };
  auto random_point = [&rng] {
    return Vec2{rng.Uniform(-2000, 2000), rng.Uniform(-2000, 2000)};
  };
  auto on_boundary = [](double v) { return std::round(v / kCell) * kCell; };
  std::vector<Vec2> probes;
  for (int i = 0; i < 40; ++i) {
    const Vec2 a = random_point();
    add_edge(a, a + Vec2{rng.Uniform(-150, 150), rng.Uniform(-150, 150)});
    add_edge(random_point(), random_point());  // spans many cells
    Vec2 v = random_point();
    v.x = on_boundary(v.x);
    const double len = rng.Uniform(-600, 600);
    add_edge(v, {v.x, v.y + len});
    probes.push_back({v.x, v.y + len * rng.Uniform(0, 1)});
    Vec2 h = random_point();
    h.y = on_boundary(h.y);
    add_edge(h, {h.x + rng.Uniform(-600, 600), h.y});
    Vec2 z = random_point();
    if (i % 2 == 0) z = {on_boundary(z.x), on_boundary(z.y)};
    add_edge(z, z);  // zero length, half of them on a cell corner
    probes.push_back(z);
  }
  net.BuildSpatialIndex();
  for (int q = 0; q < 60; ++q) {
    probes.push_back({rng.Uniform(-2500, 2500), rng.Uniform(-2500, 2500)});
    probes.push_back(
        net.node(static_cast<NodeId>(rng.Uniform(0, 1) *
                                     (net.NumNodes() - 1)))
            .pos);
  }

  for (const Vec2& p : probes) {
    for (double radius : {0.0, 60.0, 1e5}) {
      SCOPED_TRACE(::testing::Message() << "p=(" << p.x << "," << p.y
                                        << ") r=" << radius);
      std::vector<std::pair<double, EdgeId>> oracle;
      for (const RoadEdge& e : net.edges()) {
        const double d = net.DistanceToEdge(p, e.id);
        if (d <= radius) oracle.emplace_back(d, e.id);
      }
      std::sort(oracle.begin(), oracle.end());
      std::vector<EdgeId> ids;
      for (const auto& [d, id] : oracle) ids.push_back(id);
      std::sort(ids.begin(), ids.end());
      EXPECT_EQ(net.EdgesNear(p, radius), ids);
      for (size_t k : {size_t{1}, size_t{6}}) {
        std::vector<std::pair<double, EdgeId>> got;
        net.ClosestEdges(p, radius, k, &got);
        std::vector<std::pair<double, EdgeId>> expected(
            oracle.begin(), oracle.begin() + std::min(oracle.size(), k));
        EXPECT_EQ(got, expected) << "k=" << k;
      }
      EXPECT_EQ(net.NearestEdge(p, radius),
                oracle.empty() ? EdgeId{-1} : oracle.front().second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomNetworkSpatialTest,
                         ::testing::Values(3u, 13u, 23u, 33u));

// --------------------------------------------------------------------------
// End-to-end determinism across the whole pipeline.
// --------------------------------------------------------------------------

TEST(PipelineDeterminismTest, IdenticalWorldsProduceIdenticalSummaries) {
  // Build two fully independent worlds from the same seeds and verify they
  // summarize a fixed trip identically — guards against hidden global
  // state and iteration-order nondeterminism anywhere in the stack.
  auto build = [] {
    MapGeneratorOptions map_options;
    map_options.blocks_x = 10;
    map_options.blocks_y = 10;
    map_options.seed = 77;
    auto city = std::make_unique<GeneratedMap>(
        MapGenerator(map_options).Generate());
    PoiGeneratorOptions poi_options;
    poi_options.num_sites = 120;
    poi_options.seed = 78;
    std::vector<RawPoi> pois =
        PoiGenerator(poi_options).Generate(city->network);
    auto landmarks = std::make_unique<LandmarkIndex>(
        LandmarkIndex::Build(city->network, pois));
    auto generator = std::make_unique<TrajectoryGenerator>(&city->network,
                                                           landmarks.get());
    auto corpus = generator->GenerateCorpus(150, 20, 5, 79);
    auto maker = std::make_unique<STMaker>(&city->network, landmarks.get(),
                                           FeatureRegistry::BuiltIn());
    std::vector<RawTrajectory> raws;
    for (const auto& t : corpus) raws.push_back(t.raw);
    STMAKER_CHECK(maker->Train(raws).ok());
    Random rng(80);
    auto trip = generator->GenerateTrip(9 * 3600.0, &rng);
    STMAKER_CHECK(trip.ok());
    auto summary = maker->Summarize(trip->raw);
    STMAKER_CHECK(summary.ok());
    struct Out {
      std::unique_ptr<GeneratedMap> city;
      std::unique_ptr<LandmarkIndex> landmarks;
      std::unique_ptr<TrajectoryGenerator> generator;
      std::unique_ptr<STMaker> maker;
      std::string text;
    };
    Out out;
    out.text = summary->text;
    out.city = std::move(city);
    out.landmarks = std::move(landmarks);
    out.generator = std::move(generator);
    out.maker = std::move(maker);
    return out;
  };
  auto first = build();
  auto second = build();
  EXPECT_EQ(first.text, second.text);
  EXPECT_FALSE(first.text.empty());
}

// --------------------------------------------------------------------------
// Request contexts are observationally transparent: a context that never
// fires changes nothing, and a context that does fire changes nothing
// *afterwards*.
// --------------------------------------------------------------------------

// Everything a caller can observe about a summary, flattened for equality
// checks that produce a readable diff on failure.
std::string SummaryFingerprint(const Summary& summary) {
  std::string out = summary.text;
  out += '\n';
  for (const PartitionSummary& p : summary.partitions) {
    out += p.sentence;
    out += '|';
    out += std::to_string(p.seg_begin) + "-" + std::to_string(p.seg_end);
    out += '|';
    for (double r : p.irregular_rates) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g,", r);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

class ContextTransparencyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ContextTransparencyTest, PassiveContextIsByteIdentical) {
  const TestWorld& world = GetTestWorld();
  Random rng(GetParam());
  auto trip = world.generator->GenerateTrip(10 * 3600.0, &rng);
  ASSERT_TRUE(trip.ok());

  // A default context: no deadline, no budget. Threading it through the
  // pipeline must not perturb a single byte of output — the check points
  // are pure observers.
  RequestContext passive;
  auto with_ctx =
      world.maker->Summarize(trip->raw, SummaryOptions(), &passive);
  auto without_ctx = world.maker->Summarize(trip->raw, SummaryOptions());
  ASSERT_TRUE(with_ctx.ok()) << with_ctx.status().ToString();
  ASSERT_TRUE(without_ctx.ok()) << without_ctx.status().ToString();
  EXPECT_EQ(SummaryFingerprint(*with_ctx), SummaryFingerprint(*without_ctx));
}

TEST_P(ContextTransparencyTest, DeadlineFailureLeavesNoPartialState) {
  // Two makers restored from the same model file, so each starts with
  // identical trained state and cold caches. One absorbs a
  // deadline-exceeded request first; if the abort leaked partial state
  // (a truncated cache entry, a half-updated structure), the follow-up
  // summary would differ from the never-failed maker's.
  const TestWorld& world = GetTestWorld();
  const std::string name = "ctx_purity_" + std::to_string(GetParam());
  std::unique_ptr<LoadedModel> tainted_model =
      SaveAndLoad(*world.maker, name + "_a.stm");
  std::unique_ptr<LoadedModel> pristine_model =
      SaveAndLoad(*world.maker, name + "_b.stm");
  const STMaker& tainted = *tainted_model->maker;
  const STMaker& pristine = *pristine_model->maker;

  Random rng(GetParam() + 500);
  auto trip = world.generator->GenerateTrip(15 * 3600.0, &rng);
  ASSERT_TRUE(trip.ok());

  RequestContext expired =
      RequestContext::WithDeadline(std::chrono::milliseconds(-1));
  auto failed = tainted.Summarize(trip->raw, SummaryOptions(), &expired);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kDeadlineExceeded);

  auto after_failure = tainted.Summarize(trip->raw, SummaryOptions());
  auto never_failed = pristine.Summarize(trip->raw, SummaryOptions());
  ASSERT_TRUE(after_failure.ok()) << after_failure.status().ToString();
  ASSERT_TRUE(never_failed.ok()) << never_failed.status().ToString();
  EXPECT_EQ(SummaryFingerprint(*after_failure),
            SummaryFingerprint(*never_failed));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ContextTransparencyTest,
                         ::testing::Values(201u, 202u, 203u));

}  // namespace
}  // namespace stmaker
