// Differential oracle suite for the spatio-temporal trajectory index
// (src/index, DESIGN.md §16). The core contract under test: the indexed
// similarity and region-retrieval paths return *identical* results to a
// brute-force full-corpus scan — same sets, same order, same tie-breaks —
// at every thread count. The oracles here are independent
// reimplementations (std::set intersections over descriptors, direct
// sanitize-and-contain region scans), not calls back into the code under
// test, so a bug in the posting lists or the two-pointer merges fails
// loudly instead of agreeing with itself.
//
// Fuzz coverage: every scenario-DSL topology × 36 seeds = 216 random
// corpora (random subroutes, noise, start times, deliberate corruption),
// plus the 400-trip generated TestWorld.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/context.h"
#include "common/failpoint.h"
#include "common/fileutil.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/strings.h"
#include "core/similarity.h"
#include "core/stmaker.h"
#include "index/trajectory_index.h"
#include "scenario_dsl.h"
#include "test_world.h"
#include "traj/sanitize.h"

namespace stmaker {
namespace {

using ::stmaker::testing::FlipPayloadByte;
using ::stmaker::testing::GetTestWorld;
using ::stmaker::testing::LoadedModel;
using ::stmaker::testing::LoadModelFile;
using ::stmaker::testing::NamedScenario;
using ::stmaker::testing::Scenario;
using ::stmaker::testing::ScenarioCorpus;
using ::stmaker::testing::SaveAndLoad;
using ::stmaker::testing::ScenarioTrip;
using ::stmaker::testing::TestWorld;

// --------------------------------------------------------------------------
// Grid/bucket math against first-principles definitions.
// --------------------------------------------------------------------------

TEST(CellKeyTest, KeysAgreeExactlyWithFloorPairEquality) {
  Random rng(7);
  const double cell = 250.0;
  std::vector<Vec2> points;
  for (int i = 0; i < 200; ++i) {
    points.push_back({rng.Uniform(-3000, 3000), rng.Uniform(-3000, 3000)});
  }
  // Add exact boundary points — floor() edge cases around 0 and negative
  // coordinates are where a naive cast-to-int key scheme breaks.
  points.push_back({0, 0});
  points.push_back({-0.5, -0.5});
  points.push_back({250.0, -250.0});
  points.push_back({-250.0, 249.999});
  for (size_t a = 0; a < points.size(); ++a) {
    for (size_t b = a; b < points.size(); ++b) {
      bool same_cell =
          std::floor(points[a].x / cell) == std::floor(points[b].x / cell) &&
          std::floor(points[a].y / cell) == std::floor(points[b].y / cell);
      EXPECT_EQ(TrajectoryIndex::CellKey(points[a], cell) ==
                    TrajectoryIndex::CellKey(points[b], cell),
                same_cell)
          << "(" << points[a].x << "," << points[a].y << ") vs ("
          << points[b].x << "," << points[b].y << ")";
    }
  }
}

TEST(CellKeyTest, BucketOfIsFloorDivision) {
  EXPECT_EQ(TrajectoryIndex::BucketOf(0.0, 3600.0), 0);
  EXPECT_EQ(TrajectoryIndex::BucketOf(3599.9, 3600.0), 0);
  EXPECT_EQ(TrajectoryIndex::BucketOf(3600.0, 3600.0), 1);
  EXPECT_EQ(TrajectoryIndex::BucketOf(-1.0, 3600.0), -1);
  EXPECT_EQ(TrajectoryIndex::BucketOf(-3600.0, 3600.0), -1);
  EXPECT_EQ(TrajectoryIndex::BucketOf(-3600.1, 3600.0), -2);
}

TEST(CellKeyTest, NonFiniteAndAstronomicalInputsSaturateInsteadOfUB) {
  // Coordinates come off the wire: the grid math must stay defined for
  // anything strtod can produce, not just sane meters. Saturation pins
  // huge values to the extreme buckets (which hold no postings) and NaN
  // to bucket 0.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(TrajectoryIndex::BucketOf(1e300, 3600.0),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(TrajectoryIndex::BucketOf(kInf, 3600.0),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(TrajectoryIndex::BucketOf(-1e300, 3600.0),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(TrajectoryIndex::BucketOf(-kInf, 3600.0),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(TrajectoryIndex::BucketOf(kNaN, 3600.0), 0);
  // CellKey on the same inputs must simply not trap (the packed key is a
  // saturated pair, checked for self-consistency only).
  EXPECT_EQ(TrajectoryIndex::CellKey(Vec2{kInf, -kInf}, 250.0),
            TrajectoryIndex::CellKey(Vec2{1e300, -1e300}, 250.0));
}

// --------------------------------------------------------------------------
// Oracles: independent brute-force reference implementations.
// --------------------------------------------------------------------------

/// One corpus trip reduced for the oracle: cells and labels as plain sets.
struct Reduced {
  bool ok = false;
  std::set<uint64_t> cells;
  std::set<LandmarkId> labels;
  std::vector<double> fingerprint;
};

/// Reduces every corpus trip through the public pipeline entry point
/// (DescribeTrip — itself pinned by the pipeline suites). Computed once
/// per corpus; the per-query oracle below is pure set logic on top.
std::vector<Reduced> ReduceCorpus(const STMaker& maker,
                                  std::span<const RawTrajectory> corpus) {
  std::vector<Reduced> reduced(corpus.size());
  for (size_t t = 0; t < corpus.size(); ++t) {
    Result<TripDescriptor> d = maker.DescribeTrip(corpus[t]);
    if (!d.ok()) continue;
    reduced[t].ok = true;
    for (const auto& [cell, bucket] : d->cell_buckets) {
      reduced[t].cells.insert(cell);
    }
    reduced[t].labels.insert(d->labels.begin(), d->labels.end());
    reduced[t].fingerprint = d->fingerprint;
  }
  return reduced;
}

/// Similarity oracle: reimplements the retrieval semantics from the
/// definition — related = shared grid cell or landmark label (set
/// intersection, not the index's sorted merges), score = Eq. 3 weighted
/// cosine, rank by (score desc, trip asc), truncate to k. Returns nullopt
/// when the query trip is outside the retrieval domain (quarantined by
/// the pipeline).
std::optional<std::vector<TrajectoryIndex::Match>> OracleSimilar(
    const STMaker& maker, const std::vector<Reduced>& reduced, size_t trip,
    size_t k) {
  if (!reduced[trip].ok) return std::nullopt;
  const std::vector<double> weights = maker.registry().Weights();
  auto intersects = [](const auto& a, const auto& b) {
    for (const auto& v : a) {
      if (b.count(v)) return true;
    }
    return false;
  };
  std::vector<TrajectoryIndex::Match> matches;
  for (size_t t = 0; t < reduced.size(); ++t) {
    if (t == trip || !reduced[t].ok) continue;
    if (!intersects(reduced[trip].cells, reduced[t].cells) &&
        !intersects(reduced[trip].labels, reduced[t].labels)) {
      continue;
    }
    matches.push_back(TrajectoryIndex::Match{
        static_cast<uint32_t>(t),
        SegmentSimilarity(reduced[trip].fingerprint, reduced[t].fingerprint,
                          weights)});
  }
  std::stable_sort(matches.begin(), matches.end(),
                   [](const TrajectoryIndex::Match& a,
                      const TrajectoryIndex::Match& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.trip < b.trip;
                   });
  if (matches.size() > k) matches.resize(k);
  return matches;
}

/// Region oracle: sanitize each trip directly (no descriptors, no index)
/// and scan its samples for containment.
std::vector<uint32_t> OracleRegion(
    std::span<const RawTrajectory> corpus, const BoundingBox& box,
    const std::optional<std::pair<double, double>>& window) {
  std::vector<uint32_t> out;
  for (size_t t = 0; t < corpus.size(); ++t) {
    Result<RawTrajectory> sanitized =
        SanitizeTrajectory(corpus[t], SanitizeOptions());
    if (!sanitized.ok()) continue;
    for (const RawSample& s : sanitized->samples) {
      if (!box.Contains(s.pos)) continue;
      if (window.has_value() &&
          (s.time < window->first || s.time > window->second)) {
        continue;
      }
      out.push_back(static_cast<uint32_t>(t));
      break;
    }
  }
  return out;
}

std::string MatchesToString(const std::vector<TrajectoryIndex::Match>& m) {
  std::string out;
  for (const TrajectoryIndex::Match& x : m) {
    out += StrFormat("%u:%.17g ", x.trip, x.score);
  }
  return out;
}

/// Asserts oracle equality for one similarity query, including error
/// agreement for out-of-domain (quarantined) query trips.
void CheckSimilarAgreement(const STMaker& maker,
                           std::span<const RawTrajectory> corpus,
                           const std::vector<Reduced>& reduced, size_t trip,
                           size_t k) {
  auto got = maker.SimilarTrips(corpus, trip, k);
  std::optional<std::vector<TrajectoryIndex::Match>> oracle =
      OracleSimilar(maker, reduced, trip, k);
  if (!oracle.has_value()) {
    EXPECT_FALSE(got.ok()) << "trip " << trip
                           << ": oracle says out-of-domain, index served "
                           << MatchesToString(*got);
    return;
  }
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(MatchesToString(*got), MatchesToString(*oracle))
      << "vs oracle, trip " << trip << " k " << k
      << (maker.has_trajectory_index() ? " (indexed)" : " (scan)");
}

/// Same query with the index dropped (scan fallback) must agree too; run
/// on a throwaway copy restored from the same trained state when callers
/// want to keep the index.
void CheckRegionAgreement(const STMaker& maker,
                          std::span<const RawTrajectory> corpus,
                          const BoundingBox& box,
                          const std::optional<std::pair<double, double>>&
                              window) {
  auto got = maker.QueryRegion(corpus, box, window);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, OracleRegion(corpus, box, window));
  EXPECT_TRUE(std::is_sorted(got->begin(), got->end()));
}

// --------------------------------------------------------------------------
// Scenario-DSL fuzz: random corpora over every hand-drawn topology.
// --------------------------------------------------------------------------

/// A random corpus along a scenario's representative route: random
/// subroutes (forward and reversed), random start times spanning several
/// time buckets, random noise — and, occasionally, a deliberately poisoned
/// trip (teleport or NaN) so quarantined descriptor slots get exercised.
std::vector<RawTrajectory> RandomScenarioCorpus(const Scenario& s,
                                                const NamedScenario& named,
                                                Random& rng) {
  std::vector<RawTrajectory> corpus;
  const std::string& route = named.route;
  size_t count = 8 + rng.UniformInt(8);
  for (size_t i = 0; i < count; ++i) {
    size_t len = 2 + rng.UniformInt(route.size() - 1);
    size_t begin = rng.UniformInt(route.size() - len + 1);
    std::string sub = route.substr(begin, len);
    if (rng.Bernoulli(0.3)) std::reverse(sub.begin(), sub.end());
    double start = rng.Uniform(0, 6 * 3600.0);
    double speed = rng.Uniform(6.0, 14.0);
    double noise = rng.Uniform(0.0, 12.0);
    RawTrajectory trip = ScenarioTrip(s, sub, start, speed,
                                      /*step_m=*/30.0, noise,
                                      /*seed=*/rng.UniformInt(1, 1 << 20));
    trip.traveler = static_cast<int64_t>(i % 5);
    if (rng.Bernoulli(0.12) && trip.samples.size() > 4) {
      // Poison one fix: a teleport the repair policy drops, or a NaN.
      size_t at = 1 + rng.UniformInt(trip.samples.size() - 2);
      if (rng.Bernoulli(0.5)) {
        trip.samples[at].pos.x += 5.0e6;
      } else {
        trip.samples[at].pos.y = std::numeric_limits<double>::quiet_NaN();
      }
    }
    corpus.push_back(std::move(trip));
  }
  return corpus;
}

class IndexFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexFuzzTest, IndexedRetrievalMatchesOracleOnEveryTopology) {
  Random rng(GetParam() * 7919 + 13);
  for (const NamedScenario& named : ScenarioCorpus()) {
    SCOPED_TRACE(named.name);
    Scenario s = named.Build();
    std::vector<RawTrajectory> corpus =
        RandomScenarioCorpus(s, named, rng);

    STMakerOptions options;
    options.num_threads = 1 + static_cast<int>(rng.UniformInt(4));
    STMaker maker(&s.network, s.landmarks.get(), FeatureRegistry::BuiltIn(),
                  options);
    Status trained = maker.Train(corpus);
    if (!trained.ok()) continue;  // tiny corpus fully quarantined — fine
    ASSERT_TRUE(maker.has_trajectory_index());
    const std::vector<Reduced> reduced = ReduceCorpus(maker, corpus);

    // Similarity through the index: every trip as the query, random k.
    std::vector<size_t> ks(corpus.size());
    for (size_t trip = 0; trip < corpus.size(); ++trip) {
      ks[trip] = 1 + rng.UniformInt(corpus.size());
      CheckSimilarAgreement(maker, corpus, reduced, trip, ks[trip]);
    }

    // Region through the index: random boxes (some tiny, some
    // map-spanning), with and without time windows.
    double extent = 120.0 * named.grid_m;
    std::vector<std::pair<BoundingBox,
                          std::optional<std::pair<double, double>>>>
        probes;
    for (int q = 0; q < 8; ++q) {
      Vec2 a{rng.Uniform(-extent * 0.2, extent),
             rng.Uniform(-extent, extent * 0.2)};
      Vec2 b{a.x + rng.Uniform(10.0, extent * 0.6),
             a.y + rng.Uniform(10.0, extent * 0.6)};
      BoundingBox box;
      box.Extend(a);
      box.Extend(b);
      std::optional<std::pair<double, double>> window;
      if (rng.Bernoulli(0.5)) {
        double t0 = rng.Uniform(0, 8 * 3600.0);
        window = std::make_pair(t0, t0 + rng.Uniform(300.0, 4 * 3600.0));
      }
      probes.emplace_back(box, window);
      CheckRegionAgreement(maker, corpus, box, window);
    }

    // Drop the index: the scan fallback must answer every query — both
    // verbs, same arguments — identically.
    maker.DropTrajectoryIndex();
    ASSERT_FALSE(maker.has_trajectory_index());
    for (size_t trip = 0; trip < corpus.size(); ++trip) {
      CheckSimilarAgreement(maker, corpus, reduced, trip, ks[trip]);
    }
    for (const auto& [box, window] : probes) {
      CheckRegionAgreement(maker, corpus, box, window);
    }
  }
}

// 36 seeds × 6 topologies = 216 random corpora.
INSTANTIATE_TEST_SUITE_P(Sweep, IndexFuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{37}));

// --------------------------------------------------------------------------
// Scan-vs-index equality on the full generated world, plus thread-count
// byte-identity of the index itself.
// --------------------------------------------------------------------------

/// Asserts two indexes hold the same geometry and descriptors, field for
/// field and bit for bit — everything the container persists (the
/// train-time symbolic sequence is not).
void ExpectSameIndex(const TrajectoryIndex& got, const TrajectoryIndex& want,
                     const std::string& context) {
  EXPECT_EQ(got.options().cell_m, want.options().cell_m) << context;
  EXPECT_EQ(got.options().bucket_s, want.options().bucket_s) << context;
  ASSERT_EQ(got.descriptors().size(), want.descriptors().size()) << context;
  for (size_t i = 0; i < want.descriptors().size(); ++i) {
    const TripDescriptor& a = got.descriptors()[i];
    const TripDescriptor& b = want.descriptors()[i];
    SCOPED_TRACE(context + ", trip " + std::to_string(i));
    EXPECT_EQ(a.trip, b.trip);
    EXPECT_EQ(a.spatial, b.spatial);
    EXPECT_EQ(a.scored, b.scored);
    EXPECT_EQ(a.bbox.min.x, b.bbox.min.x);
    EXPECT_EQ(a.bbox.min.y, b.bbox.min.y);
    EXPECT_EQ(a.bbox.max.x, b.bbox.max.x);
    EXPECT_EQ(a.bbox.max.y, b.bbox.max.y);
    EXPECT_EQ(a.t_begin, b.t_begin);
    EXPECT_EQ(a.t_end, b.t_end);
    EXPECT_EQ(a.cell_buckets, b.cell_buckets);
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
  }
}

TEST(IndexWorldTest, SimilarTopKMatchesScanAndOracle) {
  const TestWorld& world = GetTestWorld();
  const std::vector<RawTrajectory>& raws = world.raws;
  ASSERT_TRUE(world.maker->has_trajectory_index());

  // A second maker trained identically, then stripped of its index, serves
  // as the live scan baseline.
  LandmarkIndex& landmarks = const_cast<LandmarkIndex&>(*world.landmarks);
  STMaker scan_maker(&world.city.network, &landmarks,
                     FeatureRegistry::BuiltIn());
  ASSERT_TRUE(scan_maker.Train(raws).ok());
  scan_maker.DropTrajectoryIndex();
  ASSERT_FALSE(scan_maker.has_trajectory_index());

  const std::vector<Reduced> reduced = ReduceCorpus(*world.maker, raws);
  Random rng(4242);
  for (int probe = 0; probe < 12; ++probe) {
    size_t trip = rng.UniformInt(raws.size());
    size_t k = 1 + rng.UniformInt(20);
    auto indexed = world.maker->SimilarTrips(raws, trip, k);
    auto scanned = scan_maker.SimilarTrips(raws, trip, k);
    ASSERT_EQ(indexed.ok(), scanned.ok()) << "trip " << trip;
    if (!indexed.ok()) continue;
    EXPECT_EQ(MatchesToString(*indexed), MatchesToString(*scanned))
        << "trip " << trip << " k " << k;
    auto oracle = OracleSimilar(*world.maker, reduced, trip, k);
    ASSERT_TRUE(oracle.has_value());
    EXPECT_EQ(MatchesToString(*indexed), MatchesToString(*oracle));
  }
}

TEST(IndexWorldTest, RegionQueriesMatchScanAndOracle) {
  const TestWorld& world = GetTestWorld();
  const std::vector<RawTrajectory>& raws = world.raws;
  Random rng(515);
  for (int probe = 0; probe < 10; ++probe) {
    BoundingBox box;
    Vec2 a{rng.Uniform(0, 6000), rng.Uniform(-6000, 0)};
    box.Extend(a);
    box.Extend(Vec2{a.x + rng.Uniform(100, 3000),
                    a.y + rng.Uniform(100, 3000)});
    std::optional<std::pair<double, double>> window;
    if (probe % 2 == 0) {
      double t0 = rng.Uniform(0, 7 * 86400.0);
      window = std::make_pair(t0, t0 + rng.Uniform(1800.0, 6 * 3600.0));
    }
    CheckRegionAgreement(*world.maker, raws, box, window);
  }
}

TEST(IndexWorldTest, PlanetSpanningRangesTakeThePostingsWalkNotTheProbeLoop) {
  // Regression: the probe-count guard used to multiply two client-sized
  // uint64 ranges, and a box spanning ~2^32 cells per axis made the
  // product wrap modulo 2^64 to a small value — sending one request into
  // a ~2^64-iteration enumeration (a remote DoS). The guard now screens
  // each axis alone, so these queries answer promptly and agree with the
  // oracle.
  const TestWorld& world = GetTestWorld();
  const std::vector<RawTrajectory>& raws = world.raws;
  ASSERT_TRUE(world.maker->has_trajectory_index());

  BoundingBox planet;
  planet.Extend(Vec2{-5e11, -5e11});
  planet.Extend(Vec2{5e11, 5e11});
  CheckRegionAgreement(*world.maker, raws, planet, std::nullopt);
  // With a window whose bucket range alone is ~2^32: the old guard's
  // cell_range × bucket_range product wrapped here too.
  CheckRegionAgreement(*world.maker, raws, planet,
                       std::make_pair(-1e13, 1e13));
  // Saturated corners (1e300 → the extreme grid cells) stay defined and
  // still refine to the exact containment answer.
  BoundingBox saturated;
  saturated.Extend(Vec2{-1e300, -1e300});
  saturated.Extend(Vec2{1e300, 1e300});
  CheckRegionAgreement(*world.maker, raws, saturated, std::nullopt);
}

TEST(IndexWorldTest, RegionCandidateLoopsObserveCancellation) {
  // The candidate loops run unbounded client-chosen ranges, so they must
  // consult the request context: an expired deadline surfaces
  // kDeadlineExceeded from inside the enumeration instead of running it
  // out. RegionCandidates has no up-front check, so only the loops' own
  // CancelCheck can stop it.
  const TestWorld& world = GetTestWorld();
  ASSERT_TRUE(world.maker->has_trajectory_index());
  const TrajectoryIndex& index = *world.maker->trip_index();

  RequestContext expired =
      RequestContext::WithDeadline(std::chrono::milliseconds(-1));

  // An enumerable strip of ~30k probes: far past the CancelCheck stride,
  // so the deadline must fire mid-loop.
  BoundingBox strip;
  strip.Extend(Vec2{0, 0});
  strip.Extend(Vec2{250.0 * 30000, 10});
  auto probed = index.RegionCandidates(strip, false, 0, 0, &expired);
  ASSERT_FALSE(probed.ok());
  EXPECT_EQ(probed.status().code(), StatusCode::kDeadlineExceeded);

  // The windowed probe loop ticks too: one cell × ~20k buckets is still
  // enumerable, and far past the stride.
  BoundingBox cell;
  cell.Extend(Vec2{0, 0});
  cell.Extend(Vec2{100, 100});
  auto windowed = index.RegionCandidates(cell, true, 0, 3600.0 * 20000,
                                         &expired);
  ASSERT_FALSE(windowed.ok());
  EXPECT_EQ(windowed.status().code(), StatusCode::kDeadlineExceeded);

  // A null context still means "no limits".
  auto free_run = index.RegionCandidates(strip, false, 0, 0, nullptr);
  EXPECT_TRUE(free_run.ok());
}

TEST(IndexWorldTest, CorpusSizeMismatchFallsBackToScanForBothVerbs) {
  // A stale index (descriptor count != serving corpus size) describes
  // different trips; trusting it silently drops or invents results. Both
  // verbs must degrade to the scan path, keeping results identical to an
  // index-free maker.
  std::vector<NamedScenario> scenarios = ScenarioCorpus();
  const NamedScenario& named = scenarios.front();
  Scenario s = named.Build();
  RawTrajectory base = ScenarioTrip(s, named.route, /*start_time=*/1000.0);
  std::vector<RawTrajectory> corpus(5, base);

  STMaker maker(&s.network, s.landmarks.get(), FeatureRegistry::BuiltIn());
  ASSERT_TRUE(maker.Train(corpus).ok());
  ASSERT_TRUE(maker.has_trajectory_index());
  ASSERT_EQ(maker.trip_index()->descriptors().size(), corpus.size());

  // Serve a *larger* corpus than the index was built for: trip 5 exists
  // only in the corpus, never in the postings.
  std::vector<RawTrajectory> extended = corpus;
  extended.push_back(base);

  BoundingBox box;
  for (const RawSample& sample : base.samples) box.Extend(sample.pos);
  auto stale_region = maker.QueryRegion(extended, box, std::nullopt);
  ASSERT_TRUE(stale_region.ok()) << stale_region.status().ToString();
  EXPECT_EQ(*stale_region, OracleRegion(extended, box, std::nullopt))
      << "stale index must not hide corpus trips from region queries";

  auto stale_similar = maker.SimilarTrips(extended, 0, extended.size());
  ASSERT_TRUE(stale_similar.ok()) << stale_similar.status().ToString();

  // The same queries with the index dropped are the ground truth.
  maker.DropTrajectoryIndex();
  auto scan_region = maker.QueryRegion(extended, box, std::nullopt);
  ASSERT_TRUE(scan_region.ok());
  EXPECT_EQ(*stale_region, *scan_region);
  auto scan_similar = maker.SimilarTrips(extended, 0, extended.size());
  ASSERT_TRUE(scan_similar.ok());
  EXPECT_EQ(MatchesToString(*stale_similar), MatchesToString(*scan_similar))
      << "size-mismatched index must not change similarity results";
}

TEST(IndexWorldTest, IndexIsByteIdenticalAcrossThreadCounts) {
  const TestWorld& world = GetTestWorld();
  const std::vector<RawTrajectory>& raws = world.raws;
  ASSERT_TRUE(world.maker->has_trajectory_index());

  LandmarkIndex& landmarks = const_cast<LandmarkIndex&>(*world.landmarks);
  STMakerOptions options;
  options.num_threads = 4;
  STMaker parallel(&world.city.network, &landmarks, FeatureRegistry::BuiltIn(),
                   options);
  ASSERT_TRUE(parallel.Train(raws).ok());
  ASSERT_TRUE(parallel.has_trajectory_index());
  ExpectSameIndex(*parallel.trip_index(), *world.maker->trip_index(),
                  "1 vs 4 training threads");

  // And the responses themselves: same queries, byte-equal renderings.
  Random rng(99);
  for (int probe = 0; probe < 6; ++probe) {
    size_t trip = rng.UniformInt(raws.size());
    auto a = world.maker->SimilarTrips(raws, trip, 8);
    auto b = parallel.SimilarTrips(raws, trip, 8);
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      EXPECT_EQ(MatchesToString(*a), MatchesToString(*b));
    }
  }
}

// --------------------------------------------------------------------------
// Deterministic tie-breaks: duplicated trips share one fingerprint, so
// every pairwise score ties and only the id order can decide.
// --------------------------------------------------------------------------

TEST(IndexTieBreakTest, EqualScoresRankByAscendingTripId) {
  std::vector<NamedScenario> scenarios = ScenarioCorpus();
  const NamedScenario& named = scenarios.front();
  Scenario s = named.Build();
  RawTrajectory base = ScenarioTrip(s, named.route, /*start_time=*/1000.0);
  std::vector<RawTrajectory> corpus(6, base);

  STMaker maker(&s.network, s.landmarks.get(), FeatureRegistry::BuiltIn());
  ASSERT_TRUE(maker.Train(corpus).ok());
  ASSERT_TRUE(maker.has_trajectory_index());

  std::vector<std::string> indexed_renderings;
  for (size_t trip = 0; trip < corpus.size(); ++trip) {
    auto matches = maker.SimilarTrips(corpus, trip, corpus.size());
    ASSERT_TRUE(matches.ok()) << matches.status().ToString();
    ASSERT_EQ(matches->size(), corpus.size() - 1);
    uint32_t last = 0;
    bool first = true;
    for (const TrajectoryIndex::Match& m : *matches) {
      EXPECT_EQ(m.score, (*matches)[0].score) << "all scores must tie";
      if (!first) {
        EXPECT_GT(m.trip, last) << "ties must rank by id";
      }
      last = m.trip;
      first = false;
    }
    indexed_renderings.push_back(MatchesToString(*matches));
  }
  // The scan path must produce the identical orderings.
  maker.DropTrajectoryIndex();
  for (size_t trip = 0; trip < corpus.size(); ++trip) {
    auto scanned = maker.SimilarTrips(corpus, trip, corpus.size());
    ASSERT_TRUE(scanned.ok());
    EXPECT_EQ(indexed_renderings[trip], MatchesToString(*scanned));
  }
}

// --------------------------------------------------------------------------
// Persistence: the index round-trips bit-exactly through the model
// container and restored fingerprints score identically to fresh ones.
// --------------------------------------------------------------------------

TEST(IndexPersistenceTest, SaveLoadRoundTripsByteIdentical) {
  const TestWorld& world = GetTestWorld();
  const std::vector<RawTrajectory>& raws = world.raws;
  std::unique_ptr<LoadedModel> loaded =
      SaveAndLoad(*world.maker, "index_roundtrip.stm");
  const STMaker& restored = *loaded->maker;
  ASSERT_TRUE(restored.has_trajectory_index())
      << "LoadModelContainer must restore the trajectory index";
  ExpectSameIndex(*restored.trip_index(), *world.maker->trip_index(),
                  "saved vs restored");

  // Restored fingerprints are the saved doubles: the similarity scores
  // must be bit-identical, not merely close.
  Random rng(808);
  for (int probe = 0; probe < 8; ++probe) {
    size_t trip = rng.UniformInt(raws.size());
    auto fresh = world.maker->SimilarTrips(raws, trip, 10);
    auto restored_matches = restored.SimilarTrips(raws, trip, 10);
    ASSERT_EQ(fresh.ok(), restored_matches.ok());
    if (fresh.ok()) {
      EXPECT_EQ(MatchesToString(*fresh), MatchesToString(*restored_matches));
    }
  }
}

// --------------------------------------------------------------------------
// Robustness: damaged index sections degrade to the scan path with a
// warning and a metric — the model itself still loads (advisory policy,
// mirroring the contraction hierarchy's).
// --------------------------------------------------------------------------

TEST(IndexRobustnessTest, CorruptIndexSectionFallsBackToScan) {
  const TestWorld& world = GetTestWorld();
  const std::vector<RawTrajectory>& raws = world.raws;
  const std::string path = ::testing::TempDir() + "/index_corrupt.stm";
  ASSERT_TRUE(world.maker->SaveModelContainer(path, raws).ok());

  // Flip a byte in the middle of the fingerprints: the section CRC catches
  // it, the load warns, and similarity queries still work — via the scan.
  Result<std::string> content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  std::string damaged = *content;
  FlipPayloadByte(&damaged, SectionType::kTripFingerprints);
  ASSERT_TRUE(WriteFileToPath(path, damaged).ok());

  MetricsRegistry& registry = MetricsRegistry::Global();
  uint64_t failures_before = registry.counter("index.load_failures").value();

  Result<std::unique_ptr<LoadedModel>> loaded = LoadModelFile(path);
  ASSERT_TRUE(loaded.ok()) << "a damaged index must not fail the model load: "
                           << loaded.status().ToString();
  const STMaker& restored = *(*loaded)->maker;
  EXPECT_FALSE(restored.has_trajectory_index());
  EXPECT_EQ(registry.counter("index.load_failures").value(),
            failures_before + 1);

  // The scan fallback serves identical results to the indexed original.
  auto scanned = restored.SimilarTrips(raws, 3, 5);
  auto indexed = world.maker->SimilarTrips(raws, 3, 5);
  ASSERT_EQ(scanned.ok(), indexed.ok());
  if (scanned.ok()) {
    EXPECT_EQ(MatchesToString(*scanned), MatchesToString(*indexed));
  }
}

TEST(IndexRobustnessTest, BuildFailpointDegradesTrainingToScanPath) {
  if (!FailpointsCompiledIn()) {
    GTEST_SKIP() << "build without -DSTMAKER_FAILPOINTS=ON";
  }
  const TestWorld& world = GetTestWorld();
  const std::vector<RawTrajectory>& raws = world.raws;
  LandmarkIndex& landmarks = const_cast<LandmarkIndex&>(*world.landmarks);
  MetricsRegistry& registry = MetricsRegistry::Global();
  uint64_t failures_before = registry.counter("index.build_failures").value();

  STMaker maker(&world.city.network, &landmarks, FeatureRegistry::BuiltIn());
  ArmFailpoint("index/build");
  ASSERT_TRUE(maker.Train(raws).ok())
      << "an index build failure must never fail training";
  DisarmAllFailpoints();
  EXPECT_FALSE(maker.has_trajectory_index());
  EXPECT_GT(registry.counter("index.build_failures").value(),
            failures_before);

  // Retrieval still works (scan) and agrees with the indexed maker.
  auto scanned = maker.SimilarTrips(raws, 1, 5);
  auto indexed = world.maker->SimilarTrips(raws, 1, 5);
  ASSERT_EQ(scanned.ok(), indexed.ok());
  if (scanned.ok()) {
    EXPECT_EQ(MatchesToString(*scanned), MatchesToString(*indexed));
  }

  // A full retrain without the failpoint recovers the index.
  ASSERT_TRUE(maker.Train(raws).ok());
  EXPECT_TRUE(maker.has_trajectory_index());
}

// --------------------------------------------------------------------------
// Contexts: deadlines surface deterministically.
// --------------------------------------------------------------------------

TEST(IndexContextTest, ExpiredDeadlineFailsBothVerbsDeterministically) {
  const TestWorld& world = GetTestWorld();
  const std::vector<RawTrajectory>& raws = world.raws;
  RequestContext expired =
      RequestContext::WithDeadline(std::chrono::milliseconds(-1));

  auto similar = world.maker->SimilarTrips(raws, 0, 5, &expired);
  ASSERT_FALSE(similar.ok());
  EXPECT_EQ(similar.status().code(), StatusCode::kDeadlineExceeded);

  BoundingBox box;
  box.Extend(Vec2{0, 0});
  box.Extend(Vec2{4000, 4000});
  auto region = world.maker->QueryRegion(raws, box, std::nullopt, &expired);
  ASSERT_FALSE(region.ok());
  EXPECT_EQ(region.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(IndexContextTest, OutOfRangeTripIsAnError) {
  const TestWorld& world = GetTestWorld();
  const std::vector<RawTrajectory>& raws = world.raws;
  auto result = world.maker->SimilarTrips(raws, raws.size(), 5);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace stmaker
