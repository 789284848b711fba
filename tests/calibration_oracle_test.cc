// Differential oracle for anchor-based calibration (Def. 2/3): a naive
// restatement of the anchor semantics, compared bit for bit with a
// cache-off Calibrator.
//
// The oracle walks the polyline with the calibrator's `s += scan_step_m`
// loop and Polyline::Interpolate, and tests every landmark against every
// probe point with `Distance(landmark, probe) <= r`. It projects each
// candidate with a linear scan over all segments (strict `<` update, so the
// lowest segment index wins ties), then sorts, thins and times the anchors
// exactly as the calibrator does. However the calibrator finds its
// candidates, its landmark ids, times, arc positions and status must equal
// this.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "geo/polyline.h"
#include "landmark/landmark_index.h"
#include "roadnet/map_generator.h"
#include "scenario_dsl.h"
#include "test_world.h"
#include "traj/calibration.h"
#include "traj/generator.h"

namespace stmaker {
namespace {

using ::stmaker::testing::GetTestWorld;

/// The oracle's verdict: a status code and, when OK, the kept anchors.
struct OracleResult {
  StatusCode code = StatusCode::kOk;
  std::vector<LandmarkId> ids;
  std::vector<double> times;
  std::vector<double> arcs;
  /// Anchors before thinning whose distance is exactly the radius.
  size_t anchors_at_radius = 0;
};

/// Fix time at arc position `s`: linear in arc length between the
/// bracketing fixes (the calibrator's interpolation, restated).
double OracleTimeAtArc(const Polyline& geometry, const RawTrajectory& raw,
                       double s) {
  const size_t n = raw.samples.size();
  if (s <= 0) return raw.samples.front().time;
  if (s >= geometry.Length()) return raw.samples.back().time;
  size_t lo = 0;
  size_t hi = n - 1;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (geometry.CumulativeLength(mid) < s) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return raw.samples.front().time;
  const double a0 = geometry.CumulativeLength(lo - 1);
  const double a1 = geometry.CumulativeLength(lo);
  const double t0 = raw.samples[lo - 1].time;
  const double t1 = raw.samples[lo].time;
  if (a1 <= a0) return t0;
  const double t = (s - a0) / (a1 - a0);
  return t0 + t * (t1 - t0);
}

OracleResult OracleCalibrate(const LandmarkIndex& landmarks,
                             const RawTrajectory& raw,
                             const CalibrationOptions& options) {
  OracleResult out;
  if (raw.samples.size() < 2) {
    out.code = StatusCode::kInvalidArgument;
    return out;
  }
  for (size_t i = 1; i < raw.samples.size(); ++i) {
    if (raw.samples[i].time < raw.samples[i - 1].time) {
      out.code = StatusCode::kInvalidArgument;
      return out;
    }
  }
  std::vector<Vec2> points;
  for (const RawSample& s : raw.samples) points.push_back(s.pos);
  const Polyline geometry(points);
  const double length = geometry.Length();
  if (length <= 0) {
    out.code = StatusCode::kNotFound;
    return out;
  }

  std::vector<Vec2> probes;
  for (double s = 0;; s += options.scan_step_m) {
    const bool last = s >= length;
    probes.push_back(geometry.Interpolate(std::min(s, length)));
    if (last) break;
  }

  struct Anchor {
    LandmarkId id;
    double arc;
    double dist;
    double significance;
  };
  const double r = options.anchor_radius_m;
  std::vector<Anchor> anchors;
  for (const Landmark& lm : landmarks.landmarks()) {
    bool candidate = false;
    for (const Vec2& p : probes) {
      if (Distance(lm.pos, p) <= r) {
        candidate = true;
        break;
      }
    }
    if (!candidate) continue;
    double best = -1;
    double arc = 0;
    for (size_t k = 0; k + 1 < points.size(); ++k) {
      double t = 0;
      const double d =
          PointSegmentDistance(lm.pos, points[k], points[k + 1], &t);
      if (best < 0 || d < best) {
        best = d;
        arc = geometry.CumulativeLength(k) +
              t * Distance(points[k], points[k + 1]);
      }
    }
    if (best <= r) {
      anchors.push_back({lm.id, arc, best, lm.significance});
      if (best == r) ++out.anchors_at_radius;
    }
  }
  std::sort(anchors.begin(), anchors.end(),
            [](const Anchor& a, const Anchor& b) {
              if (a.arc != b.arc) return a.arc < b.arc;
              if (a.dist != b.dist) return a.dist < b.dist;
              return a.id < b.id;
            });

  // Pinned origin and destination; interior anchors within the spacing
  // window of the last kept one compete on distance, then significance.
  const double spacing = options.min_spacing_m;
  std::vector<Anchor> kept;
  if (!anchors.empty()) kept.push_back(anchors.front());
  for (size_t i = 1; i + 1 < anchors.size(); ++i) {
    const Anchor& a = anchors[i];
    if (a.arc - kept.back().arc < spacing) {
      if (kept.size() > 1) {
        const Anchor& prev = kept.back();
        const bool replace = a.dist < prev.dist ||
                             (a.dist == prev.dist &&
                              a.significance > prev.significance);
        if (replace && anchors.back().arc - a.arc >= spacing) {
          kept.back() = a;
        }
      }
      continue;
    }
    if (anchors.back().arc - a.arc < spacing) continue;
    kept.push_back(a);
  }
  if (anchors.size() >= 2) kept.push_back(anchors.back());
  if (kept.size() < 2) {
    out.code = StatusCode::kNotFound;
    return out;
  }
  for (const Anchor& a : kept) {
    out.ids.push_back(a.id);
    out.times.push_back(OracleTimeAtArc(geometry, raw, a.arc));
    out.arcs.push_back(a.arc);
  }
  return out;
}

/// Every combination of anchor radius, scan step and spacing the suite
/// sweeps, all with the cache off.
std::vector<CalibrationOptions> OptionGrid() {
  std::vector<CalibrationOptions> grid;
  for (double radius : {40.0, 120.0, 400.0}) {
    for (double step : {7.0, 50.0, 500.0}) {
      for (double spacing : {0.0, 80.0}) {
        CalibrationOptions options;
        options.anchor_radius_m = radius;
        options.scan_step_m = step;
        options.min_spacing_m = spacing;
        options.cache_size = 0;
        grid.push_back(options);
      }
    }
  }
  return grid;
}

CalibrationOptions DefaultsUncached() {
  CalibrationOptions options;
  options.cache_size = 0;
  return options;
}

/// Runs trips through the calibrator and the oracle and tallies what was
/// compared, so every test can also assert it was not vacuous.
class OracleDiff {
 public:
  explicit OracleDiff(const LandmarkIndex* landmarks)
      : landmarks_(landmarks) {}

  void Check(const RawTrajectory& raw, const CalibrationOptions& options,
             const std::string& context) {
    SCOPED_TRACE(context + " r=" + std::to_string(options.anchor_radius_m) +
                 " step=" + std::to_string(options.scan_step_m) +
                 " spacing=" + std::to_string(options.min_spacing_m));
    const OracleResult want = OracleCalibrate(*landmarks_, raw, options);
    const Calibrator calibrator(landmarks_, options);
    const Result<CalibratedTrajectory> got = calibrator.Calibrate(raw);
    ASSERT_EQ(got.status().code(), want.code) << got.status().ToString();
    ++checked_;
    anchors_at_radius_ += want.anchors_at_radius;
    if (want.code == StatusCode::kNotFound) ++not_found_;
    if (!got.ok()) return;
    ++calibrated_;
    const std::vector<SymbolicSample>& samples = got->symbolic.samples;
    ASSERT_EQ(samples.size(), want.ids.size());
    ASSERT_EQ(got->arc_positions.size(), want.arcs.size());
    for (size_t i = 0; i < samples.size(); ++i) {
      EXPECT_EQ(samples[i].landmark, want.ids[i]) << "anchor " << i;
      EXPECT_EQ(std::bit_cast<uint64_t>(samples[i].time),
                std::bit_cast<uint64_t>(want.times[i]))
          << "anchor " << i;
      EXPECT_EQ(std::bit_cast<uint64_t>(got->arc_positions[i]),
                std::bit_cast<uint64_t>(want.arcs[i]))
          << "anchor " << i;
    }
    anchors_ += samples.size();
  }

  void CheckGrid(const RawTrajectory& raw, const std::string& context) {
    for (const CalibrationOptions& options : OptionGrid()) {
      Check(raw, options, context);
    }
  }

  size_t checked() const { return checked_; }
  size_t calibrated() const { return calibrated_; }
  size_t not_found() const { return not_found_; }
  size_t anchors() const { return anchors_; }
  size_t anchors_at_radius() const { return anchors_at_radius_; }

 private:
  const LandmarkIndex* landmarks_;
  size_t checked_ = 0;
  size_t calibrated_ = 0;
  size_t not_found_ = 0;
  size_t anchors_ = 0;
  size_t anchors_at_radius_ = 0;
};

/// Fixes at 10 m/s along the vertex list, one fix per vertex.
RawTrajectory TripThrough(const std::vector<Vec2>& vertices,
                          double start_time = 1000) {
  RawTrajectory trip;
  double time = start_time;
  for (size_t i = 0; i < vertices.size(); ++i) {
    if (i > 0) time += Distance(vertices[i - 1], vertices[i]) / 10.0;
    trip.samples.push_back({vertices[i], time});
  }
  return trip;
}

/// `corners` subdivided so that consecutive fixes are at most `step`
/// apart. Each fix is a + (b − a)·j / pieces, multiplied before dividing,
/// so integer corners give exact fixes wherever the division is exact.
std::vector<Vec2> Densify(const std::vector<Vec2>& corners, double step) {
  std::vector<Vec2> out = {corners.front()};
  for (size_t i = 1; i < corners.size(); ++i) {
    const Vec2 a = corners[i - 1];
    const Vec2 b = corners[i];
    const double pieces = std::max(1.0, std::ceil(Distance(a, b) / step));
    for (double j = 1; j <= pieces; ++j) {
      out.push_back({a.x + (b.x - a.x) * j / pieces,
                     a.y + (b.y - a.y) * j / pieces});
    }
  }
  return out;
}

/// A hand-placed landmark set over 250 m index cells: every cell corner
/// and edge midpoint of a 3.5 km square, plus scattered landmarks, with
/// significances drawn from a few values so that thinning sees exact
/// significance ties as well as strict orders.
LandmarkIndex CellEdgeLandmarks(std::vector<Vec2> extra = {}) {
  std::vector<Vec2> positions;
  for (int i = -2; i <= 12; ++i) {
    for (int j = -2; j <= 12; ++j) {
      positions.push_back({250.0 * i, 250.0 * j});          // corner
      positions.push_back({250.0 * i + 125.0, 250.0 * j});  // horizontal
      positions.push_back({250.0 * i, 250.0 * j + 125.0});  // vertical
    }
  }
  Random rng(17);
  for (int i = 0; i < 300; ++i) {
    positions.push_back({rng.Uniform(-500, 3000), rng.Uniform(-500, 3000)});
  }
  positions.insert(positions.end(), extra.begin(), extra.end());
  std::vector<Landmark> landmarks;
  for (const Vec2& p : positions) {
    Landmark lm;
    lm.id = static_cast<LandmarkId>(landmarks.size());
    lm.pos = p;
    lm.name = std::to_string(lm.id);
    lm.significance = 0.25 * static_cast<double>(rng.UniformInt(0, 3));
    landmarks.push_back(std::move(lm));
  }
  std::vector<NodeId> nodes(landmarks.size(), -1);
  Result<LandmarkIndex> index =
      LandmarkIndex::FromParts(std::move(landmarks), std::move(nodes),
                               /*num_network_nodes=*/0,
                               /*index_cell_m=*/250.0);
  STMAKER_CHECK(index.ok());
  return std::move(index).value();
}

TEST(CalibrationOracleTest, TestWorldTripsMatch) {
  const auto& world = GetTestWorld();
  OracleDiff diff(world.landmarks.get());
  for (size_t i = 0; i < world.raws.size(); ++i) {
    diff.Check(world.raws[i], DefaultsUncached(), "trip " + std::to_string(i));
  }
  for (size_t i = 0; i < world.raws.size(); i += 16) {
    diff.CheckGrid(world.raws[i], "trip " + std::to_string(i));
  }
  EXPECT_GT(diff.calibrated(), diff.checked() / 2);
  EXPECT_GT(diff.anchors(), 10 * diff.calibrated());
}

TEST(CalibrationOracleTest, GeneratedWorldsMatch) {
  for (uint64_t seed : {3, 11}) {
    SCOPED_TRACE("world seed " + std::to_string(seed));
    MapGeneratorOptions map_options;
    map_options.blocks_x = seed == 3 ? 8 : 6;
    map_options.blocks_y = seed == 3 ? 6 : 9;
    map_options.block_size_m = seed == 3 ? 400.0 : 300.0;
    map_options.seed = seed;
    GeneratedMap city = MapGenerator(map_options).Generate();
    PoiGeneratorOptions poi_options;
    poi_options.num_sites = 90;
    poi_options.seed = seed + 100;
    LandmarkIndex landmarks = LandmarkIndex::Build(
        city.network, PoiGenerator(poi_options).Generate(city.network));
    // Coarse significances, so equal-distance anchors also tie on them.
    Random rng(seed);
    for (const Landmark& lm : landmarks.landmarks()) {
      landmarks.SetSignificance(
          lm.id, 0.5 * static_cast<double>(rng.UniformInt(0, 2)));
    }
    TrajectoryGeneratorOptions trip_options;
    trip_options.min_od_distance_m = 1500;
    TrajectoryGenerator generator(&city.network, &landmarks, trip_options);
    std::vector<GeneratedTrip> trips =
        generator.GenerateCorpus(/*count=*/24, /*num_travelers=*/6,
                                 /*num_days=*/2, /*seed=*/seed * 7);
    ASSERT_FALSE(trips.empty());
    OracleDiff diff(&landmarks);
    for (size_t i = 0; i < trips.size(); ++i) {
      diff.CheckGrid(trips[i].raw, "trip " + std::to_string(i));
    }
    EXPECT_GT(diff.calibrated(), diff.checked() / 2);
  }
}

TEST(CalibrationOracleTest, ScenarioMapsMatch) {
  size_t calibrated = 0;
  for (const auto& named : ::stmaker::testing::ScenarioCorpus()) {
    SCOPED_TRACE(named.name);
    ::stmaker::testing::Scenario s = named.Build();
    OracleDiff diff(s.landmarks.get());
    for (double step_m : {15.0, 40.0, 230.0}) {
      for (double noise_m : {0.0, 12.0}) {
        RawTrajectory trip = ::stmaker::testing::ScenarioTrip(
            s, named.route, /*start_time=*/0.0, /*speed_mps=*/10.0, step_m,
            noise_m, /*seed=*/5);
        diff.CheckGrid(trip, "step " + std::to_string(step_m) + " noise " +
                                 std::to_string(noise_m));
      }
    }
    calibrated += diff.calibrated();
  }
  EXPECT_GT(calibrated, 0u);
}

TEST(CalibrationOracleTest, LoopsCrossingsAndUTurnsMatch) {
  const LandmarkIndex landmarks = CellEdgeLandmarks();
  OracleDiff diff(&landmarks);
  const std::vector<std::pair<std::string, std::vector<Vec2>>> shapes = {
      // A closed square loop that ends where it started.
      {"loop", {{0, 0}, {1000, 0}, {1000, 1000}, {0, 1000}, {0, 0}}},
      // Two loops round the same block: every landmark near it is
      // equidistant from two laps.
      {"double loop",
       {{0, 0}, {750, 0}, {750, 500}, {0, 500}, {0, 0}, {750, 0},
        {750, 500}, {0, 500}}},
      // Self-crossing: a bow tie through the middle of a cell.
      {"bow tie", {{0, 0}, {1000, 1000}, {1000, 0}, {0, 1000}}},
      // Straight out and straight back on the same line: every landmark
      // is equidistant from both legs.
      {"u-turn", {{0, 0}, {1500, 0}, {0, 0}}},
      // Out and back on a lane 30 m over, along a cell edge.
      {"offset u-turn", {{0, 250}, {1500, 250}, {1500, 280}, {0, 280}}},
      // A diagonal corridor with a hairpin.
      {"hairpin",
       {{125, 125}, {2000, 1300}, {2100, 1250}, {200, 40}, {180, 60}}},
  };
  for (const auto& [name, corners] : shapes) {
    for (double spacing : {37.0, 100.0, 333.0}) {
      diff.CheckGrid(TripThrough(Densify(corners, spacing)),
                     name + " fixes every " + std::to_string(spacing));
    }
    diff.CheckGrid(TripThrough(corners), name + " corners only");
  }
  EXPECT_GT(diff.calibrated(), diff.checked() / 2);
}

TEST(CalibrationOracleTest, DegenerateSamplingMatches) {
  const LandmarkIndex landmarks = CellEdgeLandmarks();
  OracleDiff diff(&landmarks);
  const std::vector<Vec2> street =
      Densify({{0, 0}, {1200, 0}, {1200, 900}}, 100);

  // Every fix repeated (zero-length segments), the first and last most.
  RawTrajectory repeated;
  double time = 0;
  for (size_t i = 0; i < street.size(); ++i) {
    const int copies = (i == 0 || i + 1 == street.size()) ? 4 : 2;
    for (int c = 0; c < copies; ++c) {
      repeated.samples.push_back({street[i], time});
      time += 5;
    }
  }
  diff.CheckGrid(repeated, "repeated fixes");

  // Stationary stretches with equal timestamps.
  RawTrajectory stalled = TripThrough(street);
  stalled.samples.insert(stalled.samples.begin() + 6, stalled.samples[6]);
  stalled.samples.insert(stalled.samples.begin() + 6, stalled.samples[6]);
  diff.CheckGrid(stalled, "stalled");

  // One segment, long and diagonal; and one short segment.
  diff.CheckGrid(TripThrough({{10, 20}, {2300, 1700}}), "one long segment");
  diff.CheckGrid(TripThrough({{490, 260}, {530, 240}}), "one short segment");

  // Trips shorter than the scan step (two probes: start and end).
  diff.CheckGrid(TripThrough({{240, 240}, {255, 245}, {262, 251}}),
                 "shorter than step");
  diff.CheckGrid(TripThrough(Densify({{600, 400}, {900, 500}}, 40)),
                 "shorter than the coarse step");

  // A trip whose length is not a multiple of the step: the final probe is
  // the last fix, off the step lattice.
  diff.CheckGrid(TripThrough(Densify({{0, 10}, {1021, 10}}, 100)),
                 "ragged end");
  EXPECT_GT(diff.calibrated(), 0u);
}

TEST(CalibrationOracleTest, LandmarksOnCellEdgesAndAtExactlyTheRadius) {
  // Integer geometry: a street along y = 0 (itself a cell edge) with a fix
  // every 100 m, so every probe that lands on a fix is exact. Landmarks sit
  // exactly r from such probes, perpendicular and along Pythagorean
  // offsets (0.6r, 0.8r), where a `<` instead of `<=` loses them; others
  // sit on cell edges and corners just off the end of the trip, reachable
  // only from the final probe.
  const std::vector<Vec2> street = Densify({{0, 0}, {3000, 0}}, 100);
  for (const CalibrationOptions& options : OptionGrid()) {
    const double r = options.anchor_radius_m;
    std::vector<Vec2> extra;
    for (double x : {0.0, 500.0, 1000.0, 1400.0, 2100.0, 2500.0}) {
      extra.push_back({x, r});
      extra.push_back({x, -r});
      extra.push_back({x + 0.6 * r, 0.8 * r});
      extra.push_back({x - 0.8 * r, -0.6 * r});
    }
    extra.push_back({3000 + r, 0});
    extra.push_back({3000 + 0.6 * r, -0.8 * r});
    const LandmarkIndex landmarks = CellEdgeLandmarks(extra);
    OracleDiff diff(&landmarks);
    diff.Check(TripThrough(street), options, "street");
    diff.Check(TripThrough(Densify({{0, 0}, {3010, 0}}, 100)), options,
               "street with a ragged end");
    EXPECT_GT(diff.anchors_at_radius(), 0u);
    EXPECT_EQ(diff.calibrated(), 2u);
  }
}

TEST(CalibrationOracleTest, RejectionsMatch) {
  const LandmarkIndex landmarks = CellEdgeLandmarks({{50000, 50000}});
  OracleDiff diff(&landmarks);
  const CalibrationOptions options = DefaultsUncached();
  diff.Check(RawTrajectory{}, options, "empty");
  diff.Check(TripThrough({{0, 0}}), options, "one fix");
  RawTrajectory backwards = TripThrough({{0, 0}, {500, 0}, {900, 0}});
  backwards.samples[2].time = backwards.samples[1].time - 1;
  diff.Check(backwards, options, "time runs backwards");
  diff.Check(TripThrough({{300, 300}, {300, 300}, {300, 300}}), options,
             "stationary");
  // Far from every landmark, and near exactly one.
  diff.Check(TripThrough({{40000, 40000}, {41000, 40000}}), options,
             "far away");
  diff.Check(TripThrough({{49900, 50000}, {50100, 50000}}), options,
             "one landmark in reach");
  diff.CheckGrid(TripThrough({{20000, -9000}, {20000, -7000}}),
                 "far away, every option");
  EXPECT_EQ(diff.calibrated(), 0u);
  EXPECT_GE(diff.not_found(), 3u);
}

}  // namespace
}  // namespace stmaker
