#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "landmark/landmark_index.h"
#include "roadnet/road_network.h"
#include "scenario_dsl.h"
#include "test_world.h"
#include "traj/calibration.h"

namespace stmaker {
namespace {

// A 3 km straight street with three POI sites near x = 0, 1500, 3000.
// Raw POIs are tight triplets so DBSCAN collapses each site to one landmark.
LandmarkIndex MakeLineWorld(RoadNetwork* net) {
  NodeId a = net->AddNode({0, 0});
  NodeId b = net->AddNode({3000, 0});
  EXPECT_TRUE(net->AddEdge(a, b, RoadGrade::kNationalRoad, 20,
                           TrafficDirection::kTwoWay, "Long Avenue").ok());
  net->AnnotateTurningPoints();
  net->BuildSpatialIndex();
  std::vector<RawPoi> pois;
  auto site = [&](double x, const std::string& name) {
    pois.push_back({{x - 5, 30}, name});
    pois.push_back({{x, 35}, name});
    pois.push_back({{x + 5, 40}, name});
  };
  site(600, "West Gate");
  site(1500, "Mid Market");
  site(2400, "East Gate");
  return LandmarkIndex::Build(*net, pois);
}

RawTrajectory SampleByTime(double speed_mps, double interval_s,
                           double length_m) {
  RawTrajectory t;
  double time = 1000;
  for (double x = 0; x <= length_m; x += speed_mps * interval_s) {
    t.samples.push_back({{x, 0}, time});
    time += interval_s;
  }
  return t;
}

RawTrajectory SampleByDistance(double speed_mps, double interval_m,
                               double length_m) {
  RawTrajectory t;
  for (double x = 0; x <= length_m; x += interval_m) {
    t.samples.push_back({{x, 0}, 1000 + x / speed_mps});
  }
  return t;
}

class CalibrationTest : public ::testing::Test {
 protected:
  CalibrationTest() : landmarks_(MakeLineWorld(&net_)) {}

  std::vector<LandmarkId> LandmarkSequence(const CalibratedTrajectory& c) {
    std::vector<LandmarkId> out;
    for (const SymbolicSample& s : c.symbolic.samples) {
      out.push_back(s.landmark);
    }
    return out;
  }

  std::vector<std::string> LandmarkNames(const CalibratedTrajectory& c) {
    std::vector<std::string> out;
    for (const SymbolicSample& s : c.symbolic.samples) {
      out.push_back(landmarks_.landmark(s.landmark).name);
    }
    return out;
  }

  RoadNetwork net_;
  LandmarkIndex landmarks_;
};

TEST_F(CalibrationTest, FindsLandmarksAlongRoute) {
  Calibrator calibrator(&landmarks_);
  auto c = calibrator.Calibrate(SampleByTime(10, 10, 3000));
  ASSERT_TRUE(c.ok());
  std::vector<std::string> names = LandmarkNames(*c);
  // The three POI sites appear in travel order (junction landmarks at the
  // street ends may interleave, but order along the arc must hold).
  auto west = std::find(names.begin(), names.end(), "West Gate");
  auto mid = std::find(names.begin(), names.end(), "Mid Market");
  auto east = std::find(names.begin(), names.end(), "East Gate");
  ASSERT_NE(west, names.end());
  ASSERT_NE(mid, names.end());
  ASSERT_NE(east, names.end());
  EXPECT_LT(west - names.begin(), mid - names.begin());
  EXPECT_LT(mid - names.begin(), east - names.begin());
}

TEST_F(CalibrationTest, SamplingInvariance) {
  // The paper's core requirement (Fig. 2): the same route under different
  // sampling strategies must calibrate to the same symbolic trajectory.
  Calibrator calibrator(&landmarks_);
  auto by_time = calibrator.Calibrate(SampleByTime(10, 5, 3000));
  auto by_time_sparse = calibrator.Calibrate(SampleByTime(10, 30, 3000));
  auto by_distance = calibrator.Calibrate(SampleByDistance(10, 80, 3000));
  ASSERT_TRUE(by_time.ok());
  ASSERT_TRUE(by_time_sparse.ok());
  ASSERT_TRUE(by_distance.ok());
  EXPECT_EQ(LandmarkSequence(*by_time), LandmarkSequence(*by_time_sparse));
  EXPECT_EQ(LandmarkSequence(*by_time), LandmarkSequence(*by_distance));
}

TEST_F(CalibrationTest, TimestampsInterpolatedAlongArc) {
  Calibrator calibrator(&landmarks_);
  auto c = calibrator.Calibrate(SampleByTime(10, 10, 3000));
  ASSERT_TRUE(c.ok());
  // Times strictly non-decreasing and consistent with 10 m/s travel.
  for (size_t i = 1; i < c->symbolic.samples.size(); ++i) {
    EXPECT_GE(c->symbolic.samples[i].time, c->symbolic.samples[i - 1].time);
    double dt = c->symbolic.samples[i].time - c->symbolic.samples[i - 1].time;
    double dx = c->arc_positions[i] - c->arc_positions[i - 1];
    EXPECT_NEAR(dx / std::max(dt, 1e-9), 10.0, 1.0);
  }
}

TEST_F(CalibrationTest, SegmentRangesTileTheTrajectory) {
  Calibrator calibrator(&landmarks_);
  auto c = calibrator.Calibrate(SampleByTime(10, 10, 3000));
  ASSERT_TRUE(c.ok());
  ASSERT_GE(c->NumSegments(), 1u);
  const std::vector<std::pair<size_t, size_t>> ranges =
      c->SegmentSampleRanges();
  ASSERT_EQ(ranges.size(), c->NumSegments());
  for (size_t s = 0; s < c->NumSegments(); ++s) {
    auto [first, last] = ranges[s];
    EXPECT_LT(first, last);
    EXPECT_LE(last, c->raw.samples.size());
    auto [t0, t1] = c->SegmentTimeSpan(s);
    EXPECT_LE(t0, t1);
    EXPECT_GT(c->SegmentLength(s), 0);
  }
  // Consecutive ranges overlap by at most the bracketing fix.
  for (size_t s = 1; s < c->NumSegments(); ++s) {
    auto prev = ranges[s - 1];
    auto cur = ranges[s];
    EXPECT_LE(cur.first + 1, prev.second + 1);
    EXPECT_GE(cur.second, prev.second);
  }
}

// ---------------------------------------------------------------------------
// The one-sweep segment ranges against the per-segment scan they replaced.
// ---------------------------------------------------------------------------

/// Segment i's fix range by the per-segment scan, restarting at fix 0: the
/// last fix at or before the segment's start, up to the first fix at or
/// past its end (or the last fix), half-open.
std::pair<size_t, size_t> ScanSegment(const CalibratedTrajectory& c,
                                      size_t i) {
  const double a0 = c.arc_positions[i];
  const double a1 = c.arc_positions[i + 1];
  const size_t n = c.raw.samples.size();
  size_t first = 0;
  while (first + 1 < n && c.geometry.CumulativeLength(first + 1) <= a0) {
    ++first;
  }
  size_t last = first;
  while (last + 1 < n && c.geometry.CumulativeLength(last) < a1) ++last;
  return {first, last + 1};
}

void ExpectRangesMatchTheScan(const CalibratedTrajectory& c,
                              const ::testing::Message& what) {
  SCOPED_TRACE(what);
  const std::vector<std::pair<size_t, size_t>> ranges =
      c.SegmentSampleRanges();
  ASSERT_EQ(ranges.size(), c.NumSegments());
  for (size_t i = 0; i < c.NumSegments(); ++i) {
    EXPECT_EQ(ranges[i], ScanSegment(c, i)) << "segment " << i;
  }
}

/// A hand-built calibrated trajectory over `fixes` (one per second) with
/// landmarks at the given arc positions (non-decreasing).
CalibratedTrajectory HandBuilt(const std::vector<Vec2>& fixes,
                               const std::vector<double>& arcs) {
  CalibratedTrajectory c;
  for (size_t i = 0; i < fixes.size(); ++i) {
    c.raw.samples.push_back({fixes[i], static_cast<double>(i)});
  }
  c.geometry = Polyline(fixes);
  c.arc_positions = arcs;
  for (size_t i = 0; i < arcs.size(); ++i) {
    c.symbolic.samples.push_back(
        {static_cast<LandmarkId>(i), static_cast<double>(i)});
  }
  return c;
}

TEST(SegmentRangeSweepTest, MatchesTheScanOnEdgeCases) {
  // Fixes at x = 0, 100, 100 (repeated), 200, 300, 300, 300, 400.
  const std::vector<Vec2> fixes = {{0, 0},   {100, 0}, {100, 0}, {200, 0},
                                   {300, 0}, {300, 0}, {300, 0}, {400, 0}};
  const std::vector<std::vector<double>> anchor_sets = {
      {0, 400},                      // anchors at arc 0 and the very end
      {0, 100, 100, 300, 400},       // zero-length segments on repeated fixes
      {0, 0, 0, 400, 400},           // zero-length segments at both ends
      {50, 150, 250, 350},           // anchors between fixes
      {100, 300},                    // anchors exactly on repeated fixes
      {0, 100, 200, 300, 400},       // one anchor per distinct fix
      {399.5, 400},                  // a last segment shorter than a step
      {0, 0.5},                      // a first segment shorter than a step
      {250, 250, 250},               // every segment empty
  };
  for (const std::vector<double>& arcs : anchor_sets) {
    ::testing::Message what;
    what << "anchors";
    for (double a : arcs) what << " " << a;
    ExpectRangesMatchTheScan(HandBuilt(fixes, arcs), what);
  }
  // Two fixes only, and every fix at the same place.
  ExpectRangesMatchTheScan(HandBuilt({{0, 0}, {10, 0}}, {0, 10}),
                           ::testing::Message() << "two fixes");
  ExpectRangesMatchTheScan(HandBuilt({{5, 5}, {5, 5}, {5, 5}}, {0, 0, 0}),
                           ::testing::Message() << "a standing trip");
}

TEST(SegmentRangeSweepTest, MatchesTheScanOnTestWorldTrips) {
  const testing::TestWorld& world = testing::GetTestWorld();
  size_t checked = 0;
  for (size_t t = 0; t < world.history.size(); ++t) {
    Result<CalibratedTrajectory> c =
        world.maker->Calibrate(world.history[t].raw);
    if (!c.ok()) continue;
    ExpectRangesMatchTheScan(*c, ::testing::Message() << "trip " << t);
    ++checked;
  }
  EXPECT_GT(checked, world.history.size() / 2);
}

TEST(SegmentRangeSweepTest, MatchesTheScanOnScenarioMaps) {
  size_t checked = 0;
  for (const testing::NamedScenario& named : testing::ScenarioCorpus()) {
    testing::Scenario s = named.Build();
    Calibrator calibrator(s.landmarks.get());
    for (double step_m : {5.0, 15.0, 40.0, 230.0}) {
      for (double noise_m : {0.0, 12.0}) {
        RawTrajectory trip = testing::ScenarioTrip(
            s, named.route, /*start_time=*/0.0, /*speed_mps=*/10.0, step_m,
            noise_m, /*seed=*/3);
        // The same trip with every fix repeated: zero-length polyline
        // steps under the sweep.
        RawTrajectory doubled;
        for (const RawSample& f : trip.samples) {
          doubled.samples.push_back(f);
          doubled.samples.push_back({f.pos, f.time + 0.01});
        }
        for (const RawTrajectory* raw : {&trip, &doubled}) {
          Result<CalibratedTrajectory> c = calibrator.Calibrate(*raw);
          if (!c.ok()) continue;
          ExpectRangesMatchTheScan(
              *c, ::testing::Message()
                      << named.name << " step " << step_m << " noise "
                      << noise_m << (raw == &doubled ? " doubled" : ""));
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(CalibrationTest, MinSpacingThinsCrowdedAnchors) {
  CalibrationOptions options;
  options.min_spacing_m = 5000;  // larger than the whole route
  Calibrator calibrator(&landmarks_, options);
  auto c = calibrator.Calibrate(SampleByTime(10, 10, 3000));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->symbolic.size(), 2u);  // only the two extremes survive
}

TEST_F(CalibrationTest, RejectsTooFewSamples) {
  Calibrator calibrator(&landmarks_);
  RawTrajectory t;
  EXPECT_EQ(calibrator.Calibrate(t).status().code(),
            StatusCode::kInvalidArgument);
  t.samples.push_back({{0, 0}, 0});
  EXPECT_EQ(calibrator.Calibrate(t).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CalibrationTest, RejectsNonMonotonicTimestamps) {
  Calibrator calibrator(&landmarks_);
  RawTrajectory t;
  t.samples = {{{0, 0}, 100}, {{50, 0}, 90}};
  EXPECT_EQ(calibrator.Calibrate(t).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CalibrationTest, RejectsStationaryTrajectory) {
  Calibrator calibrator(&landmarks_);
  RawTrajectory t;
  t.samples = {{{10, 10}, 0}, {{10, 10}, 60}, {{10, 10}, 120}};
  EXPECT_EQ(calibrator.Calibrate(t).status().code(), StatusCode::kNotFound);
}

TEST_F(CalibrationTest, RejectsRouteFarFromAnyLandmark) {
  Calibrator calibrator(&landmarks_);
  RawTrajectory t;
  t.samples = {{{0, 50000}, 0}, {{3000, 50000}, 300}};
  EXPECT_EQ(calibrator.Calibrate(t).status().code(), StatusCode::kNotFound);
}

TEST_F(CalibrationTest, NoiseDoesNotChangeLandmarkSequence) {
  Calibrator calibrator(&landmarks_);
  RawTrajectory clean = SampleByTime(10, 10, 3000);
  RawTrajectory noisy = clean;
  // Deterministic ±8 m zig-zag "noise".
  for (size_t i = 0; i < noisy.samples.size(); ++i) {
    noisy.samples[i].pos.y += (i % 2 == 0) ? 8.0 : -8.0;
  }
  auto c1 = calibrator.Calibrate(clean);
  auto c2 = calibrator.Calibrate(noisy);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(LandmarkSequence(*c1), LandmarkSequence(*c2));
}

}  // namespace
}  // namespace stmaker
