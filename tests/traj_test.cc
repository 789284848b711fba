#include <gtest/gtest.h>

#include <cmath>

#include "traj/congestion.h"
#include "traj/stay_point.h"
#include "traj/trajectory.h"
#include "traj/uturn.h"

namespace stmaker {
namespace {

// --------------------------------------------------------------------------
// Trajectory basics
// --------------------------------------------------------------------------

TEST(TrajectoryTest, TimeOfDayWraps) {
  EXPECT_DOUBLE_EQ(TimeOfDaySeconds(0), 0.0);
  EXPECT_DOUBLE_EQ(TimeOfDaySeconds(3600), 3600.0);
  EXPECT_DOUBLE_EQ(TimeOfDaySeconds(kSecondsPerDay + 100), 100.0);
  EXPECT_DOUBLE_EQ(TimeOfDaySeconds(3 * kSecondsPerDay), 0.0);
  EXPECT_DOUBLE_EQ(TimeOfDaySeconds(-100), kSecondsPerDay - 100);
}

TEST(TrajectoryTest, RawAccessors) {
  RawTrajectory t;
  EXPECT_TRUE(t.empty());
  EXPECT_DOUBLE_EQ(t.Duration(), 0.0);
  t.samples = {{{0, 0}, 100.0}, {{10, 0}, 160.0}};
  EXPECT_EQ(t.size(), 2u);
  EXPECT_DOUBLE_EQ(t.StartTime(), 100.0);
  EXPECT_DOUBLE_EQ(t.EndTime(), 160.0);
  EXPECT_DOUBLE_EQ(t.Duration(), 60.0);
}

TEST(TrajectoryTest, SymbolicSegmentCount) {
  SymbolicTrajectory t;
  EXPECT_EQ(t.NumSegments(), 0u);
  t.samples = {{1, 0.0}};
  EXPECT_EQ(t.NumSegments(), 0u);
  t.samples.push_back({2, 10.0});
  t.samples.push_back({3, 20.0});
  EXPECT_EQ(t.NumSegments(), 2u);
}

// --------------------------------------------------------------------------
// Stay points
// --------------------------------------------------------------------------

RawTrajectory DriveWithPause(double pause_s) {
  // Eastward at 10 m/s with a pause at x = 500.
  RawTrajectory t;
  double time = 0;
  for (int x = 0; x <= 500; x += 100) {
    t.samples.push_back({{static_cast<double>(x), 0}, time});
    time += 10;
  }
  time += pause_s;  // stationary, next fix after the pause
  for (int x = 500; x <= 1000; x += 100) {
    t.samples.push_back({{static_cast<double>(x), 0}, time});
    time += 10;
  }
  return t;
}

TEST(StayPointTest, DetectsPauseFromTimeGap) {
  // Even with no fixes during the pause (distance-based sampling), the time
  // gap between nearby fixes reveals the stay.
  RawTrajectory t = DriveWithPause(300);
  std::vector<StayPoint> stays = DetectStayPoints(t, {});
  ASSERT_EQ(stays.size(), 1u);
  EXPECT_NEAR(stays[0].pos.x, 500.0, 60.0);
  EXPECT_GE(stays[0].Duration(), 290.0);
}

TEST(StayPointTest, DetectsDenselySampledStay) {
  RawTrajectory t;
  double time = 0;
  for (int x = 0; x <= 300; x += 100) {
    t.samples.push_back({{static_cast<double>(x), 0}, time});
    time += 10;
  }
  // 12 fixes jittering within 10 m for 120 s.
  for (int i = 0; i < 12; ++i) {
    t.samples.push_back({{300.0 + (i % 2) * 10.0, 0}, time});
    time += 10;
  }
  for (int x = 400; x <= 700; x += 100) {
    t.samples.push_back({{static_cast<double>(x), 0}, time});
    time += 10;
  }
  std::vector<StayPoint> stays = DetectStayPoints(t, {});
  ASSERT_EQ(stays.size(), 1u);
  EXPECT_NEAR(stays[0].pos.x, 305.0, 30.0);
}

TEST(StayPointTest, NoStayOnSteadyDrive) {
  RawTrajectory t = DriveWithPause(0);
  EXPECT_TRUE(DetectStayPoints(t, {}).empty());
}

TEST(StayPointTest, ShortPauseBelowThresholdIgnored) {
  RawTrajectory t = DriveWithPause(50);
  EXPECT_TRUE(DetectStayPoints(t, {.distance_threshold_m = 80,
                                   .time_threshold_s = 90})
                  .empty());
}

TEST(StayPointTest, EmptyAndTinyTrajectories) {
  RawTrajectory t;
  EXPECT_TRUE(DetectStayPoints(t, {}).empty());
  t.samples.push_back({{0, 0}, 0});
  EXPECT_TRUE(DetectStayPoints(t, {}).empty());
}

TEST(StayPointTest, TwoSeparateStays) {
  RawTrajectory t;
  double time = 0;
  auto drive = [&](double from_x, double to_x) {
    for (double x = from_x; x <= to_x; x += 100) {
      t.samples.push_back({{x, 0}, time});
      time += 10;
    }
  };
  drive(0, 300);
  time += 200;  // stay 1 at x = 300
  drive(300, 800);
  time += 150;  // stay 2 at x = 800
  drive(800, 1200);
  std::vector<StayPoint> stays = DetectStayPoints(t, {});
  ASSERT_EQ(stays.size(), 2u);
  EXPECT_LT(stays[0].pos.x, stays[1].pos.x);
}

TEST(StayPointTest, WindowFilter) {
  std::vector<StayPoint> stays = {{{0, 0}, 100, 200}, {{0, 0}, 500, 600}};
  EXPECT_EQ(StayPointsInWindow(stays, 0, 300).size(), 1u);
  EXPECT_EQ(StayPointsInWindow(stays, 0, 1000).size(), 2u);
  EXPECT_EQ(StayPointsInWindow(stays, 150, 400).size(), 0u);
  EXPECT_EQ(StayPointsInWindow(stays, 100, 101).size(), 1u);
}

// --------------------------------------------------------------------------
// U-turns
// --------------------------------------------------------------------------

RawTrajectory OutAndBack() {
  // East 500 m, then back west 500 m at 10 m/s, fix every 50 m.
  RawTrajectory t;
  double time = 0;
  for (int x = 0; x <= 500; x += 50) {
    t.samples.push_back({{static_cast<double>(x), 0}, time});
    time += 5;
  }
  for (int x = 450; x >= -100; x -= 50) {
    t.samples.push_back({{static_cast<double>(x), 0}, time});
    time += 5;
  }
  return t;
}

TEST(UTurnTest, DetectsReversal) {
  std::vector<UTurn> uturns = DetectUTurns(OutAndBack(), {});
  ASSERT_EQ(uturns.size(), 1u);
  EXPECT_NEAR(uturns[0].pos.x, 480.0, 80.0);
}

TEST(UTurnTest, NoUTurnOnRightAngleTurn) {
  RawTrajectory t;
  double time = 0;
  for (int x = 0; x <= 500; x += 50) {
    t.samples.push_back({{static_cast<double>(x), 0}, time});
    time += 5;
  }
  for (int y = 50; y <= 500; y += 50) {
    t.samples.push_back({{500, static_cast<double>(y)}, time});
    time += 5;
  }
  EXPECT_TRUE(DetectUTurns(t, {}).empty());
}

TEST(UTurnTest, GpsJitterAtLowSpeedDoesNotFireDetector) {
  // The vehicle inches forward while fixes jitter ±15 m — heading flips
  // between raw fixes, but legs of >= 60 m suppress the noise.
  RawTrajectory t;
  double time = 0;
  for (int i = 0; i < 60; ++i) {
    double jitter = (i % 2 == 0) ? 15.0 : -15.0;
    t.samples.push_back({{i * 5.0, jitter}, time});
    time += 5;
  }
  EXPECT_TRUE(DetectUTurns(t, {}).empty());
}

TEST(UTurnTest, NearbyReversalsMergeIntoOneEvent) {
  // Double U-turn within the merge window counts once.
  RawTrajectory t;
  double time = 0;
  auto run = [&](double from, double to) {
    double step = from < to ? 40.0 : -40.0;
    for (double x = from; (step > 0) ? x <= to : x >= to; x += step) {
      t.samples.push_back({{x, 0}, time});
      time += 4;
    }
  };
  run(0, 400);
  run(360, 200);   // reversal 1
  run(240, 600);   // reversal 2, ~16 s later
  std::vector<UTurn> uturns =
      DetectUTurns(t, {.min_leg_m = 60, .heading_threshold_deg = 150,
                       .merge_window_s = 60});
  EXPECT_EQ(uturns.size(), 1u);
}

TEST(UTurnTest, SeparatedReversalsCountTwice) {
  RawTrajectory t;
  double time = 0;
  auto run = [&](double from, double to, double dwell_after = 0) {
    double step = from < to ? 40.0 : -40.0;
    for (double x = from; (step > 0) ? x <= to : x >= to; x += step) {
      t.samples.push_back({{x, 0}, time});
      time += 4;
    }
    time += dwell_after;
  };
  run(0, 800);
  run(760, 200, 0);  // reversal 1
  run(240, 900, 0);  // reversal 2 — far in time (long legs)
  std::vector<UTurn> uturns =
      DetectUTurns(t, {.min_leg_m = 60, .heading_threshold_deg = 150,
                       .merge_window_s = 30});
  EXPECT_EQ(uturns.size(), 2u);
}

TEST(UTurnTest, TooFewSamples) {
  RawTrajectory t;
  t.samples = {{{0, 0}, 0}, {{10, 0}, 1}};
  EXPECT_TRUE(DetectUTurns(t, {}).empty());
}

TEST(UTurnTest, WindowFilter) {
  std::vector<UTurn> uturns = {{{0, 0}, 100}, {{0, 0}, 500}};
  EXPECT_EQ(UTurnsInWindow(uturns, 0, 300).size(), 1u);
  EXPECT_EQ(UTurnsInWindow(uturns, 99, 501).size(), 2u);
  EXPECT_EQ(UTurnsInWindow(uturns, 500, 500).size(), 0u);
}

// --------------------------------------------------------------------------
// Congestion model
// --------------------------------------------------------------------------

TEST(CongestionTest, RushHourSlowerThanMiddayslowerThanNight) {
  double rush = CongestionSpeedFactor(8.0 * 3600);    // 08:00
  double midday = CongestionSpeedFactor(13.0 * 3600); // 13:00
  double night = CongestionSpeedFactor(2.0 * 3600);   // 02:00
  EXPECT_LT(rush, midday);
  EXPECT_LT(midday, night);
  EXPECT_GT(rush, 0.2);
  EXPECT_LE(night, 1.0);
}

TEST(CongestionTest, EveningRushMirrorsMorning) {
  EXPECT_NEAR(CongestionSpeedFactor(8.0 * 3600),
              CongestionSpeedFactor(18.0 * 3600), 0.05);
}

TEST(CongestionTest, FactorsBoundedEverywhere) {
  for (int m = 0; m < 24 * 60; m += 7) {
    double t = m * 60.0;
    double f = CongestionSpeedFactor(t);
    EXPECT_GE(f, 0.25) << "minute " << m;
    EXPECT_LE(f, 1.0) << "minute " << m;
    double p = IntersectionStopProbability(t);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    EXPECT_GT(IntersectionStopMeanSeconds(t), 0);
  }
}

TEST(CongestionTest, StopsMoreLikelyAtRushHour) {
  EXPECT_GT(IntersectionStopProbability(8.0 * 3600),
            IntersectionStopProbability(2.0 * 3600));
  EXPECT_GT(IntersectionStopMeanSeconds(18.0 * 3600),
            IntersectionStopMeanSeconds(3.0 * 3600));
}

}  // namespace
}  // namespace stmaker
