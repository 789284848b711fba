#ifndef STMAKER_TRAJ_CONGESTION_H_
#define STMAKER_TRAJ_CONGESTION_H_

/// \file
/// Time-of-day congestion model shared by the trajectory simulator and
/// the speed features.

namespace stmaker {

/// \brief Time-of-day congestion model shared by the trajectory simulator.
///
/// Congestion intensity in [0, 1]: 0 = free flow (small hours), 1 = worst
/// rush hour. The raw signal behind all the time-of-day effects; exposed so
/// the trajectory simulator can couple detour/U-turn propensity to traffic.
double CongestionIntensity(double time_of_day_s);

/// Returns the multiplicative speed factor (0, 1] applied to the free-flow
/// speed at the given time of day, in seconds since midnight. The profile
/// mirrors urban taxi data: deep dips in the morning (06–10) and evening
/// (16–20) rush hours, moderate daytime congestion, near-free-flow at night —
/// the contrast the paper's Fig. 8 relies on.
double CongestionSpeedFactor(double time_of_day_s);

/// Probability that a vehicle is held at a signalized intersection at the
/// given time of day. Higher during congested hours (more red phases hit,
/// queue spill-back), low at night.
double IntersectionStopProbability(double time_of_day_s);

/// Mean duration of an intersection hold, seconds, at the given time of day.
double IntersectionStopMeanSeconds(double time_of_day_s);

}  // namespace stmaker

#endif  // STMAKER_TRAJ_CONGESTION_H_
