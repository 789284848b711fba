#include "traj/congestion.h"

#include <algorithm>
#include <cmath>

#include "traj/trajectory.h"

namespace stmaker {

namespace {

double Hours(double time_of_day_s) {
  return TimeOfDaySeconds(time_of_day_s) / 3600.0;
}

// Smooth bump centered at `center` with half-width `width` (hours).
double Bump(double h, double center, double width) {
  double d = std::fabs(h - center);
  // Wrap around midnight.
  d = std::min(d, 24.0 - d);
  if (d >= width) return 0;
  double x = d / width;
  return 0.5 * (1.0 + std::cos(M_PI * x));  // 1 at center, 0 at edge.
}

}  // namespace

double CongestionIntensity(double time_of_day_s) {
  double h = Hours(time_of_day_s);
  double intensity = 0;
  intensity += 0.95 * Bump(h, 8.0, 2.5);    // morning rush 6:00–10:00
  intensity += 0.95 * Bump(h, 18.0, 2.5);   // evening rush 16:00–20:00
  intensity += 0.40 * Bump(h, 13.0, 3.5);   // daytime base load
  return std::min(1.0, intensity);
}

double CongestionSpeedFactor(double time_of_day_s) {
  // ~0.72 at night (urban driving stays below design speed: signals and
  // speed limits), ~0.65 midday, ~0.56 at the rush peak. Keeping the night
  // factor close to the volume-weighted daily mean matters for Fig. 8's
  // shape: night trips should rarely deviate enough to get their speed
  // described, while rush-hour trips regularly should.
  double intensity = CongestionIntensity(time_of_day_s);
  return std::max(0.25, 0.72 - 0.17 * intensity);
}

double IntersectionStopProbability(double time_of_day_s) {
  double intensity = CongestionIntensity(time_of_day_s);
  return 0.06 + 0.30 * intensity;
}

double IntersectionStopMeanSeconds(double time_of_day_s) {
  double intensity = CongestionIntensity(time_of_day_s);
  return 25.0 + 50.0 * intensity;
}

}  // namespace stmaker
