#ifndef STMAKER_GEO_VEC2_H_
#define STMAKER_GEO_VEC2_H_

/// \file
/// Minimal 2-D vector type and arithmetic.

#include <cmath>

namespace stmaker {

/// 2D point/vector in a local planar projection, units of meters.
/// x grows east, y grows north.
struct Vec2 {
  double x = 0;
  double y = 0;
};

inline Vec2 operator+(const Vec2& a, const Vec2& b) {
  return {a.x + b.x, a.y + b.y};
}
inline Vec2 operator-(const Vec2& a, const Vec2& b) {
  return {a.x - b.x, a.y - b.y};
}
inline Vec2 operator*(const Vec2& a, double s) { return {a.x * s, a.y * s}; }
inline Vec2 operator*(double s, const Vec2& a) { return a * s; }
inline bool operator==(const Vec2& a, const Vec2& b) {
  return a.x == b.x && a.y == b.y;
}

inline double Dot(const Vec2& a, const Vec2& b) { return a.x * b.x + a.y * b.y; }
inline double Cross(const Vec2& a, const Vec2& b) { return a.x * b.y - a.y * b.x; }
inline double Norm(const Vec2& a) { return std::sqrt(Dot(a, a)); }
inline double Distance(const Vec2& a, const Vec2& b) { return Norm(a - b); }

/// Largest coordinate magnitude, in projected meters, that any input may
/// carry: 10,000 km covers any local projection. Trajectory sanitizing
/// drops fixes beyond it; the world readers (road-network and POI CSVs,
/// container node and landmark records) reject the whole input.
inline constexpr double kMaxAbsCoordM = 1.0e7;

/// True when both components are finite and at most kMaxAbsCoordM in
/// magnitude (NaN fails every comparison, so it is rejected too).
inline bool IsBoundedCoord(const Vec2& p) {
  return std::fabs(p.x) <= kMaxAbsCoordM && std::fabs(p.y) <= kMaxAbsCoordM;
}

/// Heading of the vector in degrees clockwise from north, in [0, 360).
/// Matches compass convention: (0,1) → 0°, (1,0) → 90°.
inline double HeadingDegrees(const Vec2& v) {
  double deg = std::atan2(v.x, v.y) * 180.0 / M_PI;
  if (deg < 0) deg += 360.0;
  return deg;
}

/// Smallest absolute difference between two headings, in [0, 180].
inline double HeadingDifference(double a, double b) {
  double d = std::fabs(a - b);
  while (d > 360.0) d -= 360.0;
  return d > 180.0 ? 360.0 - d : d;
}

}  // namespace stmaker

#endif  // STMAKER_GEO_VEC2_H_
