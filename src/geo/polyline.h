#ifndef STMAKER_GEO_POLYLINE_H_
#define STMAKER_GEO_POLYLINE_H_

/// \file
/// Planar polyline with cached arc lengths, interpolation, and
/// point-to-polyline projection.

#include <vector>

#include "geo/vec2.h"

namespace stmaker {

/// Result of projecting a point onto a polyline.
struct PolylineProjection {
  double distance = 0;    ///< Euclidean distance from point to polyline, m.
  double arc_length = 0;  ///< Arc-length position of the foot point, m.
  size_t segment = 0;     ///< Index of the segment containing the foot point.
  Vec2 point;             ///< The foot point itself.
};

/// Distance from `p` to the segment [a, b], with the closest point's
/// parameter t in [0, 1] optionally returned.
double PointSegmentDistance(const Vec2& p, const Vec2& a, const Vec2& b,
                            double* t_out = nullptr);

/// \brief A planar polyline with cached cumulative arc lengths.
///
/// Supports the geometric primitives the trajectory pipeline needs:
/// projection of a GPS fix onto a route, interpolation at an arc-length
/// position, and total length. Degenerate polylines (0 or 1 vertex) are
/// allowed; their length is zero.
class Polyline {
 public:
  Polyline() = default;
  explicit Polyline(std::vector<Vec2> points);

  const std::vector<Vec2>& points() const { return points_; }
  size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }

  /// Total arc length in meters.
  double Length() const;

  /// Cumulative arc length at vertex i (0 at the first vertex).
  double CumulativeLength(size_t i) const;

  /// Projects `p` onto the polyline (closest point over all segments;
  /// among equally close segments the lowest index wins). Requires at
  /// least one vertex; a single-vertex polyline projects everything onto
  /// that vertex.
  PolylineProjection Project(const Vec2& p) const;

  /// Projects `p` onto segment i alone (vertices i and i + 1): Project's
  /// per-segment step, for callers that scan only some segments. Keeping
  /// the first strict minimum over ascending i reproduces Project.
  PolylineProjection ProjectOntoSegment(const Vec2& p, size_t i) const;

  /// Point at arc-length `s`, clamped to [0, Length()].
  Vec2 Interpolate(double s) const;

  /// Interpolate(s) for an `s` known to fall on segment i, without the
  /// search: i + 1 is the first vertex with CumulativeLength(i + 1) > s.
  /// As in Interpolate, `s` <= 0 gives the first vertex and `s` >=
  /// Length() the last, whatever i is.
  Vec2 InterpolateOnSegment(size_t i, double s) const;

  /// Heading (degrees from north) of the segment at arc-length `s`.
  /// Returns 0 for degenerate polylines.
  double HeadingAt(double s) const;

 private:
  std::vector<Vec2> points_;
  std::vector<double> cum_;  // cum_[i] = arc length at points_[i].
};

}  // namespace stmaker

#endif  // STMAKER_GEO_POLYLINE_H_
