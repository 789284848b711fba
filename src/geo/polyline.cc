#include "geo/polyline.h"

#include <algorithm>

#include "common/check.h"

namespace stmaker {

double PointSegmentDistance(const Vec2& p, const Vec2& a, const Vec2& b,
                            double* t_out) {
  Vec2 ab = b - a;
  double len2 = Dot(ab, ab);
  double t = 0;
  if (len2 > 0) {
    t = std::clamp(Dot(p - a, ab) / len2, 0.0, 1.0);
  }
  if (t_out != nullptr) *t_out = t;
  return Distance(p, a + ab * t);
}

Polyline::Polyline(std::vector<Vec2> points) : points_(std::move(points)) {
  cum_.reserve(points_.size());
  double acc = 0;
  for (size_t i = 0; i < points_.size(); ++i) {
    if (i > 0) acc += Distance(points_[i - 1], points_[i]);
    cum_.push_back(acc);
  }
}

double Polyline::Length() const { return cum_.empty() ? 0.0 : cum_.back(); }

double Polyline::CumulativeLength(size_t i) const {
  STMAKER_CHECK(i < cum_.size());
  return cum_[i];
}

PolylineProjection Polyline::Project(const Vec2& p) const {
  STMAKER_CHECK(!points_.empty());
  PolylineProjection best;
  if (points_.size() == 1) {
    best.distance = Distance(p, points_[0]);
    best.arc_length = 0;
    best.segment = 0;
    best.point = points_[0];
    return best;
  }
  best.distance = -1;
  for (size_t i = 0; i + 1 < points_.size(); ++i) {
    PolylineProjection proj = ProjectOntoSegment(p, i);
    if (best.distance < 0 || proj.distance < best.distance) best = proj;
  }
  return best;
}

PolylineProjection Polyline::ProjectOntoSegment(const Vec2& p,
                                                size_t i) const {
  STMAKER_CHECK(i + 1 < points_.size());
  PolylineProjection proj;
  double t = 0;
  proj.distance = PointSegmentDistance(p, points_[i], points_[i + 1], &t);
  proj.segment = i;
  proj.arc_length = cum_[i] + t * Distance(points_[i], points_[i + 1]);
  proj.point = points_[i] + (points_[i + 1] - points_[i]) * t;
  return proj;
}

Vec2 Polyline::Interpolate(double s) const {
  STMAKER_CHECK(!points_.empty());
  if (points_.size() == 1 || s <= 0) return points_.front();
  if (s >= Length()) return points_.back();
  // Binary search for the segment containing arc-length s.
  auto it = std::upper_bound(cum_.begin(), cum_.end(), s);
  size_t i = static_cast<size_t>(it - cum_.begin());
  STMAKER_CHECK(i > 0 && i < points_.size());
  return InterpolateOnSegment(i - 1, s);
}

Vec2 Polyline::InterpolateOnSegment(size_t i, double s) const {
  STMAKER_CHECK(i + 1 < points_.size());
  if (s <= 0) return points_.front();
  if (s >= Length()) return points_.back();
  double seg_len = cum_[i + 1] - cum_[i];
  double t = seg_len > 0 ? (s - cum_[i]) / seg_len : 0.0;
  return points_[i] + (points_[i + 1] - points_[i]) * t;
}

}  // namespace stmaker
