#include "geo/grid_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace stmaker {

GridIndex::GridIndex(double cell_size) : cell_size_(cell_size) {
  STMAKER_CHECK(cell_size > 0);
}

int64_t GridIndex::CellCoord(double v) const {
  // Saturated to +-2^53 so no value (huge, infinite or NaN) reaches an
  // undefined float-to-int cast; monotone, so intervals map to intervals.
  constexpr double kLimit = 9007199254740992.0;  // 2^53
  const double c = std::floor(v / cell_size_);
  if (!(c > -kLimit)) return -static_cast<int64_t>(kLimit);  // NaN too
  if (c >= kLimit) return static_cast<int64_t>(kLimit);
  return static_cast<int64_t>(c);
}

GridIndex::CellKey GridIndex::CellOf(const Vec2& p) const {
  return {CellCoord(p.x), CellCoord(p.y)};
}

void GridIndex::Insert(int64_t id, const Vec2& pos) {
  size_t idx = items_.size();
  items_.push_back({id, pos});
  const CellKey cell = CellOf(pos);
  cells_[cell].push_back(idx);
  if (idx == 0) {
    lo_ = hi_ = cell;
  } else {
    lo_ = {std::min(lo_.cx, cell.cx), std::min(lo_.cy, cell.cy)};
    hi_ = {std::max(hi_.cx, cell.cx), std::max(hi_.cy, cell.cy)};
  }
}

std::vector<int64_t> GridIndex::WithinRadius(const Vec2& center,
                                             double radius) const {
  std::vector<int64_t> out;
  AppendWithinRadius(center, radius, &out);
  return out;
}

void GridIndex::AppendWithinRadius(const Vec2& center, double radius,
                                   std::vector<int64_t>* out) const {
  if (!(radius >= 0) || items_.empty()) return;
  // Visit only the cells that overlap the disc's bounding square, clipped
  // to the occupied cells, by cell x, then cell y, then insertion order.
  // Every item the distance filter accepts lies within `radius` of the
  // centre on each axis, so its cell is among them.
  const double reach =
      radius + CellRoundingPad(std::max(
                   {std::fabs(center.x), std::fabs(center.y), radius}));
  const int64_t x0 = std::max(CellCoord(center.x - reach), lo_.cx);
  const int64_t x1 = std::min(CellCoord(center.x + reach), hi_.cx);
  const int64_t y0 = std::max(CellCoord(center.y - reach), lo_.cy);
  const int64_t y1 = std::min(CellCoord(center.y + reach), hi_.cy);
  for (int64_t cx = x0; cx <= x1; ++cx) {
    for (int64_t cy = y0; cy <= y1; ++cy) {
      auto it = cells_.find({cx, cy});
      if (it == cells_.end()) continue;
      for (size_t idx : it->second) {
        if (Distance(items_[idx].pos, center) <= radius) {
          out->push_back(items_[idx].id);
        }
      }
    }
  }
}

int64_t GridIndex::Nearest(const Vec2& p, double max_radius) const {
  if (items_.empty()) return -1;
  // Expanding ring search: examine cells at increasing Chebyshev distance
  // until a hit is found, then one more ring to guarantee the true nearest.
  CellKey c = CellOf(p);
  int64_t best_id = -1;
  double best_d = std::numeric_limits<double>::infinity();
  // Upper bound on rings: enough to cover the requested radius, capped at
  // 2^16 (a linear fallback below handles sparse overflow).
  constexpr double kRingCap = 1 << 16;
  const bool capped = !(max_radius >= 0 && max_radius / cell_size_ < kRingCap);
  int64_t max_ring = 2 + static_cast<int64_t>(
      capped ? kRingCap : std::ceil(max_radius / cell_size_));
  for (int64_t ring = 0; ring <= max_ring; ++ring) {
    // Any cell at Chebyshev ring k is at least (k-1)*cell_size_ away from p,
    // so once that bound exceeds the best distance the search is complete.
    if (best_id >= 0 && (ring - 1) * cell_size_ > best_d) break;
    for (int64_t dx = -ring; dx <= ring; ++dx) {
      for (int64_t dy = -ring; dy <= ring; ++dy) {
        if (std::max(std::llabs(dx), std::llabs(dy)) != ring) continue;
        auto it = cells_.find({c.cx + dx, c.cy + dy});
        if (it == cells_.end()) continue;
        for (size_t idx : it->second) {
          double d = Distance(items_[idx].pos, p);
          if (d < best_d) {
            best_d = d;
            best_id = items_[idx].id;
          }
        }
      }
    }
  }
  if (best_id < 0 && capped) {
    // Ring budget exhausted without a hit (extremely sparse index far from
    // the query); fall back to an exact linear scan.
    for (const Item& item : items_) {
      double d = Distance(item.pos, p);
      if (d < best_d) {
        best_d = d;
        best_id = item.id;
      }
    }
  }
  if (max_radius >= 0 && best_d > max_radius) return -1;
  return best_id;
}

}  // namespace stmaker
