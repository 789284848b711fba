#include "geo/grid_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"

namespace stmaker {

GridIndex::GridIndex(double cell_size, std::vector<Item> items)
    : cell_size_(cell_size) {
  STMAKER_CHECK(cell_size > 0);
  // Group the items by cell, in key order, keeping insertion order within
  // a cell: a sort on (cell, index in `items`).
  std::vector<std::pair<CellKey, size_t>> order;
  order.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    order.push_back({CellOf(items[i].pos), i});
  }
  std::sort(order.begin(), order.end());
  items_.reserve(items.size());
  for (const auto& [cell, i] : order) {
    if (cells_.empty() || !(cells_.back() == cell)) {
      cells_.push_back(cell);
      cell_starts_.push_back(items_.size());
    }
    items_.push_back(items[i]);
  }
  cell_starts_.push_back(items_.size());
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

std::vector<int64_t> GridIndex::WithinRadius(const Vec2& center,
                                             double radius) const {
  std::vector<int64_t> out;
  AppendWithinRadius(center, radius, &out);
  return out;
}

template <typename Fn>
void GridIndex::ForEachInCells(const Vec2& lo, const Vec2& hi,
                               Fn&& fn) const {
  // CellCoord is monotone, so every item inside [lo, hi] lies in a cell
  // between those of the corners. The cells of one column are one run of
  // the sorted keys; a binary search finds its start, and an empty column
  // jumps straight to the next occupied one.
  const int64_t x1 = CellCoord(hi.x);
  const int64_t y0 = CellCoord(lo.y);
  const int64_t y1 = CellCoord(hi.y);
  auto it = cells_.begin();
  for (int64_t cx = CellCoord(lo.x); cx <= x1; ++cx) {
    it = std::lower_bound(it, cells_.end(), CellKey{cx, y0});
    if (it == cells_.end() || it->cx > x1) return;
    if (it->cx > cx) {
      cx = it->cx - 1;  // the loop step lands on the next occupied column
      continue;
    }
    for (; it != cells_.end() && it->cx == cx && it->cy <= y1; ++it) {
      const size_t cell = static_cast<size_t>(it - cells_.begin());
      for (size_t i = cell_starts_[cell]; i < cell_starts_[cell + 1]; ++i) {
        fn(items_[i]);
      }
    }
  }
}

void GridIndex::AppendWithinRadius(const Vec2& center, double radius,
                                   std::vector<int64_t>* out) const {
  if (!(radius >= 0)) return;
  // Every item the distance filter accepts lies within `radius` of the
  // centre on each axis, so it is inside the disc's padded bounding square.
  const double reach =
      radius + CellRoundingPad(std::max(
                   {std::fabs(center.x), std::fabs(center.y), radius}));
  ForEachInCells({center.x - reach, center.y - reach},
                 {center.x + reach, center.y + reach}, [&](const Item& item) {
                   if (Distance(item.pos, center) <= radius) {
                     out->push_back(item.id);
                   }
                 });
}

void GridIndex::AppendWithinBox(const BoundingBox& box,
                                std::vector<int64_t>* out) const {
  ForEachInCells(box.min, box.max, [&](const Item& item) {
    if (box.Contains(item.pos)) out->push_back(item.id);
  });
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
        const CellKey key{c.cx + dx, c.cy + dy};
        auto it = std::lower_bound(cells_.begin(), cells_.end(), key);
        if (it == cells_.end() || !(*it == key)) continue;
        const size_t cell = static_cast<size_t>(it - cells_.begin());
        for (size_t i = cell_starts_[cell]; i < cell_starts_[cell + 1]; ++i) {
          double d = Distance(items_[i].pos, p);
          if (d < best_d) {
            best_d = d;
            best_id = items_[i].id;
          }
        }
      }
    }
  }
  if (best_id < 0 && capped) {
    // Ring budget exhausted without a hit (extremely sparse index far from
    // the query); fall back to an exact linear scan, in cell order.
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
