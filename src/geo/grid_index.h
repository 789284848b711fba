#ifndef STMAKER_GEO_GRID_INDEX_H_
#define STMAKER_GEO_GRID_INDEX_H_

/// \file
/// Uniform spatial grid for radius and box queries over (id, position)
/// pairs.

#include <cstdint>
#include <vector>

#include "geo/bounding_box.h"
#include "geo/vec2.h"

namespace stmaker {

/// Slack added around a cell rectangle (a query window, or the cells an
/// item is listed in) so a floating-point distance filter can never accept
/// an item from a cell the rectangle missed: 10^-9 of the magnitudes
/// involved, about 10^6 ulps — far more than the rounding of a distance
/// or of floor(v / cell), and under a centimetre at the 10^7 m coordinate
/// bound, far less than a cell.
inline double CellRoundingPad(double magnitude) {
  return 1e-9 * (1.0 + magnitude);
}

/// \brief Uniform spatial grid over (id, position) pairs.
///
/// The workhorse index for landmark box queries during calibration and
/// radius queries during POI clustering. Cell size should be on the order
/// of the typical query radius; a query inspects only the occupied cells
/// that overlap the query's bounding box, so correctness does not depend
/// on the choice, only performance.
///
/// Immutable once built. The occupied cells are kept as sorted (cell x,
/// cell y) keys with the items of each cell stored contiguously (DESIGN.md
/// §13): the cells of one query column are one run of keys, found by one
/// binary search, so memory and query work grow with the occupied cells,
/// never with the area the items span.
class GridIndex {
 public:
  /// One indexed item. Ids need not be unique or dense.
  struct Item {
    int64_t id;
    Vec2 pos;
  };

  /// Indexes `items` on a grid of `cell_size`-meter cells (> 0). Their
  /// order in `items` is the "insertion order" that breaks ties below.
  GridIndex(double cell_size, std::vector<Item> items);

  size_t size() const { return items_.size(); }

  /// Ids of all items within `radius` meters of `center` (inclusive),
  /// ordered by cell x, then cell y, then insertion order.
  std::vector<int64_t> WithinRadius(const Vec2& center, double radius) const;

  /// Appends the ids of all items within `radius` of `center` to `*out`
  /// (same result and order as WithinRadius). Lets hot paths reuse one
  /// buffer across queries instead of allocating a vector per call. Visits
  /// only the occupied cells that overlap the disc's bounding square.
  void AppendWithinRadius(const Vec2& center, double radius,
                          std::vector<int64_t>* out) const;

  /// Appends the ids of all items inside `box` (edges inclusive) to
  /// `*out`, ordered by cell x, then cell y, then insertion order. Visits
  /// only the occupied cells that overlap the box; an empty box appends
  /// nothing.
  void AppendWithinBox(const BoundingBox& box,
                       std::vector<int64_t>* out) const;

  /// Id of the item nearest to `p`, or -1 when the index is empty.
  /// If `max_radius` >= 0, items farther than it are ignored.
  int64_t Nearest(const Vec2& p, double max_radius = -1) const;

 private:
  struct CellKey {
    int64_t cx;
    int64_t cy;
    bool operator==(const CellKey& o) const {
      return cx == o.cx && cy == o.cy;
    }
    bool operator<(const CellKey& o) const {
      return cx != o.cx ? cx < o.cx : cy < o.cy;
    }
  };

  /// floor(v / cell_size_), saturated to +-2^53.
  int64_t CellCoord(double v) const;
  CellKey CellOf(const Vec2& p) const;

  /// Calls `fn(item)` for every item in the occupied cells that overlap
  /// [lo, hi], by cell x, then cell y, then insertion order.
  template <typename Fn>
  void ForEachInCells(const Vec2& lo, const Vec2& hi, Fn&& fn) const;

  double cell_size_;
  /// Occupied cells, ascending; cell i holds items_[cell_starts_[i],
  /// cell_starts_[i + 1]).
  std::vector<CellKey> cells_;
  std::vector<size_t> cell_starts_;
  /// Grouped by cell, in cells_ order; insertion order within a cell.
  std::vector<Item> items_;
};

}  // namespace stmaker

#endif  // STMAKER_GEO_GRID_INDEX_H_
