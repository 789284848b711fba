#ifndef STMAKER_GEO_GRID_INDEX_H_
#define STMAKER_GEO_GRID_INDEX_H_

/// \file
/// Uniform spatial hash grid for radius queries over (id, position)
/// pairs.

#include <cstdint>
#include <unordered_map>
#include <vector>

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

/// \brief Uniform spatial hash grid over (id, position) pairs.
///
/// The workhorse index for nearest-landmark and radius queries during
/// calibration and POI clustering. Cell size should be on the order of the
/// typical query radius; a radius query inspects only the cells that
/// overlap the query's bounding square, so correctness does not depend on
/// the choice, only performance.
class GridIndex {
 public:
  /// `cell_size` is the grid pitch in meters (> 0).
  explicit GridIndex(double cell_size);

  /// Inserts an item. Ids need not be unique or dense.
  void Insert(int64_t id, const Vec2& pos);

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

  /// Id of the item nearest to `p`, or -1 when the index is empty.
  /// If `max_radius` >= 0, items farther than it are ignored.
  int64_t Nearest(const Vec2& p, double max_radius = -1) const;

  /// Position stored for item index `i` in insertion order.
  const Vec2& position(size_t i) const { return items_[i].pos; }

 private:
  struct Item {
    int64_t id;
    Vec2 pos;
  };

  struct CellKey {
    int64_t cx;
    int64_t cy;
    bool operator==(const CellKey& o) const {
      return cx == o.cx && cy == o.cy;
    }
  };

  struct CellKeyHash {
    size_t operator()(const CellKey& k) const {
      uint64_t h = static_cast<uint64_t>(k.cx) * 0x9e3779b97f4a7c15ULL;
      h ^= static_cast<uint64_t>(k.cy) + 0x9e3779b97f4a7c15ULL + (h << 6) +
           (h >> 2);
      return static_cast<size_t>(h);
    }
  };

  /// floor(v / cell_size_), saturated to +-2^53.
  int64_t CellCoord(double v) const;
  CellKey CellOf(const Vec2& p) const;

  double cell_size_;
  std::vector<Item> items_;
  std::unordered_map<CellKey, std::vector<size_t>, CellKeyHash> cells_;
  /// Lowest and highest occupied cell on each axis (valid when non-empty).
  CellKey lo_{0, 0};
  CellKey hi_{0, 0};
};

}  // namespace stmaker

#endif  // STMAKER_GEO_GRID_INDEX_H_
