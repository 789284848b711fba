#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "geo/bounding_box.h"
#include "geo/grid_index.h"
#include "geo/latlon.h"
#include "geo/polyline.h"
#include "geo/projection.h"
#include "geo/vec2.h"

namespace stmaker {
namespace {

// --------------------------------------------------------------------------
// LatLon / Haversine
// --------------------------------------------------------------------------

TEST(HaversineTest, ZeroDistanceForSamePoint) {
  LatLon p{39.9, 116.4};
  EXPECT_DOUBLE_EQ(HaversineMeters(p, p), 0.0);
}

TEST(HaversineTest, OneDegreeLatitudeIsAbout111Km) {
  LatLon a{39.0, 116.0};
  LatLon b{40.0, 116.0};
  EXPECT_NEAR(HaversineMeters(a, b), 111195.0, 200.0);
}

TEST(HaversineTest, Symmetric) {
  LatLon a{39.9383, 116.339};
  LatLon b{39.9253, 116.310};
  EXPECT_DOUBLE_EQ(HaversineMeters(a, b), HaversineMeters(b, a));
}

TEST(HaversineTest, PaperTableIDistance) {
  // The first and last fixes of the paper's Table I trajectory are ~2.9 km
  // apart in Beijing.
  LatLon a{39.9383, 116.339};
  LatLon b{39.9253, 116.310};
  double d = HaversineMeters(a, b);
  EXPECT_GT(d, 2500.0);
  EXPECT_LT(d, 3300.0);
}

// --------------------------------------------------------------------------
// Projection
// --------------------------------------------------------------------------

TEST(ProjectionTest, OriginMapsToZero) {
  LocalProjection proj(LatLon{39.9, 116.4});
  Vec2 xy = proj.ToXY(LatLon{39.9, 116.4});
  EXPECT_NEAR(xy.x, 0.0, 1e-9);
  EXPECT_NEAR(xy.y, 0.0, 1e-9);
}

TEST(ProjectionTest, RoundTrip) {
  LocalProjection proj(LatLon{39.9, 116.4});
  LatLon p{39.95, 116.32};
  LatLon back = proj.ToLatLon(proj.ToXY(p));
  EXPECT_NEAR(back.lat, p.lat, 1e-9);
  EXPECT_NEAR(back.lon, p.lon, 1e-9);
}

TEST(ProjectionTest, DistancesMatchHaversineAtCityScale) {
  LocalProjection proj(LatLon{39.9, 116.4});
  LatLon a{39.93, 116.35};
  LatLon b{39.88, 116.45};
  double planar = Distance(proj.ToXY(a), proj.ToXY(b));
  double sphere = HaversineMeters(a, b);
  EXPECT_NEAR(planar / sphere, 1.0, 0.002);
}

// --------------------------------------------------------------------------
// Vec2
// --------------------------------------------------------------------------

TEST(Vec2Test, Arithmetic) {
  Vec2 a{1, 2};
  Vec2 b{3, -1};
  EXPECT_EQ((a + b), (Vec2{4, 1}));
  EXPECT_EQ((a - b), (Vec2{-2, 3}));
  EXPECT_EQ((a * 2.0), (Vec2{2, 4}));
  EXPECT_DOUBLE_EQ(Dot(a, b), 1.0);
  EXPECT_DOUBLE_EQ(Cross(a, b), -7.0);
  EXPECT_DOUBLE_EQ(Norm(Vec2{3, 4}), 5.0);
}

TEST(Vec2Test, HeadingCompassConvention) {
  EXPECT_NEAR(HeadingDegrees({0, 1}), 0.0, 1e-9);    // north
  EXPECT_NEAR(HeadingDegrees({1, 0}), 90.0, 1e-9);   // east
  EXPECT_NEAR(HeadingDegrees({0, -1}), 180.0, 1e-9); // south
  EXPECT_NEAR(HeadingDegrees({-1, 0}), 270.0, 1e-9); // west
}

TEST(Vec2Test, HeadingDifferenceWraps) {
  EXPECT_NEAR(HeadingDifference(350, 10), 20.0, 1e-9);
  EXPECT_NEAR(HeadingDifference(0, 180), 180.0, 1e-9);
  EXPECT_NEAR(HeadingDifference(90, 90), 0.0, 1e-9);
  EXPECT_NEAR(HeadingDifference(10, 350), 20.0, 1e-9);
}

// --------------------------------------------------------------------------
// Polyline
// --------------------------------------------------------------------------

TEST(PolylineTest, LengthOfSquarePath) {
  Polyline line({{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  EXPECT_DOUBLE_EQ(line.Length(), 30.0);
  EXPECT_DOUBLE_EQ(line.CumulativeLength(0), 0.0);
  EXPECT_DOUBLE_EQ(line.CumulativeLength(2), 20.0);
}

TEST(PolylineTest, DegenerateCases) {
  EXPECT_DOUBLE_EQ(Polyline().Length(), 0.0);
  Polyline single({{5, 5}});
  EXPECT_DOUBLE_EQ(single.Length(), 0.0);
  PolylineProjection p = single.Project({8, 9});
  EXPECT_DOUBLE_EQ(p.distance, 5.0);
  EXPECT_DOUBLE_EQ(p.arc_length, 0.0);
}

TEST(PolylineTest, ProjectOntoSegmentInterior) {
  Polyline line({{0, 0}, {10, 0}});
  PolylineProjection p = line.Project({4, 3});
  EXPECT_DOUBLE_EQ(p.distance, 3.0);
  EXPECT_DOUBLE_EQ(p.arc_length, 4.0);
  EXPECT_EQ(p.segment, 0u);
  EXPECT_NEAR(p.point.x, 4.0, 1e-9);
  EXPECT_NEAR(p.point.y, 0.0, 1e-9);
}

TEST(PolylineTest, ProjectClampsToEndpoints) {
  Polyline line({{0, 0}, {10, 0}});
  EXPECT_DOUBLE_EQ(line.Project({-3, 4}).distance, 5.0);
  EXPECT_DOUBLE_EQ(line.Project({-3, 4}).arc_length, 0.0);
  EXPECT_DOUBLE_EQ(line.Project({13, 4}).arc_length, 10.0);
}

TEST(PolylineTest, ProjectPicksNearestOfManySegments) {
  Polyline line({{0, 0}, {10, 0}, {10, 10}});
  PolylineProjection p = line.Project({9, 8});
  EXPECT_EQ(p.segment, 1u);
  EXPECT_DOUBLE_EQ(p.distance, 1.0);
  EXPECT_DOUBLE_EQ(p.arc_length, 18.0);
}

TEST(PolylineTest, InterpolateAtArcPositions) {
  Polyline line({{0, 0}, {10, 0}, {10, 10}});
  EXPECT_EQ(line.Interpolate(-5), (Vec2{0, 0}));
  EXPECT_EQ(line.Interpolate(0), (Vec2{0, 0}));
  Vec2 mid = line.Interpolate(5);
  EXPECT_NEAR(mid.x, 5.0, 1e-9);
  Vec2 corner = line.Interpolate(10);
  EXPECT_NEAR(corner.x, 10.0, 1e-9);
  EXPECT_NEAR(corner.y, 0.0, 1e-9);
  Vec2 up = line.Interpolate(15);
  EXPECT_NEAR(up.y, 5.0, 1e-9);
  EXPECT_EQ(line.Interpolate(999), (Vec2{10, 10}));
}

TEST(PolylineTest, InterpolateProjectConsistency) {
  // Project(Interpolate(s)) should return arc ≈ s for points on the line.
  Polyline line({{0, 0}, {50, 0}, {50, 80}, {-20, 80}});
  for (double s = 0; s <= line.Length(); s += 7.3) {
    PolylineProjection p = line.Project(line.Interpolate(s));
    EXPECT_NEAR(p.distance, 0.0, 1e-9);
    EXPECT_NEAR(p.arc_length, s, 1e-6);
  }
}

TEST(PointSegmentDistanceTest, DegenerateSegment) {
  double t = -1;
  double d = PointSegmentDistance({3, 4}, {0, 0}, {0, 0}, &t);
  EXPECT_DOUBLE_EQ(d, 5.0);
  EXPECT_DOUBLE_EQ(t, 0.0);
}

// --------------------------------------------------------------------------
// BoundingBox
// --------------------------------------------------------------------------

TEST(BoundingBoxTest, EmptyThenExtend) {
  BoundingBox box;
  EXPECT_TRUE(box.IsEmpty());
  EXPECT_DOUBLE_EQ(box.Width(), 0.0);
  box.Extend({1, 2});
  EXPECT_FALSE(box.IsEmpty());
  EXPECT_TRUE(box.Contains({1, 2}));
  box.Extend({-1, 5});
  EXPECT_TRUE(box.Contains({0, 3}));
  EXPECT_FALSE(box.Contains({2, 3}));
  EXPECT_DOUBLE_EQ(box.Width(), 2.0);
  EXPECT_DOUBLE_EQ(box.Height(), 3.0);
}

// --------------------------------------------------------------------------
// GridIndex — property-checked against brute force.
// --------------------------------------------------------------------------

struct GridIndexParam {
  double cell_size;
  int num_points;
  uint64_t seed;
};

class GridIndexPropertyTest
    : public ::testing::TestWithParam<GridIndexParam> {};

/// A grid over `points` whose ids are their indices.
GridIndex IndexOf(double cell_size, const std::vector<Vec2>& points) {
  std::vector<GridIndex::Item> items;
  for (size_t i = 0; i < points.size(); ++i) {
    items.push_back({static_cast<int64_t>(i), points[i]});
  }
  return GridIndex(cell_size, std::move(items));
}

/// Brute-force WithinRadius in the index's documented order: by cell x,
/// then cell y, then insertion index (ids equal insertion indices here).
std::vector<int64_t> BruteWithinRadius(const std::vector<Vec2>& points,
                                       double cell_size, const Vec2& center,
                                       double radius) {
  std::vector<std::tuple<double, double, int64_t>> hits;
  for (size_t i = 0; i < points.size(); ++i) {
    if (Distance(points[i], center) <= radius) {
      hits.emplace_back(std::floor(points[i].x / cell_size),
                        std::floor(points[i].y / cell_size),
                        static_cast<int64_t>(i));
    }
  }
  std::sort(hits.begin(), hits.end());
  std::vector<int64_t> ids;
  for (const auto& hit : hits) ids.push_back(std::get<2>(hit));
  return ids;
}

TEST_P(GridIndexPropertyTest, RadiusQueriesMatchBruteForce) {
  const GridIndexParam param = GetParam();
  Random rng(param.seed);
  std::vector<Vec2> points;
  for (int i = 0; i < param.num_points; ++i) {
    points.push_back({rng.Uniform(-1000, 1000), rng.Uniform(-1000, 1000)});
  }
  // Extra items exactly on cell edges: on a vertical edge, a horizontal
  // edge, or a corner, on both sides of the origin.
  Random edge_rng(param.seed + 1000);
  auto on_edge = [&](double v) {
    return std::round(v / param.cell_size) * param.cell_size;
  };
  for (int i = 0; i < 30; ++i) {
    Vec2 p{edge_rng.Uniform(-1000, 1000), edge_rng.Uniform(-1000, 1000)};
    if (i % 3 != 1) p.x = on_edge(p.x);
    if (i % 3 != 0) p.y = on_edge(p.y);
    points.push_back(p);
  }
  const GridIndex index = IndexOf(param.cell_size, points);
  for (int q = 0; q < 40; ++q) {
    Vec2 center{rng.Uniform(-1200, 1200), rng.Uniform(-1200, 1200)};
    double radius = rng.Uniform(0, 400);
    EXPECT_EQ(index.WithinRadius(center, radius),
              BruteWithinRadius(points, param.cell_size, center, radius));
  }
  // Centres on cell edges, radii that are and are not multiples of the
  // cell size, and radii that reach exactly to an item (inclusive bound).
  for (int q = 0; q < 40; ++q) {
    Vec2 center{edge_rng.Uniform(-1200, 1200), edge_rng.Uniform(-1200, 1200)};
    if (q % 2 == 0) center = {on_edge(center.x), on_edge(center.y)};
    const size_t target = static_cast<size_t>(q * 7) % points.size();
    const double radii[] = {Distance(points[target], center),
                            param.cell_size * (1 + q % 3),
                            param.cell_size * edge_rng.Uniform(0.1, 3.7),
                            0.0};
    for (double radius : radii) {
      std::vector<int64_t> got = index.WithinRadius(center, radius);
      EXPECT_EQ(got,
                BruteWithinRadius(points, param.cell_size, center, radius))
          << "centre (" << center.x << ", " << center.y << ") r=" << radius;
    }
    std::vector<int64_t> reach =
        index.WithinRadius(center, Distance(points[target], center));
    EXPECT_NE(std::find(reach.begin(), reach.end(),
                        static_cast<int64_t>(target)),
              reach.end());
  }
}

/// Brute-force AppendWithinBox in the index's documented order (ids equal
/// insertion indices here).
std::vector<int64_t> BruteWithinBox(const std::vector<Vec2>& points,
                                    double cell_size, const BoundingBox& box) {
  std::vector<std::tuple<double, double, int64_t>> hits;
  for (size_t i = 0; i < points.size(); ++i) {
    if (box.Contains(points[i])) {
      hits.emplace_back(std::floor(points[i].x / cell_size),
                        std::floor(points[i].y / cell_size),
                        static_cast<int64_t>(i));
    }
  }
  std::sort(hits.begin(), hits.end());
  std::vector<int64_t> ids;
  for (const auto& hit : hits) ids.push_back(std::get<2>(hit));
  return ids;
}

TEST_P(GridIndexPropertyTest, BoxQueriesMatchBruteForce) {
  const GridIndexParam param = GetParam();
  Random rng(param.seed + 2);
  std::vector<Vec2> points;
  auto on_edge = [&](double v) {
    return std::round(v / param.cell_size) * param.cell_size;
  };
  for (int i = 0; i < param.num_points + 30; ++i) {
    Vec2 p{rng.Uniform(-1000, 1000), rng.Uniform(-1000, 1000)};
    // The last 30 sit on a vertical edge, a horizontal edge, or a corner.
    if (i >= param.num_points && i % 3 != 1) p.x = on_edge(p.x);
    if (i >= param.num_points && i % 3 != 0) p.y = on_edge(p.y);
    points.push_back(p);
  }
  const GridIndex index = IndexOf(param.cell_size, points);
  auto check = [&](const BoundingBox& box, const std::string& what) {
    std::vector<int64_t> got = {-7};  // appended to, never cleared
    index.AppendWithinBox(box, &got);
    ASSERT_FALSE(got.empty());
    EXPECT_EQ(got.front(), -7);
    got.erase(got.begin());
    EXPECT_EQ(got, BruteWithinBox(points, param.cell_size, box))
        << what << " [" << box.min.x << ", " << box.max.x << "] x ["
        << box.min.y << ", " << box.max.y << "]";
  };
  for (int q = 0; q < 40; ++q) {
    BoundingBox box;
    box.Extend({rng.Uniform(-1200, 1200), rng.Uniform(-1200, 1200)});
    box.Extend({rng.Uniform(-1200, 1200), rng.Uniform(-1200, 1200)});
    check(box, "random");
    // Edges exactly on items: both items are inside (inclusive edges).
    const Vec2& a = points[rng.UniformInt(points.size())];
    const Vec2& b = points[rng.UniformInt(points.size())];
    BoundingBox on_items;
    on_items.Extend(a);
    on_items.Extend(b);
    check(on_items, "edges on items");
    // Edges exactly on cell edges.
    BoundingBox on_cells = box;
    on_cells.min = {on_edge(box.min.x), on_edge(box.min.y)};
    on_cells.max = {on_edge(box.max.x), on_edge(box.max.y)};
    check(on_cells, "edges on cell edges");
    // A point box on an item, and one in empty space.
    check(BoundingBox{a, a}, "point box on an item");
    const Vec2 c{rng.Uniform(-1200, 1200), rng.Uniform(-1200, 1200)};
    check(BoundingBox{c, c}, "point box");
  }
  // Empty boxes: the default one, and boxes inverted on one axis.
  check(BoundingBox{}, "default");
  check(BoundingBox{{10, -500}, {-10, 500}}, "inverted x");
  check(BoundingBox{{-500, 10}, {500, -10}}, "inverted y");
  // Beyond the occupied cells, overlapping them, and enclosing them all.
  check(BoundingBox{{5000, 5000}, {6000, 6000}}, "beyond");
  check(BoundingBox{{-1e7, -3000}, {-2000, 3000}}, "west of everything");
  check(BoundingBox{{-1500, -1500}, {-900, 1500}}, "west edge");
  check(BoundingBox{{-1e7, -1e7}, {1e7, 1e7}}, "everything");
  std::vector<int64_t> all;
  index.AppendWithinBox(BoundingBox{{-1e7, -1e7}, {1e7, 1e7}}, &all);
  EXPECT_EQ(all.size(), points.size());
}

TEST_P(GridIndexPropertyTest, NearestMatchesBruteForce) {
  const GridIndexParam param = GetParam();
  Random rng(param.seed + 1);
  std::vector<Vec2> points;
  for (int i = 0; i < param.num_points; ++i) {
    points.push_back({rng.Uniform(-1000, 1000), rng.Uniform(-1000, 1000)});
  }
  const GridIndex index = IndexOf(param.cell_size, points);
  for (int q = 0; q < 40; ++q) {
    Vec2 center{rng.Uniform(-3000, 3000), rng.Uniform(-3000, 3000)};
    int64_t got = index.Nearest(center);
    ASSERT_GE(got, 0);
    double best = 1e300;
    for (int i = 0; i < param.num_points; ++i) {
      best = std::min(best, Distance(points[i], center));
    }
    EXPECT_NEAR(Distance(points[got], center), best, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GridIndexPropertyTest,
    ::testing::Values(GridIndexParam{50.0, 200, 1},
                      GridIndexParam{250.0, 200, 2},
                      GridIndexParam{10.0, 50, 3},
                      GridIndexParam{1000.0, 500, 4},
                      GridIndexParam{100.0, 1, 5},
                      GridIndexParam{37.5, 300, 6}));

TEST(GridIndexTest, EmptyIndexBehaviour) {
  const GridIndex index(100, {});
  EXPECT_EQ(index.Nearest({0, 0}), -1);
  EXPECT_TRUE(index.WithinRadius({0, 0}, 1000).empty());
}

TEST(GridIndexTest, MaxRadiusFiltersNearest) {
  const GridIndex index(100, {{7, {500, 0}}});
  EXPECT_EQ(index.Nearest({0, 0}, 100.0), -1);
  EXPECT_EQ(index.Nearest({0, 0}, 600.0), 7);
  EXPECT_EQ(index.Nearest({0, 0}), 7);
}

TEST(GridIndexTest, DuplicatePositionsAllReturned) {
  const GridIndex index(100, {{1, {10, 10}}, {2, {10, 10}}});
  std::vector<int64_t> got = index.WithinRadius({10, 10}, 1.0);
  EXPECT_EQ(got.size(), 2u);
}

TEST(GridIndexTest, QueryOverEmptyCellsFindsNothing) {
  // Items in one far corner; probes over the vast empty region between
  // must walk only vacant cells and return clean empties.
  const GridIndex index(50, {{1, {100000, 100000}}});
  EXPECT_TRUE(index.WithinRadius({0, 0}, 400).empty());
  EXPECT_TRUE(index.WithinRadius({-50000, 30000}, 400).empty());
  EXPECT_EQ(index.Nearest({0, 0}, 400), -1);
}

TEST(GridIndexTest, BoxOverSparseColumnsFindsEveryItemInCellOrder) {
  // Occupied columns millions of cells apart: a box spanning all of them
  // visits only the occupied ones, by cell x, then cell y, then insertion.
  const GridIndex index(1, {{1, {1e6, 5}},
                            {2, {-1e6, 0}},
                            {3, {1e6, -5}},
                            {4, {0.5, 0}},
                            {5, {1e6, 5}}});
  std::vector<int64_t> got;
  index.AppendWithinBox(BoundingBox{{-2e6, -10}, {2e6, 10}}, &got);
  EXPECT_EQ(got, (std::vector<int64_t>{2, 4, 3, 1, 5}));
  got.clear();
  index.AppendWithinBox(BoundingBox{{-2e6, 1}, {2e6, 10}}, &got);
  EXPECT_EQ(got, (std::vector<int64_t>{1, 5}));
  got.clear();
  index.AppendWithinBox(BoundingBox{{-5e5, -10}, {5e5, 10}}, &got);
  EXPECT_EQ(got, (std::vector<int64_t>{4}));
}

TEST(GridIndexTest, BoundaryPointsOnCellEdgesAndRadius) {
  // Points exactly on cell boundaries (multiples of the cell size) land
  // in a well-defined cell and must still be found from either side.
  const GridIndex index(100, {{1, {100, 0}}, {2, {200, 0}}, {3, {0, 100}}});
  EXPECT_EQ(index.WithinRadius({100, 0}, 0).size(), 1u);  // radius 0: self
  // Radius exactly equal to the distance is inclusive.
  std::vector<int64_t> at_exact = index.WithinRadius({0, 0}, 100.0);
  std::set<int64_t> got(at_exact.begin(), at_exact.end());
  EXPECT_EQ(got, (std::set<int64_t>{1, 3}));
  // Just under misses, just over catches 2 as well.
  EXPECT_TRUE(index.WithinRadius({0, 0}, 99.999).empty());
  EXPECT_EQ(index.WithinRadius({0, 0}, 200.0).size(), 3u);
}

TEST(GridIndexTest, NegativeCoordinatesRoundTowardNegativeCells) {
  // floor() cell mapping: -1 and +1 are different cells; queries spanning
  // the origin see both sides.
  const GridIndex index(100, {{1, {-1, -1}}, {2, {1, 1}}});
  std::set<int64_t> got;
  for (int64_t id : index.WithinRadius({0, 0}, 5)) got.insert(id);
  EXPECT_EQ(got, (std::set<int64_t>{1, 2}));
}

TEST(GridIndexTest, DegenerateBboxAllPointsIdentical) {
  // A degenerate "bounding box": every item at one position. Whole-grid
  // queries and nearest still behave.
  const GridIndex index =
      IndexOf(25, std::vector<Vec2>(32, Vec2{42, -17}));
  EXPECT_EQ(index.WithinRadius({42, -17}, 0).size(), 32u);
  EXPECT_EQ(index.WithinRadius({0, 0}, 1e4).size(), 32u);
  EXPECT_GE(index.Nearest({1000, 1000}), 0);
}

TEST(GridIndexTest, WholeGridRadiusReturnsEverything) {
  // A radius covering the entire extent returns every item exactly once,
  // regardless of how many cells the scan spans.
  Random rng(99);
  const int kCount = 300;
  std::vector<Vec2> points;
  for (int64_t i = 0; i < kCount; ++i) {
    points.push_back({rng.Uniform(-500, 500), rng.Uniform(-500, 500)});
  }
  const GridIndex index = IndexOf(10, points);
  std::vector<int64_t> all = index.WithinRadius({0, 0}, 2000.0);
  std::set<int64_t> unique(all.begin(), all.end());
  EXPECT_EQ(all.size(), static_cast<size_t>(kCount));
  EXPECT_EQ(unique.size(), static_cast<size_t>(kCount));
}

TEST(GridIndexTest, AppendWithinRadiusMatchesAndAccumulates) {
  const GridIndex index(100, {{1, {10, 0}}, {2, {90, 0}}, {3, {500, 0}}});
  std::vector<int64_t> buffer = {77};  // pre-existing content is kept
  index.AppendWithinRadius({0, 0}, 100, &buffer);
  ASSERT_GE(buffer.size(), 1u);
  EXPECT_EQ(buffer.front(), 77);
  std::set<int64_t> appended(buffer.begin() + 1, buffer.end());
  EXPECT_EQ(appended, (std::set<int64_t>{1, 2}));
  // Same result set as the allocating overload.
  std::vector<int64_t> fresh = index.WithinRadius({0, 0}, 100);
  EXPECT_EQ(std::set<int64_t>(fresh.begin(), fresh.end()), appended);
  // Negative radius appends nothing.
  size_t before = buffer.size();
  index.AppendWithinRadius({0, 0}, -1, &buffer);
  EXPECT_EQ(buffer.size(), before);
}

}  // namespace
}  // namespace stmaker
