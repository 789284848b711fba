#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "geo/bounding_box.h"
#include "landmark/dbscan.h"
#include "landmark/landmark_index.h"
#include "landmark/poi_generator.h"
#include "landmark/significance.h"
#include "roadnet/map_generator.h"

namespace stmaker {
namespace {

// --------------------------------------------------------------------------
// DBSCAN
// --------------------------------------------------------------------------

std::vector<Vec2> Blob(Vec2 center, int n, double spread, Random* rng) {
  std::vector<Vec2> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(center + Vec2{rng->Normal(0, spread),
                                rng->Normal(0, spread)});
  }
  return out;
}

TEST(DbscanTest, SeparatesTwoBlobs) {
  Random rng(1);
  std::vector<Vec2> points = Blob({0, 0}, 30, 10, &rng);
  std::vector<Vec2> blob2 = Blob({1000, 0}, 30, 10, &rng);
  points.insert(points.end(), blob2.begin(), blob2.end());
  DbscanResult r = Dbscan(points, {.eps_m = 60, .min_pts = 3});
  EXPECT_EQ(r.num_clusters, 2);
  // All of blob 1 shares a label distinct from blob 2.
  std::set<int> labels1(r.labels.begin(), r.labels.begin() + 30);
  std::set<int> labels2(r.labels.begin() + 30, r.labels.end());
  EXPECT_EQ(labels1.size(), 1u);
  EXPECT_EQ(labels2.size(), 1u);
  EXPECT_NE(*labels1.begin(), *labels2.begin());
}

TEST(DbscanTest, IsolatedPointsAreNoise) {
  Random rng(2);
  std::vector<Vec2> points = Blob({0, 0}, 20, 10, &rng);
  points.push_back({5000, 5000});
  points.push_back({-9000, 3000});
  DbscanResult r = Dbscan(points, {.eps_m = 60, .min_pts = 3});
  EXPECT_EQ(r.num_clusters, 1);
  EXPECT_EQ(r.labels[20], kDbscanNoise);
  EXPECT_EQ(r.labels[21], kDbscanNoise);
}

TEST(DbscanTest, EmptyInput) {
  DbscanResult r = Dbscan({}, {});
  EXPECT_EQ(r.num_clusters, 0);
  EXPECT_TRUE(r.labels.empty());
}

TEST(DbscanTest, AllNoiseWhenSparse) {
  std::vector<Vec2> points = {{0, 0}, {1000, 0}, {2000, 0}};
  DbscanResult r = Dbscan(points, {.eps_m = 50, .min_pts = 2});
  EXPECT_EQ(r.num_clusters, 0);
  for (int label : r.labels) EXPECT_EQ(label, kDbscanNoise);
}

TEST(DbscanTest, ChainOfCorePointsFormsOneCluster) {
  // Points 40 m apart with eps 50: each point's neighborhood has 3 members,
  // so the chain is density-connected end to end.
  std::vector<Vec2> points;
  for (int i = 0; i < 20; ++i) points.push_back({i * 40.0, 0});
  DbscanResult r = Dbscan(points, {.eps_m = 50, .min_pts = 3});
  EXPECT_EQ(r.num_clusters, 1);
  for (int label : r.labels) EXPECT_EQ(label, 0);
}

TEST(DbscanTest, MinPtsOneMakesEveryPointACluster) {
  std::vector<Vec2> points = {{0, 0}, {1000, 0}, {2000, 0}};
  DbscanResult r = Dbscan(points, {.eps_m = 50, .min_pts = 1});
  EXPECT_EQ(r.num_clusters, 3);
}

TEST(DbscanTest, CentroidsAreClusterMeans) {
  std::vector<Vec2> points = {{0, 0}, {10, 0}, {5, 15}};
  DbscanResult r = Dbscan(points, {.eps_m = 20, .min_pts = 2});
  ASSERT_EQ(r.num_clusters, 1);
  std::vector<Vec2> centroids = ClusterCentroids(points, r);
  ASSERT_EQ(centroids.size(), 1u);
  EXPECT_NEAR(centroids[0].x, 5.0, 1e-9);
  EXPECT_NEAR(centroids[0].y, 5.0, 1e-9);
}

// Property sweep: label invariants hold across parameters.
struct DbscanParam {
  double eps;
  int min_pts;
  uint64_t seed;
};

class DbscanPropertyTest : public ::testing::TestWithParam<DbscanParam> {};

TEST_P(DbscanPropertyTest, LabelInvariants) {
  const DbscanParam param = GetParam();
  Random rng(param.seed);
  std::vector<Vec2> points;
  for (int b = 0; b < 5; ++b) {
    auto blob = Blob({rng.Uniform(-2000, 2000), rng.Uniform(-2000, 2000)},
                     25, rng.Uniform(5, 60), &rng);
    points.insert(points.end(), blob.begin(), blob.end());
  }
  DbscanResult r = Dbscan(points, {.eps_m = param.eps,
                                   .min_pts = param.min_pts});
  ASSERT_EQ(r.labels.size(), points.size());
  // Labels are either noise or in [0, num_clusters); every cluster id used.
  std::set<int> used;
  for (int label : r.labels) {
    EXPECT_GE(label, kDbscanNoise);
    EXPECT_LT(label, r.num_clusters);
    if (label != kDbscanNoise) used.insert(label);
  }
  EXPECT_EQ(static_cast<int>(used.size()), r.num_clusters);
  // Every clustered point has a neighbor in the same cluster within eps
  // (density-connectivity sanity).
  for (size_t i = 0; i < points.size(); ++i) {
    if (r.labels[i] == kDbscanNoise) continue;
    bool has_near_same = false;
    for (size_t j = 0; j < points.size() && !has_near_same; ++j) {
      if (i != j && r.labels[j] == r.labels[i] &&
          Distance(points[i], points[j]) <= param.eps) {
        has_near_same = true;
      }
    }
    EXPECT_TRUE(has_near_same) << "point " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DbscanPropertyTest,
                         ::testing::Values(DbscanParam{50, 3, 1},
                                           DbscanParam{100, 5, 2},
                                           DbscanParam{30, 2, 3},
                                           DbscanParam{200, 10, 4}));

// --------------------------------------------------------------------------
// PoiGenerator
// --------------------------------------------------------------------------

class PoiTest : public ::testing::Test {
 protected:
  static const GeneratedMap& Map() {
    static const GeneratedMap& map = *[] {
      MapGeneratorOptions options;
      options.blocks_x = 8;
      options.blocks_y = 8;
      options.seed = 3;
      return new GeneratedMap(MapGenerator(options).Generate());
    }();
    return map;
  }
};

TEST_F(PoiTest, DeterministicAndSized) {
  PoiGeneratorOptions options;
  options.num_sites = 50;
  options.seed = 11;
  PoiGenerator gen(options);
  std::vector<RawPoi> a = gen.Generate(Map().network);
  std::vector<RawPoi> b = gen.Generate(Map().network);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GE(a.size(), 50u * 3u);
  EXPECT_LE(a.size(), 50u * 12u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pos, b[i].pos);
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_FALSE(a[i].name.empty());
  }
}

TEST_F(PoiTest, PoisLieNearTheCity) {
  PoiGeneratorOptions options;
  options.num_sites = 50;
  std::vector<RawPoi> pois = PoiGenerator(options).Generate(Map().network);
  const BoundingBox& extent = Map().extent;
  for (const RawPoi& p : pois) {
    EXPECT_GT(p.pos.x, extent.min.x - 2000);
    EXPECT_LT(p.pos.x, extent.max.x + 2000);
    EXPECT_GT(p.pos.y, extent.min.y - 2000);
    EXPECT_LT(p.pos.y, extent.max.y + 2000);
  }
}

// --------------------------------------------------------------------------
// LandmarkIndex
// --------------------------------------------------------------------------

TEST_F(PoiTest, IndexCombinesPoiClustersAndTurningPoints) {
  PoiGeneratorOptions options;
  options.num_sites = 60;
  std::vector<RawPoi> pois = PoiGenerator(options).Generate(Map().network);
  LandmarkIndex index = LandmarkIndex::Build(Map().network, pois);

  size_t poi_count = 0;
  size_t junction_count = 0;
  for (const Landmark& lm : index.landmarks()) {
    EXPECT_FALSE(lm.name.empty());
    if (lm.kind == LandmarkKind::kPoi) {
      ++poi_count;
      EXPECT_EQ(index.network_node(lm.id), -1);
    } else {
      ++junction_count;
      NodeId node = index.network_node(lm.id);
      ASSERT_GE(node, 0);
      EXPECT_EQ(Map().network.node(node).pos, lm.pos);
    }
  }
  EXPECT_GT(poi_count, 0u);
  EXPECT_GT(junction_count, 0u);
  EXPECT_EQ(poi_count + junction_count, index.size());
}

TEST_F(PoiTest, SpatialQueriesWork) {
  PoiGeneratorOptions options;
  options.num_sites = 60;
  std::vector<RawPoi> pois = PoiGenerator(options).Generate(Map().network);
  LandmarkIndex index = LandmarkIndex::Build(Map().network, pois);
  const Landmark& first = index.landmark(0);
  LandmarkId nearest = index.Nearest(first.pos);
  ASSERT_GE(nearest, 0);
  EXPECT_LE(Distance(index.landmark(nearest).pos, first.pos), 1e-9);
  BoundingBox box;
  box.Extend({first.pos.x - 500, first.pos.y - 500});
  box.Extend({first.pos.x + 500, first.pos.y + 500});
  std::vector<LandmarkId> around;
  index.AppendWithinBox(box, &around);
  EXPECT_TRUE(std::find(around.begin(), around.end(), first.id) !=
              around.end());
  for (LandmarkId id : around) {
    EXPECT_TRUE(box.Contains(index.landmark(id).pos));
  }
  // A point box on a landmark finds it; an empty box finds nothing.
  std::vector<LandmarkId> at_point;
  index.AppendWithinBox(BoundingBox{first.pos, first.pos}, &at_point);
  EXPECT_TRUE(std::find(at_point.begin(), at_point.end(), first.id) !=
              at_point.end());
  std::vector<LandmarkId> none;
  index.AppendWithinBox(BoundingBox{}, &none);
  EXPECT_TRUE(none.empty());
}

TEST_F(PoiTest, JunctionNamesMentionCrossingRoads) {
  LandmarkIndex index = LandmarkIndex::Build(Map().network, {});
  int with_separator = 0;
  for (const Landmark& lm : index.landmarks()) {
    if (lm.kind == LandmarkKind::kTurningPoint &&
        lm.name.find(" / ") != std::string::npos) {
      ++with_separator;
    }
  }
  // Most grid intersections join two distinctly named roads.
  EXPECT_GT(with_separator, static_cast<int>(index.size()) / 2);
}

TEST_F(PoiTest, SetSignificancePersists) {
  LandmarkIndex index = LandmarkIndex::Build(Map().network, {});
  index.SetSignificance(0, 0.73);
  EXPECT_DOUBLE_EQ(index.landmark(0).significance, 0.73);
}

// --------------------------------------------------------------------------
// Landmark significance (HITS over the visit corpus)
// --------------------------------------------------------------------------

TEST(SignificanceTest, MoreVisitedLandmarkScoresHigher) {
  VisitCorpus corpus;
  // Landmark 0 visited by everyone, landmark 1 by half, landmark 2 never.
  for (int64_t u = 0; u < 20; ++u) {
    corpus.AddTrajectory(u, u % 2 == 0 ? std::vector<LandmarkId>{0, 1}
                                       : std::vector<LandmarkId>{0});
  }
  std::vector<double> s = corpus.Significance(3);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s[0], 1.0);  // max-normalized
  EXPECT_GT(s[0], s[1]);
  EXPECT_GT(s[1], s[2]);
  EXPECT_DOUBLE_EQ(s[2], 0.0);
}

TEST(SignificanceTest, RepeatVisitsAddWeight) {
  VisitCorpus corpus;
  corpus.AddTrajectory(0, {0, 0, 0});
  corpus.AddTrajectory(1, {1});
  std::vector<double> s = corpus.Significance(2);
  EXPECT_GT(s[0], s[1]);
}

TEST(SignificanceTest, ScoresAreMaxNormalized) {
  VisitCorpus corpus;
  Random rng(4);
  for (int64_t u = 0; u < 5; ++u) {
    for (int v = 0; v < 6; ++v) {
      corpus.AddTrajectory(
          u, {static_cast<LandmarkId>(rng.UniformInt(uint64_t{4}))});
    }
  }
  std::vector<double> s = corpus.Significance(4);
  double max = *std::max_element(s.begin(), s.end());
  EXPECT_DOUBLE_EQ(max, 1.0);
  for (double x : s) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(SignificanceTest, NoVisitsGivesAllZero) {
  std::vector<double> s = VisitCorpus().Significance(3);
  ASSERT_EQ(s.size(), 3u);
  for (double x : s) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(SignificanceTest, ConvergesQuickly) {
  // Scores after 30 and 60 iterations should agree.
  VisitCorpus corpus;
  Random rng(9);
  for (int64_t u = 0; u < 10; ++u) {
    for (int v = 0; v < 4; ++v) {
      corpus.AddTrajectory(u, {static_cast<LandmarkId>(rng.Zipf(5, 1.2))});
    }
  }
  std::vector<double> a = corpus.Significance(5, 30);
  std::vector<double> b = corpus.Significance(5, 60);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-9);
  }
}

}  // namespace
}  // namespace stmaker
