#include "landmark/dbscan.h"

#include <deque>
#include <utility>
#include <vector>

#include "common/check.h"
#include "geo/grid_index.h"

namespace stmaker {

DbscanResult Dbscan(const std::vector<Vec2>& points,
                    const DbscanOptions& options) {
  STMAKER_CHECK(options.eps_m > 0);
  STMAKER_CHECK(options.min_pts >= 1);
  const size_t n = points.size();
  DbscanResult out;
  out.labels.assign(n, kDbscanNoise);
  if (n == 0) return out;

  std::vector<GridIndex::Item> items;
  items.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    items.push_back({static_cast<int64_t>(i), points[i]});
  }
  const GridIndex index(options.eps_m, std::move(items));

  constexpr int kUnvisited = -2;
  std::vector<int> label(n, kUnvisited);

  int next_cluster = 0;
  for (size_t i = 0; i < n; ++i) {
    if (label[i] != kUnvisited) continue;
    std::vector<int64_t> neighbors = index.WithinRadius(points[i],
                                                        options.eps_m);
    if (static_cast<int>(neighbors.size()) < options.min_pts) {
      label[i] = kDbscanNoise;
      continue;
    }
    int cluster = next_cluster++;
    label[i] = cluster;
    std::deque<int64_t> frontier(neighbors.begin(), neighbors.end());
    while (!frontier.empty()) {
      size_t q = static_cast<size_t>(frontier.front());
      frontier.pop_front();
      if (label[q] == kDbscanNoise) label[q] = cluster;  // border point
      if (label[q] != kUnvisited) continue;
      label[q] = cluster;
      std::vector<int64_t> q_neighbors =
          index.WithinRadius(points[q], options.eps_m);
      if (static_cast<int>(q_neighbors.size()) >= options.min_pts) {
        for (int64_t nb : q_neighbors) frontier.push_back(nb);
      }
    }
  }

  out.labels.assign(label.begin(), label.end());
  out.num_clusters = next_cluster;
  return out;
}

std::vector<Vec2> ClusterCentroids(const std::vector<Vec2>& points,
                                   const DbscanResult& result) {
  STMAKER_CHECK(points.size() == result.labels.size());
  std::vector<Vec2> sums(result.num_clusters, Vec2{0, 0});
  std::vector<size_t> counts(result.num_clusters, 0);
  for (size_t i = 0; i < points.size(); ++i) {
    int c = result.labels[i];
    if (c == kDbscanNoise) continue;
    sums[c] = sums[c] + points[i];
    counts[c]++;
  }
  std::vector<Vec2> centroids(result.num_clusters);
  for (int c = 0; c < result.num_clusters; ++c) {
    STMAKER_CHECK(counts[c] > 0);
    centroids[c] = sums[c] * (1.0 / static_cast<double>(counts[c]));
  }
  return centroids;
}

}  // namespace stmaker
