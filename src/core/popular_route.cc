#include "core/popular_route.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <queue>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/metrics.h"

namespace stmaker {

namespace {
/// Bound on memoized (from, to) route queries. A city-scale landmark set
/// has far more pairs than this, but summarization workloads hit a small
/// working set of popular OD pairs.
constexpr size_t kRouteCacheCapacity = 8192;
}  // namespace

PopularRouteMiner::PopularRouteMiner(
    std::span<const Transition> transitions)
    : route_cache_(kRouteCacheCapacity) {
  for (const Transition& t : transitions) {
    if (t.from == t.to || t.count <= 0) continue;
    auto [it, inserted] = node_index_.try_emplace(t.from, nodes_.size());
    if (inserted) nodes_.push_back({t.from, {}});
    std::vector<OutEdge>& out = nodes_[it->second].out;
    auto edge = std::find_if(out.begin(), out.end(),
                             [&](const OutEdge& e) { return e.to == t.to; });
    if (edge != out.end()) {
      edge->count += t.count;
    } else {
      out.push_back({t.to, t.count, 0.0});
    }
  }
  // Smoothed transfer probabilities (after Chen et al. [7]):
  //   P = count(a→b) / (Σ_c count(a→c) + κ),  κ = mean out-degree mass.
  // Summing in first-mined order (not hash order) fixes κ to the last bit
  // for a given transition list.
  std::vector<double> out_total(nodes_.size(), 0.0);
  double total_mass = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = nodes_[i];
    for (const OutEdge& e : node.out) {
      out_total[i] += e.count;
      node.busiest = std::max(node.busiest, e.count);
    }
    total_mass += out_total[i];
    num_transitions_ += node.out.size();
  }
  // Pure counts favour globally busy corridors even where they are
  // locally improbable; pure conditional probabilities make deserted
  // one-option chains free. The κ smoothing charges rarely-travelled hops
  // for their rarity while still preferring the likely continuation at
  // busy landmarks.
  const double kappa =
      nodes_.empty() ? 1.0
                     : total_mass / static_cast<double>(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    for (OutEdge& e : nodes_[i].out) {
      e.cost = -std::log(e.count / (out_total[i] + kappa));
    }
  }
}

std::vector<PopularRouteMiner::Transition> PopularRouteMiner::Transitions()
    const {
  std::vector<Transition> out;
  out.reserve(NumTransitions());
  for (const Node& node : nodes_) {
    for (const OutEdge& e : node.out) out.push_back({node.id, e.to, e.count});
  }
  return out;
}

Result<std::vector<LandmarkId>> PopularRouteMiner::PopularRoute(
    LandmarkId from, LandmarkId to, const RequestContext* ctx) const {
  static Counter& cache_hits =
      MetricsRegistry::Global().counter("popular_route.cache.hits");
  static Counter& cache_misses =
      MetricsRegistry::Global().counter("popular_route.cache.misses");
  const std::pair<LandmarkId, LandmarkId> key{from, to};
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (const Result<std::vector<LandmarkId>>* hit = route_cache_.Get(key)) {
      cache_hits.Increment();
      return *hit;
    }
  }
  cache_misses.Increment();
  STMAKER_RETURN_IF_ERROR(CheckContext(ctx));
  // First try the pruned graph (rare transitions dropped); rare "skip"
  // transitions — artifacts of one trip's anchor set skipping landmarks that
  // every other trip keeps — otherwise beat whole chains of genuine hops by
  // virtue of being a single edge. Fall back to the full graph when pruning
  // disconnects the endpoints.
  Result<std::vector<LandmarkId>> result =
      PopularRouteImpl(from, to, /*min_count_ratio=*/0.1, ctx);
  if (!result.ok() && result.status().code() == StatusCode::kNotFound) {
    result = PopularRouteImpl(from, to, /*min_count_ratio=*/0.0, ctx);
  }
  // Deadline aborts are request-scoped, not a property of the OD
  // pair; memoizing one would poison every later query for the pair.
  if (!IsContextError(result.status().code())) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    route_cache_.Put(key, result);
  }
  return result;
}

CacheStats PopularRouteMiner::Stats() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return route_cache_.stats();
}

Result<std::vector<LandmarkId>> PopularRouteMiner::PopularRouteImpl(
    LandmarkId from, LandmarkId to, double min_count_ratio,
    const RequestContext* ctx) const {
  if (from == to) return std::vector<LandmarkId>{from};
  if (node_index_.find(from) == node_index_.end()) {
    return Status::NotFound("no historical transitions leave the source");
  }
  // Dijkstra under cost(a→b) = -log(P(b | a)), precomputed per edge.
  std::unordered_map<LandmarkId, double> dist;
  std::unordered_map<LandmarkId, LandmarkId> prev;
  using QItem = std::pair<double, LandmarkId>;
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> pq;
  dist[from] = 0;
  pq.push({0.0, from});
  // Stride 32 (not the default 256): landmark graphs are small, so a
  // stalled search may never reach 256 expansions before the deadline
  // test expects it to abort.
  CancelCheck check(ctx, /*stride=*/32);
  while (!pq.empty()) {
    // Test hook: simulate a pathologically slow expansion (e.g. a huge
    // graph or a cold page cache) so deadline tests can force a timeout.
    STMAKER_FAILPOINT("route/stall",
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(1)));
    STMAKER_RETURN_IF_ERROR(check.Tick());
    auto [d, u] = pq.top();
    pq.pop();
    auto du = dist.find(u);
    if (du != dist.end() && d > du->second) continue;
    if (u == to) break;
    auto it = node_index_.find(u);
    if (it == node_index_.end()) continue;
    const Node& node = nodes_[it->second];
    for (const OutEdge& e : node.out) {
      if (e.count < min_count_ratio * node.busiest) continue;
      double nd = d + e.cost;
      auto dv = dist.find(e.to);
      if (dv == dist.end() || nd < dv->second) {
        dist[e.to] = nd;
        prev[e.to] = u;
        pq.push({nd, e.to});
      }
    }
  }
  if (dist.find(to) == dist.end()) {
    return Status::NotFound("destination unreachable in the history graph");
  }
  std::vector<LandmarkId> route;
  for (LandmarkId at = to; at != from; at = prev[at]) route.push_back(at);
  route.push_back(from);
  std::reverse(route.begin(), route.end());
  return route;
}

}  // namespace stmaker
