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

PopularRouteMiner::PopularRouteMiner() : route_cache_(kRouteCacheCapacity) {}

PopularRouteMiner::PopularRouteMiner(PopularRouteMiner&& other) noexcept
    : graph_(std::move(other.graph_)),
      from_order_(std::move(other.from_order_)),
      num_transitions_(std::exchange(other.num_transitions_, 0)),
      max_count_(other.max_count_),
      route_cache_(kRouteCacheCapacity) {}

PopularRouteMiner& PopularRouteMiner::operator=(
    PopularRouteMiner&& other) noexcept {
  if (this != &other) {
    graph_ = std::move(other.graph_);
    from_order_ = std::move(other.from_order_);
    num_transitions_ = std::exchange(other.num_transitions_, 0);
    max_count_ = other.max_count_;
    InvalidateCache();
  }
  return *this;
}

void PopularRouteMiner::AddTrajectory(const SymbolicTrajectory& trajectory) {
  for (size_t i = 0; i + 1 < trajectory.samples.size(); ++i) {
    LandmarkId a = trajectory.samples[i].landmark;
    LandmarkId b = trajectory.samples[i + 1].landmark;
    if (a == b) continue;
    AddTransitionCount(a, b, 1.0);
  }
}

void PopularRouteMiner::AddTransitionCount(LandmarkId a, LandmarkId b,
                                           double count) {
  if (a == b || count <= 0) return;
  InvalidateCache();
  auto [it, inserted] = graph_.try_emplace(a);
  if (inserted) from_order_.push_back(a);
  std::vector<OutEdge>& out = it->second;
  for (OutEdge& e : out) {
    if (e.to == b) {
      e.count += count;
      max_count_ = std::max(max_count_, e.count);
      return;
    }
  }
  out.push_back({b, count});
  ++num_transitions_;
  max_count_ = std::max(max_count_, count);
}

std::vector<PopularRouteMiner::Transition> PopularRouteMiner::Transitions()
    const {
  std::vector<Transition> out;
  out.reserve(NumTransitions());
  for (LandmarkId from : from_order_) {
    for (const OutEdge& e : graph_.find(from)->second) {
      out.push_back({from, e.to, e.count});
    }
  }
  return out;
}

double PopularRouteMiner::TransitionCount(LandmarkId a, LandmarkId b) const {
  auto it = graph_.find(a);
  if (it == graph_.end()) return 0;
  for (const OutEdge& e : it->second) {
    if (e.to == b) return e.count;
  }
  return 0;
}

void PopularRouteMiner::InvalidateCache() {
  std::lock_guard<std::mutex> lock(cache_mu_);
  totals_.reset();
  route_cache_.Clear();
}

const PopularRouteMiner::QueryTotals& PopularRouteMiner::EnsureTotals()
    const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (totals_ == nullptr) {
    // Smoothed transfer probabilities (after Chen et al. [7]):
    //   P = count(a→b) / (Σ_c count(a→c) + κ),  κ = mean out-degree mass.
    // Iterating from_order_ (not the hash map) keeps the floating-point
    // accumulation order — and hence κ to the last bit — independent of
    // hash-table layout, so miners holding the same transitions in the same
    // first-mined order agree.
    auto totals = std::make_unique<QueryTotals>();
    double total_mass = 0;
    for (LandmarkId from : from_order_) {
      double total = 0;
      for (const OutEdge& e : graph_.find(from)->second) total += e.count;
      totals->out_total[from] = total;
      total_mass += total;
    }
    totals->kappa = graph_.empty()
                        ? 1.0
                        : total_mass / static_cast<double>(graph_.size());
    totals_ = std::move(totals);
  }
  return *totals_;
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
  const QueryTotals& totals = EnsureTotals();
  // First try the pruned graph (rare transitions dropped); rare "skip"
  // transitions — artifacts of one trip's anchor set skipping landmarks that
  // every other trip keeps — otherwise beat whole chains of genuine hops by
  // virtue of being a single edge. Fall back to the full graph when pruning
  // disconnects the endpoints.
  Result<std::vector<LandmarkId>> result =
      PopularRouteImpl(from, to, /*min_count_ratio=*/0.1, totals, ctx);
  if (!result.ok() && result.status().code() == StatusCode::kNotFound) {
    result = PopularRouteImpl(from, to, /*min_count_ratio=*/0.0, totals, ctx);
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
    const QueryTotals& totals, const RequestContext* ctx) const {
  if (from == to) return std::vector<LandmarkId>{from};
  if (graph_.find(from) == graph_.end()) {
    return Status::NotFound("no historical transitions leave the source");
  }
  // Dijkstra under cost(a→b) = -log(P(b | a)). Pure counts favour globally
  // busy corridors even where they are locally improbable; pure conditional
  // probabilities make deserted one-option chains free. The κ smoothing
  // charges rarely-travelled hops for their rarity while still preferring
  // the likely continuation at busy landmarks.
  const double kappa = totals.kappa;
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
    auto it = graph_.find(u);
    if (it == graph_.end()) continue;
    double out_max = 0;
    for (const OutEdge& e : it->second) out_max = std::max(out_max, e.count);
    const double u_total = totals.out_total.at(u);
    for (const OutEdge& e : it->second) {
      if (e.count < min_count_ratio * out_max) continue;
      double w = -std::log(e.count / (u_total + kappa));
      double nd = d + w;
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
