#ifndef STMAKER_CORE_POPULAR_ROUTE_H_
#define STMAKER_CORE_POPULAR_ROUTE_H_

/// \file
/// Popular-route mining over symbolic trajectories: the transition graph
/// and its memoized point queries.

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/context.h"
#include "common/lru_cache.h"
#include "common/status.h"
#include "landmark/landmark.h"
#include "traj/trajectory.h"

namespace stmaker {

/// \brief Mines the most popular route PR between landmark pairs from
/// historical symbolic trajectories (Sec. V-A; Chen et al. ICDE'11 [7]).
///
/// Historical trajectories contribute landmark-to-landmark transition
/// counts; the popular route between l_a and l_b is the path through the
/// transition graph maximizing the product of relative transition
/// frequencies, computed as a shortest path under -log frequency costs.
/// Because more-travelled transitions cost less, the result is the route
/// "most drivers choose".
///
/// Thread-safety: concurrent const queries (PopularRoute, TransitionCount,
/// Transitions, ...) are safe — the internal query cache is mutex-guarded.
/// Mutations (AddTrajectory, AddTransitionCount, Merge) must not overlap
/// queries or each other; STMaker serializes them inside Train.
class PopularRouteMiner {
 public:
  PopularRouteMiner();
  PopularRouteMiner(PopularRouteMiner&&) noexcept;
  PopularRouteMiner& operator=(PopularRouteMiner&&) noexcept;

  /// Accumulates the transitions of one historical trajectory.
  void AddTrajectory(const SymbolicTrajectory& trajectory);

  /// Count of direct transitions from `a` to `b` in the history.
  double TransitionCount(LandmarkId a, LandmarkId b) const;

  /// The popular route from `from` to `to` as a landmark sequence
  /// (inclusive of both endpoints). NotFound when the history contains no
  /// connecting transitions. Results (including NotFound failures) are
  /// memoized in a bounded LRU cache shared behind a mutex, since
  /// summarization re-queries the same OD pairs heavily.
  ///
  /// With a context, the transition-graph Dijkstra checks the
  /// deadline/cancel token periodically and aborts with
  /// kDeadlineExceeded/kCancelled; those request-scoped statuses are never
  /// memoized. Failpoint "route/stall" (1 ms sleep per expansion)
  /// simulates a pathological search for deadline tests.
  Result<std::vector<LandmarkId>> PopularRoute(
      LandmarkId from, LandmarkId to,
      const RequestContext* ctx = nullptr) const;

  /// Number of distinct (from, to) transitions mined; O(1).
  size_t NumTransitions() const { return num_transitions_; }

  /// One mined transition, for model persistence.
  struct Transition {
    LandmarkId from;
    LandmarkId to;
    double count;
  };

  /// All transitions in deterministic first-mined order (serialization
  /// hook).
  std::vector<Transition> Transitions() const;

  /// Adds `count` pre-aggregated transitions from `a` to `b`
  /// (deserialization hook; also usable to merge mined models).
  void AddTransitionCount(LandmarkId a, LandmarkId b, double count);

  /// Folds every transition of `other` into this miner, replaying them in
  /// `other`'s first-mined order so that merging per-shard miners of a
  /// corpus split into contiguous index blocks — shard 0 first — rebuilds
  /// exactly the miner a serial pass over the whole corpus would produce
  /// (transition counts are integral, so the additions are exact).
  /// Associative and commutative up to transition ordering.
  void Merge(const PopularRouteMiner& other);

  /// Cache observability for benchmarks and serve mode: hit/miss/eviction
  /// counters of the route cache since construction.
  CacheStats Stats() const;

 private:
  struct OutEdge {
    LandmarkId to;
    double count;
  };

  /// Pre-query state derived from the graph: per-landmark out-degree mass
  /// and the smoothing constant κ, rebuilt lazily after mutations.
  struct QueryTotals {
    std::unordered_map<LandmarkId, double> out_total;
    double kappa = 1.0;
  };

  struct PairHash {
    size_t operator()(const std::pair<LandmarkId, LandmarkId>& p) const {
      uint64_t h = static_cast<uint64_t>(p.first) * 0x9e3779b97f4a7c15ULL;
      h ^= static_cast<uint64_t>(p.second) + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };

  /// Drops memoized query state; called by every mutation.
  void InvalidateCache();

  /// Returns the lazily built totals (caller must not hold cache_mu_).
  const QueryTotals& EnsureTotals() const;

  /// Dijkstra over the transition graph, considering only out-edges whose
  /// count is at least `min_count_ratio` of the landmark's busiest out-edge.
  Result<std::vector<LandmarkId>> PopularRouteImpl(
      LandmarkId from, LandmarkId to, double min_count_ratio,
      const QueryTotals& totals, const RequestContext* ctx) const;

  std::unordered_map<LandmarkId, std::vector<OutEdge>> graph_;
  std::vector<LandmarkId> from_order_;  ///< first-seen order of graph_ keys
  size_t num_transitions_ = 0;  ///< out-edges across graph_, kept on insert
  double max_count_ = 0;

  /// Query-side memoization (route LRU + totals), guarded by cache_mu_.
  mutable std::mutex cache_mu_;
  mutable std::unique_ptr<QueryTotals> totals_;
  mutable LruCache<std::pair<LandmarkId, LandmarkId>,
                   Result<std::vector<LandmarkId>>, PairHash>
      route_cache_;
};

}  // namespace stmaker

#endif  // STMAKER_CORE_POPULAR_ROUTE_H_
