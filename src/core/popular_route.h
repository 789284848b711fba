#ifndef STMAKER_CORE_POPULAR_ROUTE_H_
#define STMAKER_CORE_POPULAR_ROUTE_H_

/// \file
/// Popular-route mining over symbolic trajectories: the transition graph
/// and its memoized point queries.

#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/context.h"
#include "common/lru_cache.h"
#include "common/status.h"
#include "landmark/landmark.h"

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
/// The graph is fixed at construction. Thread-safety: concurrent const
/// queries are safe — the route cache is mutex-guarded.
class PopularRouteMiner {
 public:
  /// One mined transition: a record of the container's transitions
  /// section.
  struct Transition {
    LandmarkId from;
    LandmarkId to;
    double count;
  };

  /// Builds the transition graph from `transitions`: counts of a repeated
  /// (from, to) pair sum in order; self-transitions and non-positive
  /// counts are skipped. The smoothing constant κ, each out-edge's -log
  /// cost and each landmark's busiest out-edge count are computed here,
  /// once.
  explicit PopularRouteMiner(std::span<const Transition> transitions = {});

  /// The popular route from `from` to `to` as a landmark sequence
  /// (inclusive of both endpoints). NotFound when the history contains no
  /// connecting transitions. Results (including NotFound failures) are
  /// memoized in a bounded LRU cache shared behind a mutex, since
  /// summarization re-queries the same OD pairs heavily.
  ///
  /// With a context, the transition-graph Dijkstra checks the deadline
  /// periodically and aborts with kDeadlineExceeded; that request-scoped
  /// status is never memoized. Failpoint "route/stall" (1 ms sleep per
  /// expansion) simulates a pathological search for deadline tests.
  Result<std::vector<LandmarkId>> PopularRoute(
      LandmarkId from, LandmarkId to,
      const RequestContext* ctx = nullptr) const;

  /// Number of distinct (from, to) transitions mined; O(1).
  size_t NumTransitions() const { return num_transitions_; }

  /// All transitions in deterministic first-mined order, one per distinct
  /// pair (serialization hook).
  std::vector<Transition> Transitions() const;

  /// Cache observability for benchmarks and serve mode: hit/miss/eviction
  /// counters of the route cache since construction.
  CacheStats Stats() const;

 private:
  struct OutEdge {
    LandmarkId to;
    double count;
    /// -log of the smoothed transfer probability, the Dijkstra weight.
    double cost;
  };

  /// One source landmark and its out-edges, in first-mined order.
  struct Node {
    LandmarkId id;
    std::vector<OutEdge> out;
    double busiest = 0;  ///< Largest out-edge count.
  };

  struct PairHash {
    size_t operator()(const std::pair<LandmarkId, LandmarkId>& p) const {
      uint64_t h = static_cast<uint64_t>(p.first) * 0x9e3779b97f4a7c15ULL;
      h ^= static_cast<uint64_t>(p.second) + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };

  /// Dijkstra over the transition graph, considering only out-edges whose
  /// count is at least `min_count_ratio` of the landmark's busiest out-edge.
  Result<std::vector<LandmarkId>> PopularRouteImpl(
      LandmarkId from, LandmarkId to, double min_count_ratio,
      const RequestContext* ctx) const;

  std::vector<Node> nodes_;  ///< first-mined order
  std::unordered_map<LandmarkId, size_t> node_index_;  ///< id -> nodes_ slot
  size_t num_transitions_ = 0;  ///< out-edges across nodes_

  /// Query-side memoization, guarded by cache_mu_.
  mutable std::mutex cache_mu_;
  mutable LruCache<std::pair<LandmarkId, LandmarkId>,
                   Result<std::vector<LandmarkId>>, PairHash>
      route_cache_;
};

}  // namespace stmaker

#endif  // STMAKER_CORE_POPULAR_ROUTE_H_
