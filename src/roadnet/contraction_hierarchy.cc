#include "roadnet/contraction_hierarchy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <utility>

#include "common/check.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace stmaker {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct ExpansionCounter {
  Counter& sink;
  size_t expansions = 0;
  ~ExpansionCounter() { sink.Increment(expansions); }
};

Counter& ChSearches() {
  static Counter& c = MetricsRegistry::Global().counter("router.ch.searches");
  return c;
}

Counter& ChNodesExpanded() {
  static Counter& c =
      MetricsRegistry::Global().counter("router.ch.nodes_expanded");
  return c;
}

Counter& ChBuilds() {
  static Counter& c = MetricsRegistry::Global().counter("router.ch.builds");
  return c;
}

Counter& ChShortcutsBuilt() {
  static Counter& c =
      MetricsRegistry::Global().counter("router.ch.shortcuts_built");
  return c;
}

Histogram& ChRouteLatency() {
  static Histogram& h =
      MetricsRegistry::Global().histogram("roadnet.ch.route_ms");
  return h;
}

Histogram& ChBuildLatency() {
  static Histogram& h =
      MetricsRegistry::Global().histogram("roadnet.ch.build_ms");
  return h;
}

Status BudgetExhausted(size_t budget) {
  return Status::ResourceExhausted(
      "node-expansion budget (" + std::to_string(budget) +
      ") exhausted before the hierarchy search completed");
}

using QItem = std::pair<double, NodeId>;
using MinQueue = std::priority_queue<QItem, std::vector<QItem>, std::greater<>>;

/// Reusable distance/parent arrays for the bidirectional query, valid only
/// for entries stamped with the current generation. One per thread so const
/// queries are trivially race-free.
struct QuerySpace {
  std::vector<double> dist[2];
  std::vector<int32_t> parent[2];
  std::vector<uint32_t> stamp[2];
  uint32_t gen = 0;

  void Begin(size_t n) {
    for (int d = 0; d < 2; ++d) {
      if (dist[d].size() < n) {
        dist[d].resize(n, kInf);
        parent[d].resize(n, -1);
        stamp[d].resize(n, 0);
      }
    }
    if (++gen == 0) {  // stamp wrap: invalidate everything explicitly
      std::fill(stamp[0].begin(), stamp[0].end(), 0u);
      std::fill(stamp[1].begin(), stamp[1].end(), 0u);
      gen = 1;
    }
  }

  bool Stamped(int d, NodeId u) const {
    return stamp[d][static_cast<size_t>(u)] == gen;
  }
  double Dist(int d, NodeId u) const {
    return Stamped(d, u) ? dist[d][static_cast<size_t>(u)] : kInf;
  }
  void Set(int d, NodeId u, double dd, int32_t via) {
    size_t i = static_cast<size_t>(u);
    dist[d][i] = dd;
    parent[d][i] = via;
    stamp[d][i] = gen;
  }
};

thread_local QuerySpace g_query_space;

/// Stamped Dijkstra workspace for the (single-threaded) contraction phase.
struct WitnessSpace {
  std::vector<double> dist;
  std::vector<uint32_t> hops;
  std::vector<uint32_t> stamp;
  uint32_t gen = 0;

  explicit WitnessSpace(size_t n) : dist(n, kInf), hops(n, 0), stamp(n, 0) {}

  void Begin() {
    if (++gen == 0) {
      std::fill(stamp.begin(), stamp.end(), 0u);
      gen = 1;
    }
  }
  bool Stamped(NodeId u) const { return stamp[static_cast<size_t>(u)] == gen; }
  double Dist(NodeId u) const {
    return Stamped(u) ? dist[static_cast<size_t>(u)] : kInf;
  }
};

/// One directed arc of the contraction overlay graph. `arc` indexes the
/// shared arc pool so shortcuts can reference their constituents.
struct OverlayArc {
  NodeId other = -1;  // head for out-lists, tail for in-lists
  double weight = 0;
  int32_t arc = -1;
};

/// Offline contraction: owns the overlay graph, the witness workspace, and
/// the growing arc pool. Single-threaded and deterministic — iteration
/// follows vector order and the priority queue breaks ties by node id.
class Contractor {
 public:
  Contractor(const RoadNetwork& net, const ContractionHierarchyOptions& opt)
      : net_(net),
        opt_(opt),
        n_(net.NumNodes()),
        out_(n_),
        in_(n_),
        contracted_(n_, false),
        deleted_neighbors_(n_, 0),
        rank_(n_, 0),
        ws_(n_) {}

  void Run() {
    SeedOriginalArcs();
    std::priority_queue<std::pair<int64_t, NodeId>,
                        std::vector<std::pair<int64_t, NodeId>>,
                        std::greater<>>
        pq;
    for (NodeId v = 0; static_cast<size_t>(v) < n_; ++v) {
      pq.push({Priority(v), v});
    }
    uint32_t order = 0;
    while (!pq.empty()) {
      auto [p, v] = pq.top();
      pq.pop();
      if (contracted_[static_cast<size_t>(v)]) continue;
      // Lazy re-evaluation: the stored priority may be stale (neighbors
      // were contracted since). Recompute, and only contract if v is
      // still at least as good as the next candidate.
      int64_t fresh = Priority(v);
      if (!pq.empty() && fresh > pq.top().first) {
        pq.push({fresh, v});
        continue;
      }
      Contract(v);
      rank_[static_cast<size_t>(v)] = order++;
    }
    STMAKER_CHECK(order == n_);
  }

  std::vector<uint32_t> TakeRanks() { return std::move(rank_); }
  std::vector<ContractionHierarchy::Arc> TakeArcs() { return std::move(arcs_); }

 private:
  void SeedOriginalArcs() {
    for (NodeId u = 0; static_cast<size_t>(u) < n_; ++u) {
      for (const Adjacency& adj : net_.OutEdges(u)) {
        const RoadEdge& e = net_.edge(adj.edge);
        AddOverlayArc(u, adj.neighbor, e.length_m, adj.edge, -1, -1);
      }
    }
  }

  /// Inserts (or improves) the overlay arc u->t. Keeps at most one overlay
  /// arc per ordered pair — the lightest — which is all shortest-path
  /// preservation needs. Appends a pool arc only when the overlay changes.
  void AddOverlayArc(NodeId u, NodeId t, double weight, EdgeId edge,
                     int32_t left, int32_t right) {
    for (OverlayArc& oa : out_[static_cast<size_t>(u)]) {
      if (oa.other != t) continue;
      if (oa.weight <= weight) return;  // existing arc dominates
      int32_t id = AppendPoolArc(u, t, weight, edge, left, right);
      oa.weight = weight;
      oa.arc = id;
      for (OverlayArc& ia : in_[static_cast<size_t>(t)]) {
        if (ia.other == u) {
          ia.weight = weight;
          ia.arc = id;
          break;
        }
      }
      return;
    }
    int32_t id = AppendPoolArc(u, t, weight, edge, left, right);
    out_[static_cast<size_t>(u)].push_back({t, weight, id});
    in_[static_cast<size_t>(t)].push_back({u, weight, id});
  }

  int32_t AppendPoolArc(NodeId u, NodeId t, double weight, EdgeId edge,
                        int32_t left, int32_t right) {
    ContractionHierarchy::Arc a;
    a.from = u;
    a.to = t;
    a.weight = weight;
    a.edge = edge;
    a.left = left;
    a.right = right;
    arcs_.push_back(a);
    return static_cast<int32_t>(arcs_.size() - 1);
  }

  /// Capped Dijkstra from `u` over the overlay, never entering `skip`.
  /// Fills ws_ distances; used both to price a contraction and to decide
  /// which shortcuts a real contraction must add.
  void WitnessSearch(NodeId u, NodeId skip, double cutoff) {
    ws_.Begin();
    MinQueue pq;
    ws_.dist[static_cast<size_t>(u)] = 0;
    ws_.hops[static_cast<size_t>(u)] = 0;
    ws_.stamp[static_cast<size_t>(u)] = ws_.gen;
    pq.push({0.0, u});
    size_t settled = 0;
    while (!pq.empty()) {
      auto [d, x] = pq.top();
      pq.pop();
      if (d > ws_.Dist(x)) continue;
      if (d > cutoff) break;
      if (++settled > opt_.witness_settle_limit) break;
      uint32_t h = ws_.hops[static_cast<size_t>(x)];
      if (h >= opt_.witness_hop_limit) continue;
      for (const OverlayArc& oa : out_[static_cast<size_t>(x)]) {
        if (oa.other == skip) continue;
        double nd = d + oa.weight;
        if (nd < ws_.Dist(oa.other)) {
          size_t i = static_cast<size_t>(oa.other);
          ws_.dist[i] = nd;
          ws_.hops[i] = h + 1;
          ws_.stamp[i] = ws_.gen;
          pq.push({nd, oa.other});
        }
      }
    }
  }

  /// Counts the shortcuts contracting `v` would need; when `perform`, also
  /// inserts them into the overlay/pool.
  int SimulateContract(NodeId v, bool perform) {
    int shortcuts = 0;
    const auto& ins = in_[static_cast<size_t>(v)];
    const auto& outs = out_[static_cast<size_t>(v)];
    if (ins.empty() || outs.empty()) return 0;
    double max_out = 0;
    for (const OverlayArc& oa : outs) max_out = std::max(max_out, oa.weight);
    // Copy: perform-mode insertions may reallocate the adjacency lists.
    std::vector<OverlayArc> in_copy(ins.begin(), ins.end());
    std::vector<OverlayArc> out_copy(outs.begin(), outs.end());
    for (const OverlayArc& ia : in_copy) {
      NodeId u = ia.other;
      WitnessSearch(u, v, ia.weight + max_out);
      for (const OverlayArc& oa : out_copy) {
        NodeId t = oa.other;
        if (t == u) continue;
        double via = ia.weight + oa.weight;
        if (ws_.Dist(t) <= via) continue;  // a witness path survives
        ++shortcuts;
        if (perform) AddOverlayArc(u, t, via, -1, ia.arc, oa.arc);
      }
    }
    return shortcuts;
  }

  /// Edge difference (shortcuts added minus arcs removed), weighted, plus
  /// the deleted-neighbors term for uniformity of contraction.
  int64_t Priority(NodeId v) {
    int removed = static_cast<int>(in_[static_cast<size_t>(v)].size() +
                                   out_[static_cast<size_t>(v)].size());
    int shortcuts = SimulateContract(v, /*perform=*/false);
    return 2 * (static_cast<int64_t>(shortcuts) - removed) +
           deleted_neighbors_[static_cast<size_t>(v)];
  }

  void Contract(NodeId v) {
    SimulateContract(v, /*perform=*/true);
    contracted_[static_cast<size_t>(v)] = true;
    // Detach v so later witness searches and priorities see only the
    // remaining overlay; bump the deleted-neighbors heuristic.
    for (const OverlayArc& ia : in_[static_cast<size_t>(v)]) {
      auto& lst = out_[static_cast<size_t>(ia.other)];
      lst.erase(std::remove_if(lst.begin(), lst.end(),
                               [v](const OverlayArc& a) { return a.other == v; }),
                lst.end());
      ++deleted_neighbors_[static_cast<size_t>(ia.other)];
    }
    for (const OverlayArc& oa : out_[static_cast<size_t>(v)]) {
      auto& lst = in_[static_cast<size_t>(oa.other)];
      lst.erase(std::remove_if(lst.begin(), lst.end(),
                               [v](const OverlayArc& a) { return a.other == v; }),
                lst.end());
      ++deleted_neighbors_[static_cast<size_t>(oa.other)];
    }
  }

  const RoadNetwork& net_;
  ContractionHierarchyOptions opt_;
  size_t n_;
  std::vector<std::vector<OverlayArc>> out_;
  std::vector<std::vector<OverlayArc>> in_;
  std::vector<bool> contracted_;
  std::vector<int> deleted_neighbors_;
  std::vector<uint32_t> rank_;
  std::vector<ContractionHierarchy::Arc> arcs_;
  WitnessSpace ws_;
};

Status Corrupt(const std::string& context, const std::string& detail) {
  return Status::FailedPrecondition("hierarchy " + context +
                                    " is corrupt: " + detail);
}

}  // namespace

Result<ContractionHierarchy> ContractionHierarchy::Build(
    const RoadNetwork& network, const ContractionHierarchyOptions& options) {
  if (network.NumNodes() == 0) {
    return Status::InvalidArgument(
        "ContractionHierarchy::Build: empty network");
  }
  if (options.witness_settle_limit == 0 || options.witness_hop_limit == 0) {
    return Status::InvalidArgument(
        "ContractionHierarchy::Build: witness limits must be positive");
  }
  ScopedLatencyTimer timer(&ChBuildLatency());
  Contractor contractor(network, options);
  contractor.Run();
  ContractionHierarchy ch;
  ch.rank_ = contractor.TakeRanks();
  ch.arcs_ = contractor.TakeArcs();
  ch.num_edges_ = network.NumEdges();
  ch.num_shortcuts_ = 0;
  for (const Arc& a : ch.arcs_) {
    if (a.edge < 0) ++ch.num_shortcuts_;
  }
  ch.BuildSearchGraphs();
  ChBuilds().Increment();
  ChShortcutsBuilt().Increment(ch.num_shortcuts_);
  return ch;
}

void ContractionHierarchy::BuildSearchGraphs() {
  size_t n = rank_.size();
  up_.assign(n, {});
  rev_up_.assign(n, {});
  for (size_t i = 0; i < arcs_.size(); ++i) {
    const Arc& a = arcs_[i];
    UpArc ua;
    ua.weight = a.weight;
    ua.arc = static_cast<int32_t>(i);
    if (rank_[static_cast<size_t>(a.from)] < rank_[static_cast<size_t>(a.to)]) {
      ua.to = a.to;
      up_[static_cast<size_t>(a.from)].push_back(ua);
    } else {
      ua.to = a.from;
      rev_up_[static_cast<size_t>(a.to)].push_back(ua);
    }
  }
}

Status ContractionHierarchy::Search(NodeId src, NodeId dst,
                                    const RequestContext* ctx, NodeId* meet,
                                    double* dist) const {
  STMAKER_RETURN_IF_ERROR(CheckContext(ctx));
  ChSearches().Increment();
  ExpansionCounter expanded{ChNodesExpanded()};
  const size_t budget = ctx == nullptr ? 0 : ctx->max_node_expansions;
  CancelCheck check(ctx);
  QuerySpace& qs = g_query_space;
  qs.Begin(rank_.size());
  qs.Set(0, src, 0.0, -1);
  qs.Set(1, dst, 0.0, -1);
  MinQueue pq[2];
  pq[0].push({0.0, src});
  pq[1].push({0.0, dst});
  double best = kInf;
  NodeId best_meet = -1;
  while (!pq[0].empty() || !pq[1].empty()) {
    // Advance the side with the smaller tentative distance; a side whose
    // queue minimum already exceeds the best meeting distance can never
    // improve it (upward weights are non-negative) and is drained.
    int d;
    if (pq[0].empty()) {
      d = 1;
    } else if (pq[1].empty()) {
      d = 0;
    } else {
      d = pq[0].top().first <= pq[1].top().first ? 0 : 1;
    }
    auto [du, u] = pq[d].top();
    pq[d].pop();
    if (du >= best) {
      pq[d] = MinQueue();
      continue;
    }
    if (du > qs.Dist(d, u)) continue;  // stale entry
    STMAKER_RETURN_IF_ERROR(check.Tick());
    ++expanded.expansions;
    if (budget > 0 && expanded.expansions > budget) {
      return BudgetExhausted(budget);
    }
    // Stall-on-demand: if u is reachable more cheaply through a
    // higher-ranked node via a downward arc, no shortest up-down path goes
    // up through u — skip it entirely.
    const auto& down = d == 0 ? rev_up_ : up_;
    bool stalled = false;
    for (const UpArc& da : down[static_cast<size_t>(u)]) {
      if (qs.Dist(d, da.to) + da.weight < du) {
        stalled = true;
        break;
      }
    }
    if (stalled) continue;
    double other = qs.Dist(1 - d, u);
    if (other != kInf && du + other < best) {
      best = du + other;
      best_meet = u;
    }
    const auto& graph = d == 0 ? up_ : rev_up_;
    for (const UpArc& ua : graph[static_cast<size_t>(u)]) {
      double nd = du + ua.weight;
      if (nd < qs.Dist(d, ua.to)) {
        qs.Set(d, ua.to, nd, ua.arc);
        pq[d].push({nd, ua.to});
      }
    }
  }
  if (best == kInf) {
    return Status::NotFound("no route between the given nodes");
  }
  *meet = best_meet;
  *dist = best;
  return Status::OK();
}

Result<double> ContractionHierarchy::Distance(NodeId src, NodeId dst,
                                              const RequestContext* ctx) const {
  size_t n = rank_.size();
  if (src < 0 || static_cast<size_t>(src) >= n || dst < 0 ||
      static_cast<size_t>(dst) >= n) {
    return Status::InvalidArgument("Distance: node id out of range");
  }
  ScopedSpan span(TraceOf(ctx), "ch_route", &ChRouteLatency());
  NodeId meet = -1;
  double dist = kInf;
  STMAKER_RETURN_IF_ERROR(Search(src, dst, ctx, &meet, &dist));
  return dist;
}

void ContractionHierarchy::Unpack(int32_t arc, std::vector<NodeId>* nodes,
                                  std::vector<EdgeId>* edges) const {
  std::vector<int32_t> stack;
  stack.push_back(arc);
  while (!stack.empty()) {
    int32_t i = stack.back();
    stack.pop_back();
    const Arc& a = arcs_[static_cast<size_t>(i)];
    if (a.edge >= 0) {
      edges->push_back(a.edge);
      nodes->push_back(a.to);
    } else {
      stack.push_back(a.right);  // popped after left: left-to-right order
      stack.push_back(a.left);
    }
  }
}

Result<Path> ContractionHierarchy::Route(NodeId src, NodeId dst,
                                         const RequestContext* ctx) const {
  size_t n = rank_.size();
  if (src < 0 || static_cast<size_t>(src) >= n || dst < 0 ||
      static_cast<size_t>(dst) >= n) {
    return Status::InvalidArgument("Route: node id out of range");
  }
  ScopedSpan span(TraceOf(ctx), "ch_route", &ChRouteLatency());
  NodeId meet = -1;
  double dist = kInf;
  STMAKER_RETURN_IF_ERROR(Search(src, dst, ctx, &meet, &dist));
  const QuerySpace& qs = g_query_space;  // still holds this search's parents
  std::vector<int32_t> fwd_arcs;
  for (NodeId at = meet;;) {
    int32_t a = qs.parent[0][static_cast<size_t>(at)];
    if (a < 0) break;
    fwd_arcs.push_back(a);
    at = arcs_[static_cast<size_t>(a)].from;
  }
  std::reverse(fwd_arcs.begin(), fwd_arcs.end());
  Path path;
  path.cost = dist;
  path.nodes.push_back(src);
  for (int32_t a : fwd_arcs) Unpack(a, &path.nodes, &path.edges);
  for (NodeId at = meet;;) {
    int32_t a = qs.parent[1][static_cast<size_t>(at)];
    if (a < 0) break;
    Unpack(a, &path.nodes, &path.edges);
    at = arcs_[static_cast<size_t>(a)].to;
  }
  STMAKER_DCHECK(path.nodes.back() == dst);
  return path;
}

Result<ContractionHierarchy> ContractionHierarchy::FromRaw(
    std::span<const uint32_t> rank, std::span<const Arc> arcs,
    size_t declared_num_edges, size_t declared_shortcuts,
    const RoadNetwork& network, const std::string& context) {
  if (rank.size() != network.NumNodes() ||
      declared_num_edges != network.NumEdges()) {
    return Corrupt(context,
                   "hierarchy was built for a different network (" +
                       std::to_string(rank.size()) + " nodes/" +
                       std::to_string(declared_num_edges) + " edges vs " +
                       std::to_string(network.NumNodes()) + "/" +
                       std::to_string(network.NumEdges()) + ")");
  }
  const int64_t nodes = static_cast<int64_t>(network.NumNodes());
  const int64_t edges = static_cast<int64_t>(network.NumEdges());
  std::vector<bool> rank_seen(static_cast<size_t>(nodes), false);
  for (int64_t v = 0; v < nodes; ++v) {
    const uint32_t rk = rank[static_cast<size_t>(v)];
    if (rk >= static_cast<uint64_t>(nodes)) {
      return Corrupt(context, "bad rank record at row " + std::to_string(v));
    }
    if (rank_seen[rk]) {
      return Corrupt(context, "duplicate rank " + std::to_string(rk));
    }
    rank_seen[rk] = true;
  }

  size_t shortcuts = 0;
  for (size_t k = 0; k < arcs.size(); ++k) {
    const Arc& a = arcs[k];
    if (a.from < 0 || a.from >= nodes || a.to < 0 || a.to >= nodes ||
        a.from == a.to || !std::isfinite(a.weight) || a.weight < 0) {
      return Corrupt(context,
                     "arc " + std::to_string(k) + " endpoints/weight invalid");
    }
    if (a.edge >= 0) {
      // Original arc: must correspond to a real, traversable edge.
      if (a.left != -1 || a.right != -1 || a.edge >= edges) {
        return Corrupt(context, "arc " + std::to_string(k) + " malformed");
      }
      const RoadEdge& e = network.edge(a.edge);
      bool forward = e.from == a.from && e.to == a.to;
      bool backward = e.from == a.to && e.to == a.from &&
                      e.direction == TrafficDirection::kTwoWay;
      if (!forward && !backward) {
        return Corrupt(context, "arc " + std::to_string(k) +
                                    " does not match its road edge");
      }
      if (std::abs(a.weight - e.length_m) >
          1e-9 * std::max(1.0, e.length_m)) {
        return Corrupt(context, "arc " + std::to_string(k) +
                                    " weight disagrees with edge length");
      }
    } else {
      // Shortcut: constituents must be earlier arcs forming a chain of
      // matching endpoints and weights.
      if (a.edge != -1 || a.left < 0 ||
          static_cast<size_t>(a.left) >= k || a.right < 0 ||
          static_cast<size_t>(a.right) >= k) {
        return Corrupt(context,
                       "shortcut " + std::to_string(k) + " malformed");
      }
      const Arc& l = arcs[static_cast<size_t>(a.left)];
      const Arc& rr = arcs[static_cast<size_t>(a.right)];
      if (l.from != a.from || l.to != rr.from || rr.to != a.to) {
        return Corrupt(context, "shortcut " + std::to_string(k) +
                                    " constituents do not chain");
      }
      if (std::abs(a.weight - (l.weight + rr.weight)) >
          1e-6 * std::max(1.0, a.weight)) {
        return Corrupt(context, "shortcut " + std::to_string(k) +
                                    " weight disagrees with constituents");
      }
      ++shortcuts;
    }
  }
  if (shortcuts != declared_shortcuts) {
    return Corrupt(context, "shortcut count mismatch");
  }

  ContractionHierarchy ch;
  ch.rank_.assign(rank.begin(), rank.end());
  ch.arcs_.assign(arcs.begin(), arcs.end());
  ch.num_edges_ = static_cast<size_t>(edges);
  ch.num_shortcuts_ = shortcuts;
  ch.BuildSearchGraphs();
  return ch;
}

}  // namespace stmaker
