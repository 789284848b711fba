#include "roadnet/shortest_path.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/check.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "roadnet/contraction_hierarchy.h"

namespace stmaker {

namespace {

/// Flushes a search's expansion count into the registry on every exit path
/// (success, NotFound, deadline, budget) with a single Increment.
struct ExpansionCounter {
  Counter& sink;
  size_t expansions = 0;
  ~ExpansionCounter() { sink.Increment(expansions); }
};

Counter& DijkstraSearches() {
  static Counter& c =
      MetricsRegistry::Global().counter("roadnet.dijkstra.searches");
  return c;
}

Counter& DijkstraNodesExpanded() {
  static Counter& c =
      MetricsRegistry::Global().counter("roadnet.dijkstra.nodes_expanded");
  return c;
}

Histogram& RouteLatency() {
  static Histogram& h = MetricsRegistry::Global().histogram("roadnet.route_ms");
  return h;
}

Counter& ChFallbacks() {
  static Counter& c = MetricsRegistry::Global().counter("router.ch.fallbacks");
  return c;
}

}  // namespace

EdgeCostFn LengthCost() {
  return [](const RoadEdge& e, bool /*forward*/) { return e.length_m; };
}

EdgeCostFn TravelTimeCost() {
  return [](const RoadEdge& e, bool /*forward*/) {
    double speed_mps = FreeFlowSpeedKmh(e.grade) / 3.6;
    return e.length_m / speed_mps;
  };
}

ShortestPathRouter::ShortestPathRouter(const RoadNetwork* network)
    : network_(network) {
  STMAKER_CHECK(network != nullptr);
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Result<Path> Reconstruct(const RoadNetwork& net, NodeId src, NodeId dst,
                         const std::vector<double>& dist,
                         const std::vector<NodeId>& prev_node,
                         const std::vector<EdgeId>& prev_edge) {
  if (dist[dst] == kInf) {
    return Status::NotFound("no route between the given nodes");
  }
  Path path;
  path.cost = dist[dst];
  for (NodeId at = dst; at != src; at = prev_node[at]) {
    path.nodes.push_back(at);
    path.edges.push_back(prev_edge[at]);
  }
  path.nodes.push_back(src);
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.edges.begin(), path.edges.end());
  (void)net;
  return path;
}

/// kResourceExhausted for a search that settled `expansions` nodes without
/// reaching dst inside the per-call budget.
Status BudgetExhausted(size_t budget) {
  return Status::ResourceExhausted(
      "node-expansion budget (" + std::to_string(budget) +
      ") exhausted before reaching the destination");
}

}  // namespace

Result<Path> ShortestPathRouter::Route(NodeId src, NodeId dst,
                                       const EdgeCostFn& cost,
                                       const RequestContext* ctx) const {
  const RoadNetwork& net = *network_;
  if (src < 0 || static_cast<size_t>(src) >= net.NumNodes() || dst < 0 ||
      static_cast<size_t>(dst) >= net.NumNodes()) {
    return Status::InvalidArgument("Route: node id out of range");
  }
  if (hierarchy_ != nullptr) {
    if (!cost) return hierarchy_->Route(src, dst, ctx);
    // The hierarchy was contracted under the length metric; a custom cost
    // function must take the exact path.
    ChFallbacks().Increment();
  }
  STMAKER_RETURN_IF_ERROR(CheckContext(ctx));
  DijkstraSearches().Increment();
  ScopedSpan span(TraceOf(ctx), "dijkstra", &RouteLatency());
  ExpansionCounter expanded{DijkstraNodesExpanded()};
  const size_t budget = ctx == nullptr ? 0 : ctx->max_node_expansions;
  size_t& expansions = expanded.expansions;
  CancelCheck check(ctx);
  EdgeCostFn c = cost ? cost : LengthCost();
  std::vector<double> dist(net.NumNodes(), kInf);
  std::vector<NodeId> prev_node(net.NumNodes(), -1);
  std::vector<EdgeId> prev_edge(net.NumNodes(), -1);
  using QItem = std::pair<double, NodeId>;
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> pq;
  dist[src] = 0;
  pq.push({0.0, src});
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    if (u == dst) break;
    STMAKER_RETURN_IF_ERROR(check.Tick());
    ++expansions;
    if (budget > 0 && expansions > budget) return BudgetExhausted(budget);
    for (const Adjacency& adj : net.OutEdges(u)) {
      double w = c(net.edge(adj.edge), adj.forward);
      STMAKER_DCHECK(w >= 0);
      double nd = d + w;
      if (nd < dist[adj.neighbor]) {
        dist[adj.neighbor] = nd;
        prev_node[adj.neighbor] = u;
        prev_edge[adj.neighbor] = adj.edge;
        pq.push({nd, adj.neighbor});
      }
    }
  }
  return Reconstruct(net, src, dst, dist, prev_node, prev_edge);
}

Result<Path> ShortestPathRouter::RouteBellmanFord(
    NodeId src, NodeId dst, const EdgeCostFn& cost) const {
  const RoadNetwork& net = *network_;
  if (src < 0 || static_cast<size_t>(src) >= net.NumNodes() || dst < 0 ||
      static_cast<size_t>(dst) >= net.NumNodes()) {
    return Status::InvalidArgument("RouteBellmanFord: node id out of range");
  }
  EdgeCostFn c = cost ? cost : LengthCost();
  std::vector<double> dist(net.NumNodes(), kInf);
  std::vector<NodeId> prev_node(net.NumNodes(), -1);
  std::vector<EdgeId> prev_edge(net.NumNodes(), -1);
  dist[src] = 0;
  bool changed = true;
  for (size_t round = 0; round < net.NumNodes() && changed; ++round) {
    changed = false;
    for (NodeId u = 0; static_cast<size_t>(u) < net.NumNodes(); ++u) {
      if (dist[u] == kInf) continue;
      for (const Adjacency& adj : net.OutEdges(u)) {
        double nd = dist[u] + c(net.edge(adj.edge), adj.forward);
        if (nd < dist[adj.neighbor]) {
          dist[adj.neighbor] = nd;
          prev_node[adj.neighbor] = u;
          prev_edge[adj.neighbor] = adj.edge;
          changed = true;
        }
      }
    }
  }
  return Reconstruct(net, src, dst, dist, prev_node, prev_edge);
}

}  // namespace stmaker
