#ifndef STMAKER_ROADNET_SHORTEST_PATH_H_
#define STMAKER_ROADNET_SHORTEST_PATH_H_

/// \file
/// ShortestPathRouter: Dijkstra and Bellman–Ford point queries,
/// with transparent contraction-hierarchy acceleration when attached.

#include <functional>
#include <vector>

#include "common/context.h"
#include "common/status.h"
#include "roadnet/road_network.h"

namespace stmaker {

class ContractionHierarchy;

/// A routed path: n nodes and n-1 edges, plus the total cost under the cost
/// function used to compute it.
struct Path {
  std::vector<NodeId> nodes;
  std::vector<EdgeId> edges;
  double cost = 0;

  bool empty() const { return nodes.empty(); }
};

/// Cost of traversing `edge` in the given direction. Must be non-negative
/// for Dijkstra. The default (null) cost function is geometric length.
using EdgeCostFn = std::function<double(const RoadEdge& edge, bool forward)>;

/// Cost = edge length in meters.
EdgeCostFn LengthCost();

/// Cost = free-flow travel time in seconds (length / grade speed), which
/// biases routes onto high-grade roads like real navigation does.
EdgeCostFn TravelTimeCost();

/// \brief Single-source shortest path routing over a RoadNetwork.
///
/// The pointee network must outlive the router. Dijkstra is the production
/// algorithm; BellmanFord exists as an independent oracle for tests. A
/// preprocessed ContractionHierarchy can be attached as an accelerated
/// backend for the default length metric — see AttachHierarchy().
class ShortestPathRouter {
 public:
  explicit ShortestPathRouter(const RoadNetwork* network);

  /// Attaches (or, with null, detaches) a preprocessed hierarchy built over
  /// the same network. While attached, Route() calls under the default
  /// geometric-length metric (null cost) are served by the hierarchy's
  /// bidirectional search; calls with a custom EdgeCostFn transparently
  /// fall back to Dijkstra, since the preprocessing is only valid for the
  /// metric it was contracted under (the `router.ch.fallbacks` counter
  /// tracks those). The hierarchy must outlive the router. Not
  /// synchronized with concurrent Route() calls — attach before serving.
  ///
  /// \param hierarchy The hierarchy to serve length-metric queries, or
  ///   null to return to plain Dijkstra.
  void AttachHierarchy(const ContractionHierarchy* hierarchy) {
    hierarchy_ = hierarchy;
  }

  /// The attached hierarchy, or null when routing is pure Dijkstra.
  const ContractionHierarchy* hierarchy() const { return hierarchy_; }

  /// Shortest path from `src` to `dst`. Returns NotFound when unreachable.
  ///
  /// Served by the attached contraction hierarchy when one is present and
  /// `cost` is null (the default length metric); by Dijkstra otherwise.
  /// Both backends return the same distances and honor the same context
  /// contract.
  ///
  /// With a context: the expansion loop checks the deadline periodically
  /// (kDeadlineExceeded — never a truncated path),
  /// and ctx->max_node_expansions caps the number of settled nodes for
  /// this call (kResourceExhausted when the cap is hit before dst).
  ///
  /// \param src Start node id.
  /// \param dst Destination node id.
  /// \param cost Traversal cost function; null selects geometric length.
  /// \param ctx Optional request limits (may be null).
  /// \return The path, NotFound when unreachable, InvalidArgument for
  ///   out-of-range ids, or a context error.
  Result<Path> Route(NodeId src, NodeId dst, const EdgeCostFn& cost = nullptr,
                     const RequestContext* ctx = nullptr) const;

  /// Bellman–Ford reference implementation (O(V·E)); test oracle only.
  Result<Path> RouteBellmanFord(NodeId src, NodeId dst,
                                const EdgeCostFn& cost = nullptr) const;

 private:
  const RoadNetwork* network_;
  const ContractionHierarchy* hierarchy_ = nullptr;
};

}  // namespace stmaker

#endif  // STMAKER_ROADNET_SHORTEST_PATH_H_
