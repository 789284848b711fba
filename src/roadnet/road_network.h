#ifndef STMAKER_ROADNET_ROAD_NETWORK_H_
#define STMAKER_ROADNET_ROAD_NETWORK_H_

/// \file
/// In-memory road graph: nodes, edges, and adjacency queries over a
/// cache-friendly CSR (compressed sparse row) layout.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "geo/vec2.h"
#include "roadnet/road_types.h"

namespace stmaker {

using NodeId = int64_t;
using EdgeId = int64_t;

/// An intersection or shape point of the road graph.
struct RoadNode {
  NodeId id = -1;
  Vec2 pos;
  /// True when the node is a genuine turning point of the network (degree
  /// != 2 or a sharp bend); turning points become landmark candidates.
  bool is_turning_point = false;
};

/// A road segment between two nodes, carrying the routing attributes the
/// paper's Table III consumes: grade, width, and traffic direction.
struct RoadEdge {
  EdgeId id = -1;
  NodeId from = -1;
  NodeId to = -1;
  RoadGrade grade = RoadGrade::kCountryRoad;
  double width_m = 10.0;
  TrafficDirection direction = TrafficDirection::kTwoWay;
  std::string name;
  double length_m = 0;
  /// Persistent route-choice bias (~1.0): captures road quality differences
  /// (pavement, signal timing, congestion reputation) that make all drivers
  /// break ties between geometrically equivalent paths the same way. Grid
  /// networks are massively path-degenerate; without a shared tie-breaker no
  /// "popular route" can emerge.
  double cost_bias = 1.0;
};

/// One traversal option out of a node.
struct Adjacency {
  EdgeId edge = -1;
  NodeId neighbor = -1;
  /// True when traversal goes from edge.from to edge.to.
  bool forward = true;
};

/// \brief In-memory road graph (the "commercial digital map" substrate).
///
/// Nodes and edges are stored in dense arrays indexed by their ids, which
/// are assigned contiguously by AddNode/AddEdge. One-way edges are traversable
/// only from `from` to `to`; two-way edges both ways. After construction,
/// BuildSpatialIndex() enables nearest-edge queries for map matching.
///
/// Layout (DESIGN.md §13): adjacency lives in one CSR block — an offset
/// array indexed by node plus a packed entry array — so graph searches
/// (Dijkstra/A*, the CH build, the matcher's connectivity checks) stream
/// contiguous memory instead of chasing one heap vector per node. Edge
/// geometry and endpoints are mirrored into struct-of-arrays
/// (`edge_geometry`/`edge_endpoints`) so distance scans never touch the
/// string-bearing RoadEdge records. The CSR block is finalized lazily on
/// the first query after a mutation; construction (AddNode/AddEdge) is
/// single-threaded, queries afterwards are freely concurrent.
class RoadNetwork {
 public:
  /// Contiguous view over one node's packed traversal options.
  using AdjacencySpan = std::span<const Adjacency>;

  /// Endpoint positions of one edge, packed for distance scans.
  struct EdgeGeometry {
    Vec2 a;  ///< Position of `from`.
    Vec2 b;  ///< Position of `to`.
  };

  /// Endpoint node ids of one edge, packed for connectivity checks.
  /// 32-bit on purpose: node ids are dense, and halving the record doubles
  /// how many transition checks fit in a cache line.
  struct EdgeEndpoints {
    int32_t from = -1;
    int32_t to = -1;
  };

  RoadNetwork() = default;

  /// \brief Builds a network whose four hot arrays — CSR offsets/entries,
  /// edge geometry, edge endpoints — ALIAS caller-owned memory (a mapped
  /// model container) instead of being copied to the heap. `nodes`/`edges`
  /// stay materialized (they carry strings); derived state (lengths,
  /// degrees, turning points, the spatial index) is recomputed exactly as
  /// the CSV load path does, and the aliased arrays are cross-validated
  /// against the edge list so a corrupt container cannot produce an
  /// inconsistent graph.
  ///
  /// The caller must keep the aliased memory alive for the network's whole
  /// lifetime (ModelSnapshot pins the mapping for exactly this reason).
  /// An adopted network is immutable: AddNode/AddEdge CHECK-fail.
  ///
  /// \param nodes Materialized nodes, ids dense (node i has id i).
  /// \param edges Materialized edges, ids dense; `length_m` is recomputed.
  /// \param csr_offsets Aliased CSR row starts (nodes + 1 entries).
  /// \param csr_entries Aliased packed adjacency entries.
  /// \param edge_geom Aliased per-edge endpoint positions.
  /// \param edge_ends Aliased per-edge 32-bit endpoint ids.
  /// \return The adopted network, or kInvalidArgument naming the
  /// inconsistency.
  static Result<RoadNetwork> AdoptMapped(
      std::vector<RoadNode> nodes, std::vector<RoadEdge> edges,
      std::span<const uint32_t> csr_offsets,
      std::span<const Adjacency> csr_entries,
      std::span<const EdgeGeometry> edge_geom,
      std::span<const EdgeEndpoints> edge_ends);

  RoadNetwork(RoadNetwork&& other) noexcept;
  RoadNetwork& operator=(RoadNetwork&& other) noexcept;
  RoadNetwork(const RoadNetwork&) = delete;
  RoadNetwork& operator=(const RoadNetwork&) = delete;

  /// Adds a node at `pos`; returns its id.
  NodeId AddNode(const Vec2& pos);

  /// Adds an edge between existing nodes. The length is computed from the
  /// endpoint positions. Returns the edge id, or an error for bad node ids
  /// or a self-loop.
  Result<EdgeId> AddEdge(NodeId from, NodeId to, RoadGrade grade,
                         double width_m, TrafficDirection direction,
                         std::string name);

  size_t NumNodes() const { return nodes_.size(); }
  size_t NumEdges() const { return edges_.size(); }

  const RoadNode& node(NodeId id) const;
  RoadNode& mutable_node(NodeId id);
  const RoadEdge& edge(EdgeId id) const;
  RoadEdge& mutable_edge(EdgeId id);

  const std::vector<RoadNode>& nodes() const { return nodes_; }
  const std::vector<RoadEdge>& edges() const { return edges_; }

  /// Traversal options leaving `id` (respects one-way restrictions), as a
  /// view into the packed CSR entry array. The view is invalidated by the
  /// next AddEdge.
  AdjacencySpan OutEdges(NodeId id) const;

  /// Endpoint positions of `e` (same values as node(edge.from/to).pos,
  /// packed contiguously).
  const EdgeGeometry& edge_geometry(EdgeId e) const;

  /// Endpoint node ids of `e`, packed contiguously.
  const EdgeEndpoints& edge_endpoints(EdgeId e) const;

  /// Out-degree plus in-degree as seen by the undirected topology.
  size_t Degree(NodeId id) const;

  /// The edge joining `a` and `b` traversable from `a`, or -1.
  EdgeId FindEdgeBetween(NodeId a, NodeId b) const;

  /// Marks nodes whose undirected degree != 2 as turning points. Called by
  /// the map generator after construction; idempotent.
  void AnnotateTurningPoints();

  /// Builds the segment-cell index behind NearestEdge, EdgesNear and
  /// ClosestEdges (DESIGN.md §13): a grid of kSpatialCellM-meter cells in
  /// which every edge is listed in each cell its segment passes through,
  /// so build work and memory grow with total edge length ÷ cell size.
  /// Must be re-called if edges are added afterwards. Every edge endpoint
  /// must pass IsBoundedCoord (CHECK-enforced; the world readers reject
  /// anything else).
  void BuildSpatialIndex();

  /// Pitch of the segment-cell index, in meters.
  static constexpr double kSpatialCellM = 100.0;

  /// Nearest edge to `p` by true point-to-segment distance among the edges
  /// within `max_radius` meters (inclusive). Among equidistant edges the
  /// lowest id wins. Returns -1 if none (or the index is not built).
  EdgeId NearestEdge(const Vec2& p, double max_radius) const;

  /// Edges whose geometry passes within `radius` of `p`, ascending by id.
  std::vector<EdgeId> EdgesNear(const Vec2& p, double radius) const;

  /// Up to `max_count` closest edges within `radius` of `p`, appended to
  /// `*out` as (distance, edge) sorted ascending by (distance, id): exactly
  /// the `max_count` head of the sorted EdgesNear(radius) scan. One index
  /// probe at the full radius visits only the cells that overlap
  /// [p - radius, p + radius].
  void ClosestEdges(const Vec2& p, double radius, size_t max_count,
                    std::vector<std::pair<double, EdgeId>>* out) const;

  /// Distance from `p` to the segment geometry of `e`.
  double DistanceToEdge(const Vec2& p, EdgeId e) const;

  /// The packed CSR row-start array (finalizes first). One entry per node
  /// plus a terminator; invalidated by the next AddEdge.
  /// \return View of NumNodes() + 1 offsets.
  std::span<const uint32_t> csr_offsets() const;

  /// The packed CSR adjacency entries (finalizes first); invalidated by
  /// the next AddEdge.
  /// \return View of all directed traversal options, grouped by node.
  std::span<const Adjacency> csr_entries() const;

  /// Per-edge endpoint positions, indexed by edge id.
  /// \return View of NumEdges() geometry records.
  std::span<const EdgeGeometry> edge_geometries() const {
    return edge_geom_view_;
  }

  /// Per-edge packed endpoint ids, indexed by edge id.
  /// \return View of NumEdges() endpoint records.
  std::span<const EdgeEndpoints> edge_endpoints_all() const {
    return edge_ends_view_;
  }

  /// True when the hot arrays alias external memory (AdoptMapped).
  bool adopted() const { return adopted_; }

 private:
  /// Rebuilds the CSR adjacency block from `pending_` (entries added since
  /// the last finalize). Called lazily from OutEdges under `csr_mu_`;
  /// logically const (the directed adjacency it materializes is fixed by
  /// the AddEdge history).
  void FinalizeAdjacency() const;

  /// Deduplicating exact-distance scan over the index cells overlapping
  /// [p - radius, p + radius]. Appends every (distance, edge) pair with
  /// distance <= `radius`, in no particular order.
  void CollectEdgesWithin(const Vec2& p, double radius,
                          std::vector<std::pair<double, EdgeId>>* out) const;

  std::vector<RoadNode> nodes_;
  std::vector<RoadEdge> edges_;
  std::vector<size_t> undirected_degree_;

  // Struct-of-arrays mirrors, appended by AddEdge (positions are fixed once
  // an edge references them — length_m already bakes them in).
  std::vector<EdgeGeometry> edge_geom_;
  std::vector<EdgeEndpoints> edge_ends_;

  // Every reader goes through these views. For a built network they alias
  // the vectors above (refreshed after each mutation); for an adopted one
  // they alias the mapped container and the vectors stay empty. Vector
  // moves keep heap buffers, so the views survive RoadNetwork moves.
  std::span<const EdgeGeometry> edge_geom_view_;
  std::span<const EdgeEndpoints> edge_ends_view_;
  mutable std::span<const uint32_t> csr_offsets_view_;
  mutable std::span<const Adjacency> csr_entries_view_;
  /// True when the views alias external (mapped) memory; mutation is
  /// forbidden and the CSR is final.
  bool adopted_ = false;

  // CSR adjacency: entries for node n live at
  // csr_entries_[csr_offsets_[n] .. csr_offsets_[n+1]), in AddEdge order.
  // Mutable + mutex: finalized lazily on first query after a mutation.
  mutable std::vector<uint32_t> csr_offsets_;
  mutable std::vector<Adjacency> csr_entries_;
  /// Directed entries recorded since the last finalize, in insertion order.
  mutable std::vector<std::pair<NodeId, Adjacency>> pending_;
  /// True when `pending_` holds entries (or nodes were added) not yet
  /// merged into the CSR block. Acquire/release pairs the lazy finalize
  /// with concurrent readers.
  mutable std::atomic<bool> csr_dirty_{false};
  mutable std::unique_ptr<std::mutex> csr_mu_ =
      std::make_unique<std::mutex>();

  // Segment-cell index (BuildSpatialIndex). Occupied cells are keyed by
  // their packed (row, column), ascending, so one grid row is one sorted
  // run; cell i lists its edges, ascending by id, at
  // cell_edges_[cell_starts_[i] .. cell_starts_[i + 1]). An empty
  // cell_starts_ means the index is not built.
  std::vector<uint64_t> cell_keys_;
  std::vector<uint32_t> cell_starts_;
  std::vector<uint32_t> cell_edges_;
  int32_t cell_row_lo_ = 0;  ///< Lowest occupied row.
  int32_t cell_row_hi_ = -1;  ///< Highest occupied row.
};

}  // namespace stmaker

#endif  // STMAKER_ROADNET_ROAD_NETWORK_H_
