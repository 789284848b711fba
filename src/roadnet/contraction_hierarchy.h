#ifndef STMAKER_ROADNET_CONTRACTION_HIERARCHY_H_
#define STMAKER_ROADNET_CONTRACTION_HIERARCHY_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/context.h"
#include "common/status.h"
#include "roadnet/road_network.h"
#include "roadnet/shortest_path.h"

/// \file
/// \brief Contraction-hierarchies routing backend (Geisberger et al. 2008).
///
/// Offline, nodes are contracted one by one in importance order (edge
/// difference with lazy re-evaluation plus a deleted-neighbours term);
/// every contraction that would break a shortest path inserts a shortcut
/// arc remembering its two constituent arcs. Online, a point-to-point
/// query is a bidirectional Dijkstra that only ever relaxes arcs leading
/// to higher-ranked nodes — search spaces of tens of nodes where plain
/// Dijkstra settles half the graph — and the winning up-down path is
/// unpacked back into original node/edge ids. The preprocessing serves the
/// default geometric-length metric; queries under custom cost functions
/// fall back to plain Dijkstra at the ShortestPathRouter seam (see
/// shortest_path.h and DESIGN.md §12).

namespace stmaker {

/// Preprocessing knobs. The defaults favour fast construction; witness
/// searches are capped, which can only ever add redundant shortcuts, never
/// produce wrong distances.
struct ContractionHierarchyOptions {
  /// Settled-node cap per witness search during contraction. Lower = faster
  /// build, slightly more shortcuts.
  size_t witness_settle_limit = 64;
  /// Hop cap per witness-search label (bounds path length in arcs).
  size_t witness_hop_limit = 16;
};

/// \brief A preprocessed routing hierarchy over one RoadNetwork under the
/// geometric-length metric.
///
/// Immutable once built (or restored); all query methods are const and
/// thread-safe (per-thread search workspaces). The network the hierarchy
/// was built over must outlive it and must not change — FromRaw validates
/// node/edge counts and edge endpoints to catch a stale hierarchy, and the
/// model container adds a per-section CRC32 on top.
class ContractionHierarchy {
 public:
  /// One arc of the search graph: either an original road edge
  /// (edge >= 0) or a shortcut standing for the concatenation of two
  /// earlier arcs (left/right >= 0).
  struct Arc {
    NodeId from = -1;
    NodeId to = -1;
    double weight = 0;  ///< Geometric length of the represented path, m.
    EdgeId edge = -1;   ///< Original edge id, or -1 for a shortcut.
    int32_t left = -1;  ///< Constituent arc ids of a shortcut (-1 for an
    int32_t right = -1; ///< original edge); left covers from->mid, right
                        ///< mid->to, where mid is the contracted node.
  };

  /// Contracts `network` under the geometric-length metric.
  ///
  /// Deterministic: the node order depends only on the graph, never on
  /// thread scheduling or address layout. Build time is roughly linear in
  /// the network size for road-like graphs; budget a few hundred
  /// milliseconds per 100k nodes.
  ///
  /// \param network The road graph to preprocess; must outlive the result.
  /// \param options Witness-search caps (see ContractionHierarchyOptions).
  /// \return The hierarchy, or InvalidArgument for an empty network.
  static Result<ContractionHierarchy> Build(
      const RoadNetwork& network,
      const ContractionHierarchyOptions& options =
          ContractionHierarchyOptions());

  /// Shortest-path distance from `src` to `dst` in meters.
  ///
  /// Exactly Dijkstra's distance (up to floating-point associativity).
  /// Honors the context like ShortestPathRouter::Route: deadline/cancel
  /// checks every few settled nodes, and ctx->max_node_expansions caps the
  /// total settled nodes across both search directions
  /// (kResourceExhausted).
  ///
  /// \param src Start node id.
  /// \param dst Destination node id.
  /// \param ctx Optional request limits (may be null).
  /// \return The distance, NotFound when unreachable, InvalidArgument for
  ///   out-of-range ids, or a context error.
  Result<double> Distance(NodeId src, NodeId dst,
                          const RequestContext* ctx = nullptr) const;

  /// Shortest path from `src` to `dst`, unpacked to original node/edge
  /// ids — the same shape ShortestPathRouter::Route returns, with
  /// path.cost equal to Distance(). Context handling as in Distance().
  ///
  /// \param src Start node id.
  /// \param dst Destination node id.
  /// \param ctx Optional request limits (may be null).
  /// \return The unpacked path or the same errors as Distance().
  Result<Path> Route(NodeId src, NodeId dst,
                     const RequestContext* ctx = nullptr) const;

  /// Number of nodes of the underlying network.
  size_t NumNodes() const { return rank_.size(); }
  /// Total arcs of the search graph (original edges + shortcuts).
  size_t NumArcs() const { return arcs_.size(); }
  /// Shortcut arcs added by preprocessing.
  size_t NumShortcuts() const { return num_shortcuts_; }
  /// Contraction rank of `node` (0 = contracted first).
  uint32_t Rank(NodeId node) const {
    return rank_[static_cast<size_t>(node)];
  }
  /// The full rank table (entry i = Rank(i)); the serialization surface
  /// FromRaw() restores from.
  std::span<const uint32_t> ranks() const { return rank_; }
  /// The raw search-graph arcs (originals then shortcuts, in build order);
  /// the serialization surface FromRaw() restores from.
  std::span<const Arc> arcs() const { return arcs_; }

  /// Restores a hierarchy from raw rank/arc arrays (the binary model
  /// container path) and validates it against `network`: node/edge
  /// counts, rank permutation, arcs matched against the network's edges,
  /// shortcut chains and counts — so a corrupt or stale container section
  /// is rejected instead of routing wrong.
  ///
  /// \param rank Contraction rank per node (NumNodes() entries).
  /// \param arcs The search-graph arcs, originals and shortcuts.
  /// \param declared_num_edges Network edge count recorded at save time.
  /// \param declared_shortcuts Shortcut count recorded at save time.
  /// \param network The network the hierarchy must describe; must outlive
  ///   the result.
  /// \param context Label used in error messages (e.g. the container
  ///   path).
  /// \return The hierarchy, or FailedPrecondition naming what is corrupt.
  static Result<ContractionHierarchy> FromRaw(
      std::span<const uint32_t> rank, std::span<const Arc> arcs,
      size_t declared_num_edges, size_t declared_shortcuts,
      const RoadNetwork& network, const std::string& context);

 private:
  /// One adjacency entry of the upward search graphs.
  struct UpArc {
    NodeId to = -1;     ///< The higher-ranked endpoint.
    double weight = 0;
    int32_t arc = -1;   ///< Index into arcs_ (for unpacking).
  };

  /// Builds up_/rev_up_ from arcs_ + rank_ (called by Build and FromRaw).
  void BuildSearchGraphs();

  /// Bidirectional upward search; on success fills *meet with the apex
  /// node and *dist with the distance, leaving the per-thread workspace
  /// populated for parent extraction.
  Status Search(NodeId src, NodeId dst, const RequestContext* ctx,
                NodeId* meet, double* dist) const;

  /// Appends the original edges of arc `arc` (left-to-right) to *nodes /
  /// *edges, expanding shortcuts depth-first.
  void Unpack(int32_t arc, std::vector<NodeId>* nodes,
              std::vector<EdgeId>* edges) const;

  std::vector<uint32_t> rank_;
  std::vector<Arc> arcs_;
  size_t num_edges_ = 0;     ///< NumEdges() of the source network.
  size_t num_shortcuts_ = 0;
  std::vector<std::vector<UpArc>> up_;      ///< Forward: u -> higher rank.
  std::vector<std::vector<UpArc>> rev_up_;  ///< Backward: t -> higher-rank u
                                            ///< with an arc u->t.
};

}  // namespace stmaker

#endif  // STMAKER_ROADNET_CONTRACTION_HIERARCHY_H_
