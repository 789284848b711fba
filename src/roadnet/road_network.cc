#include "roadnet/road_network.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "geo/grid_index.h"
#include "geo/polyline.h"

namespace stmaker {

namespace {

/// Per-thread visited stamps for deduplicating spatial-index probes (an
/// edge is listed in every cell it passes through, so one probe can meet
/// the same id in several cells). A monotonically increasing epoch makes
/// clearing free; thread_local makes concurrent queries race-free without
/// locks.
struct DedupStamps {
  std::vector<uint64_t> stamp;
  uint64_t epoch = 0;

  /// Starts a new query over ids in [0, size). Returns the query epoch.
  uint64_t Begin(size_t size) {
    if (stamp.size() < size) stamp.resize(size, 0);
    return ++epoch;
  }
  /// True the first time `id` is seen this epoch.
  bool FirstVisit(int64_t id, uint64_t e) {
    if (stamp[static_cast<size_t>(id)] == e) return false;
    stamp[static_cast<size_t>(id)] = e;
    return true;
  }
};

DedupStamps& Stamps() {
  thread_local DedupStamps stamps;
  return stamps;
}

/// Grid coordinate floor(v / cell) of the segment-cell index, saturated to
/// the int32 range so no value (huge, infinite or NaN) reaches an
/// undefined float-to-int cast. Saturation is monotone, so an interval of
/// values still maps onto an interval of cells.
int32_t CellCoord(double v) {
  constexpr double kLo = std::numeric_limits<int32_t>::min();
  constexpr double kHi = std::numeric_limits<int32_t>::max();
  const double c = std::floor(v / RoadNetwork::kSpatialCellM);
  if (!(c > kLo)) return std::numeric_limits<int32_t>::min();  // NaN too
  if (c >= kHi) return std::numeric_limits<int32_t>::max();
  return static_cast<int32_t>(c);
}

/// Packs (row, column) into one key whose unsigned order is (row, column)
/// order, so the cells of one row form a sorted run.
uint64_t CellKey(int64_t row, int64_t col) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(row) ^ 0x80000000u)
          << 32) |
         (static_cast<uint32_t>(col) ^ 0x80000000u);
}

/// Calls fn(row, col) once for every cell the segment a-b passes through:
/// per column of its (padded) x-extent, the rows spanned by the piece of
/// the segment inside that column (padded). The work is proportional to
/// length / cell size, never to the area of the bounding box.
template <typename Fn>
void ForEachSegmentCell(Vec2 a, Vec2 b, Fn&& fn) {
  if (b.x < a.x) std::swap(a, b);
  const double pad = CellRoundingPad(std::max(
      {std::fabs(a.x), std::fabs(a.y), std::fabs(b.x), std::fabs(b.y)}));
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  const int64_t col_lo = CellCoord(a.x - pad);
  const int64_t col_hi = CellCoord(b.x + pad);
  for (int64_t col = col_lo; col <= col_hi; ++col) {
    // Parameter range of the segment inside [col, col + 1) widened by the
    // pad; a vertical segment stays whole in its column.
    double t0 = 0.0;
    double t1 = 1.0;
    if (dx > 0) {
      const double x0 = static_cast<double>(col) * RoadNetwork::kSpatialCellM;
      const double x1 = x0 + RoadNetwork::kSpatialCellM;
      t0 = std::clamp((x0 - pad - a.x) / dx, 0.0, 1.0);
      t1 = std::clamp((x1 + pad - a.x) / dx, 0.0, 1.0);
    }
    const double y0 = a.y + dy * t0;
    const double y1 = a.y + dy * t1;
    const int64_t row_lo = CellCoord(std::min(y0, y1) - pad);
    const int64_t row_hi = CellCoord(std::max(y0, y1) + pad);
    for (int64_t row = row_lo; row <= row_hi; ++row) fn(row, col);
  }
}

}  // namespace

RoadNetwork::RoadNetwork(RoadNetwork&& other) noexcept {
  *this = std::move(other);
}

RoadNetwork& RoadNetwork::operator=(RoadNetwork&& other) noexcept {
  if (this == &other) return *this;
  nodes_ = std::move(other.nodes_);
  edges_ = std::move(other.edges_);
  undirected_degree_ = std::move(other.undirected_degree_);
  edge_geom_ = std::move(other.edge_geom_);
  edge_ends_ = std::move(other.edge_ends_);
  csr_offsets_ = std::move(other.csr_offsets_);
  csr_entries_ = std::move(other.csr_entries_);
  // The views point either at the vectors' heap buffers (which the moves
  // above preserve) or at an external mapping; both stay valid.
  edge_geom_view_ = other.edge_geom_view_;
  edge_ends_view_ = other.edge_ends_view_;
  csr_offsets_view_ = other.csr_offsets_view_;
  csr_entries_view_ = other.csr_entries_view_;
  adopted_ = other.adopted_;
  pending_ = std::move(other.pending_);
  csr_dirty_.store(other.csr_dirty_.load(std::memory_order_acquire),
                   std::memory_order_release);
  csr_mu_ = std::move(other.csr_mu_);
  cell_keys_ = std::move(other.cell_keys_);
  cell_starts_ = std::move(other.cell_starts_);
  cell_edges_ = std::move(other.cell_edges_);
  cell_row_lo_ = other.cell_row_lo_;
  cell_row_hi_ = other.cell_row_hi_;
  return *this;
}

NodeId RoadNetwork::AddNode(const Vec2& pos) {
  STMAKER_CHECK(!adopted_);
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back({id, pos, false});
  undirected_degree_.push_back(0);
  csr_dirty_.store(true, std::memory_order_release);
  return id;
}

Result<EdgeId> RoadNetwork::AddEdge(NodeId from, NodeId to, RoadGrade grade,
                                    double width_m,
                                    TrafficDirection direction,
                                    std::string name) {
  STMAKER_CHECK(!adopted_);
  if (from < 0 || static_cast<size_t>(from) >= nodes_.size() || to < 0 ||
      static_cast<size_t>(to) >= nodes_.size()) {
    return Status::InvalidArgument("AddEdge: node id out of range");
  }
  if (from == to) {
    return Status::InvalidArgument("AddEdge: self-loop not allowed");
  }
  if (width_m <= 0) {
    return Status::InvalidArgument("AddEdge: non-positive width");
  }
  EdgeId id = static_cast<EdgeId>(edges_.size());
  RoadEdge e;
  e.id = id;
  e.from = from;
  e.to = to;
  e.grade = grade;
  e.width_m = width_m;
  e.direction = direction;
  e.name = std::move(name);
  e.length_m = Distance(nodes_[from].pos, nodes_[to].pos);
  edges_.push_back(std::move(e));
  edge_geom_.push_back({nodes_[from].pos, nodes_[to].pos});
  edge_ends_.push_back(
      {static_cast<int32_t>(from), static_cast<int32_t>(to)});
  edge_geom_view_ = edge_geom_;
  edge_ends_view_ = edge_ends_;

  pending_.push_back({from, Adjacency{id, to, /*forward=*/true}});
  if (direction == TrafficDirection::kTwoWay) {
    pending_.push_back({to, Adjacency{id, from, /*forward=*/false}});
  }
  csr_dirty_.store(true, std::memory_order_release);
  undirected_degree_[from]++;
  undirected_degree_[to]++;
  return id;
}

void RoadNetwork::FinalizeAdjacency() const {
  STMAKER_CHECK(!adopted_);  // an adopted CSR is final by construction
  std::lock_guard<std::mutex> lock(*csr_mu_);
  if (!csr_dirty_.load(std::memory_order_relaxed)) return;  // raced; done

  // Merge the already-packed entries with the pending ones via a stable
  // counting sort keyed by node, preserving AddEdge order per node (the
  // order the old per-node vectors produced, which tie-breaks in routing
  // and trip generation depend on).
  const size_t n = nodes_.size();
  std::vector<uint32_t> counts(n + 1, 0);
  std::vector<uint32_t> old_offsets = std::move(csr_offsets_);
  std::vector<Adjacency> old_entries = std::move(csr_entries_);
  const size_t old_nodes =
      old_offsets.empty() ? 0 : old_offsets.size() - 1;
  for (size_t u = 0; u < old_nodes; ++u) {
    counts[u] += old_offsets[u + 1] - old_offsets[u];
  }
  for (const auto& [u, adj] : pending_) {
    counts[static_cast<size_t>(u)]++;
  }
  std::vector<uint32_t> offsets(n + 1, 0);
  for (size_t u = 0; u < n; ++u) offsets[u + 1] = offsets[u] + counts[u];
  std::vector<Adjacency> entries(offsets[n]);
  std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t u = 0; u < old_nodes; ++u) {
    for (uint32_t i = old_offsets[u]; i < old_offsets[u + 1]; ++i) {
      entries[cursor[u]++] = old_entries[i];
    }
  }
  for (const auto& [u, adj] : pending_) {
    entries[cursor[static_cast<size_t>(u)]++] = adj;
  }
  csr_offsets_ = std::move(offsets);
  csr_entries_ = std::move(entries);
  csr_offsets_view_ = csr_offsets_;
  csr_entries_view_ = csr_entries_;
  pending_.clear();
  pending_.shrink_to_fit();
  csr_dirty_.store(false, std::memory_order_release);
}

RoadNetwork::AdjacencySpan RoadNetwork::OutEdges(NodeId id) const {
  STMAKER_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size());
  if (csr_dirty_.load(std::memory_order_acquire)) FinalizeAdjacency();
  const uint32_t begin = csr_offsets_view_[static_cast<size_t>(id)];
  const uint32_t end = csr_offsets_view_[static_cast<size_t>(id) + 1];
  return csr_entries_view_.subspan(begin, end - begin);
}

std::span<const uint32_t> RoadNetwork::csr_offsets() const {
  if (csr_dirty_.load(std::memory_order_acquire)) FinalizeAdjacency();
  return csr_offsets_view_;
}

std::span<const Adjacency> RoadNetwork::csr_entries() const {
  if (csr_dirty_.load(std::memory_order_acquire)) FinalizeAdjacency();
  return csr_entries_view_;
}

const RoadNode& RoadNetwork::node(NodeId id) const {
  STMAKER_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size());
  return nodes_[id];
}

RoadNode& RoadNetwork::mutable_node(NodeId id) {
  STMAKER_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size());
  return nodes_[id];
}

const RoadEdge& RoadNetwork::edge(EdgeId id) const {
  STMAKER_CHECK(id >= 0 && static_cast<size_t>(id) < edges_.size());
  return edges_[id];
}

RoadEdge& RoadNetwork::mutable_edge(EdgeId id) {
  STMAKER_CHECK(id >= 0 && static_cast<size_t>(id) < edges_.size());
  return edges_[id];
}

const RoadNetwork::EdgeGeometry& RoadNetwork::edge_geometry(EdgeId e) const {
  STMAKER_CHECK(e >= 0 && static_cast<size_t>(e) < edge_geom_view_.size());
  return edge_geom_view_[static_cast<size_t>(e)];
}

const RoadNetwork::EdgeEndpoints& RoadNetwork::edge_endpoints(
    EdgeId e) const {
  STMAKER_CHECK(e >= 0 && static_cast<size_t>(e) < edge_ends_view_.size());
  return edge_ends_view_[static_cast<size_t>(e)];
}

size_t RoadNetwork::Degree(NodeId id) const {
  STMAKER_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size());
  return undirected_degree_[id];
}

EdgeId RoadNetwork::FindEdgeBetween(NodeId a, NodeId b) const {
  for (const Adjacency& adj : OutEdges(a)) {
    if (adj.neighbor == b) return adj.edge;
  }
  return -1;
}

void RoadNetwork::AnnotateTurningPoints() {
  for (RoadNode& n : nodes_) {
    n.is_turning_point = undirected_degree_[n.id] != 2;
  }
}

void RoadNetwork::BuildSpatialIndex() {
  // (cell, edge) for every cell each segment passes through. Sorting the
  // pairs groups them by cell, in row-major cell order, and leaves each
  // cell's edges ascending by id.
  std::vector<std::pair<uint64_t, uint32_t>> listed;
  listed.reserve(edge_geom_view_.size() * 4);
  for (size_t e = 0; e < edge_geom_view_.size(); ++e) {
    const EdgeGeometry& g = edge_geom_view_[e];
    // The world readers reject such input; past the bound a segment could
    // span 2^32 columns.
    STMAKER_CHECK(IsBoundedCoord(g.a) && IsBoundedCoord(g.b));
    ForEachSegmentCell(g.a, g.b, [&](int64_t row, int64_t col) {
      listed.push_back({CellKey(row, col), static_cast<uint32_t>(e)});
    });
  }
  std::sort(listed.begin(), listed.end());
  cell_keys_.clear();
  cell_starts_.clear();
  cell_edges_.clear();
  cell_edges_.reserve(listed.size());
  for (const auto& [key, edge] : listed) {
    if (cell_keys_.empty() || cell_keys_.back() != key) {
      cell_keys_.push_back(key);
      cell_starts_.push_back(static_cast<uint32_t>(cell_edges_.size()));
    }
    cell_edges_.push_back(edge);
  }
  cell_starts_.push_back(static_cast<uint32_t>(cell_edges_.size()));
  auto row_of = [](uint64_t key) {
    return static_cast<int32_t>(static_cast<uint32_t>(key >> 32) ^
                                0x80000000u);
  };
  cell_row_lo_ = cell_keys_.empty() ? 0 : row_of(cell_keys_.front());
  cell_row_hi_ = cell_keys_.empty() ? -1 : row_of(cell_keys_.back());
  // Queries usually follow immediately; pack the adjacency block now so
  // the first routed request doesn't pay the finalize.
  if (csr_dirty_.load(std::memory_order_acquire)) FinalizeAdjacency();
}

double RoadNetwork::DistanceToEdge(const Vec2& p, EdgeId e) const {
  STMAKER_CHECK(e >= 0 && static_cast<size_t>(e) < edge_geom_view_.size());
  const EdgeGeometry& g = edge_geom_view_[static_cast<size_t>(e)];
  return PointSegmentDistance(p, g.a, g.b);
}

void RoadNetwork::CollectEdgesWithin(
    const Vec2& p, double radius,
    std::vector<std::pair<double, EdgeId>>* out) const {
  if (!(radius >= 0)) return;
  // Exact by construction: the closest point of any edge within `radius`
  // of p lies inside [p - radius, p + radius] on both axes, and lies in a
  // cell that lists the edge; the window below covers that square. Both
  // the window and the per-edge listing are padded by CellRoundingPad,
  // which dwarfs the rounding in PointSegmentDistance and in the cell
  // arithmetic, so the distance filter never accepts an edge from a cell
  // the window missed.
  const double reach =
      radius +
      CellRoundingPad(std::max({std::fabs(p.x), std::fabs(p.y), radius}));
  const int64_t col_lo = CellCoord(p.x - reach);
  const int64_t col_hi = CellCoord(p.x + reach);
  const int64_t row_lo = std::max<int64_t>(CellCoord(p.y - reach),
                                           cell_row_lo_);
  const int64_t row_hi = std::min<int64_t>(CellCoord(p.y + reach),
                                           cell_row_hi_);
  DedupStamps& stamps = Stamps();
  const uint64_t epoch = stamps.Begin(edge_geom_view_.size());
  for (int64_t row = row_lo; row <= row_hi; ++row) {
    // The window's cells in one row are one contiguous run of keys, and
    // their edge lists one contiguous run of cell_edges_.
    const uint64_t hi_key = CellKey(row, col_hi);
    auto first = std::lower_bound(cell_keys_.begin(), cell_keys_.end(),
                                  CellKey(row, col_lo));
    auto last = first;
    while (last != cell_keys_.end() && *last <= hi_key) ++last;
    const uint32_t begin = cell_starts_[first - cell_keys_.begin()];
    const uint32_t end = cell_starts_[last - cell_keys_.begin()];
    for (uint32_t i = begin; i < end; ++i) {
      const uint32_t id = cell_edges_[i];
      if (!stamps.FirstVisit(id, epoch)) continue;
      const EdgeGeometry& g = edge_geom_view_[id];
      const double d = PointSegmentDistance(p, g.a, g.b);
      if (d <= radius) out->push_back({d, static_cast<EdgeId>(id)});
    }
  }
}

EdgeId RoadNetwork::NearestEdge(const Vec2& p, double max_radius) const {
  // The head of the (distance, id) order: lowest id among equidistant.
  std::vector<std::pair<double, EdgeId>> best;
  ClosestEdges(p, max_radius, 1, &best);
  return best.empty() ? -1 : best.front().second;
}

std::vector<EdgeId> RoadNetwork::EdgesNear(const Vec2& p,
                                           double radius) const {
  std::vector<EdgeId> out;
  if (cell_starts_.empty()) return out;
  std::vector<std::pair<double, EdgeId>> scored;
  CollectEdgesWithin(p, radius, &scored);
  out.reserve(scored.size());
  for (const auto& [d, id] : scored) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

Result<RoadNetwork> RoadNetwork::AdoptMapped(
    std::vector<RoadNode> nodes, std::vector<RoadEdge> edges,
    std::span<const uint32_t> csr_offsets,
    std::span<const Adjacency> csr_entries,
    std::span<const EdgeGeometry> edge_geom,
    std::span<const EdgeEndpoints> edge_ends) {
  const size_t n = nodes.size();
  const size_t m = edges.size();
  auto fail = [](const std::string& what) {
    return Status::InvalidArgument("container road network: " + what);
  };
  for (size_t i = 0; i < n; ++i) {
    if (nodes[i].id != static_cast<NodeId>(i)) {
      return fail("node ids must be dense");
    }
  }
  if (edge_geom.size() != m || edge_ends.size() != m) {
    return fail("edge geometry/endpoint array size mismatch");
  }
  size_t expected_entries = 0;
  for (size_t i = 0; i < m; ++i) {
    RoadEdge& e = edges[i];
    if (e.id != static_cast<EdgeId>(i)) return fail("edge ids must be dense");
    if (e.from < 0 || static_cast<size_t>(e.from) >= n || e.to < 0 ||
        static_cast<size_t>(e.to) >= n || e.from == e.to) {
      return fail("edge endpoints out of range");
    }
    if (e.width_m <= 0) return fail("non-positive edge width");
    // Derived exactly as AddEdge derives it, so both load paths agree
    // bit-for-bit.
    e.length_m = Distance(nodes[e.from].pos, nodes[e.to].pos);
    const EdgeGeometry& g = edge_geom[i];
    if (g.a.x != nodes[e.from].pos.x || g.a.y != nodes[e.from].pos.y ||
        g.b.x != nodes[e.to].pos.x || g.b.y != nodes[e.to].pos.y) {
      return fail("edge geometry disagrees with node positions");
    }
    if (edge_ends[i].from != static_cast<int32_t>(e.from) ||
        edge_ends[i].to != static_cast<int32_t>(e.to)) {
      return fail("edge endpoint array disagrees with edge list");
    }
    expected_entries +=
        e.direction == TrafficDirection::kTwoWay ? 2 : 1;
  }
  if (csr_offsets.size() != n + 1 || (n > 0 && csr_offsets[0] != 0) ||
      (csr_offsets.empty() ? csr_entries.size() != 0
                           : csr_offsets[n] != csr_entries.size()) ||
      csr_entries.size() != expected_entries) {
    return fail("CSR offsets disagree with the edge list");
  }
  // Every directed traversal option must appear exactly once, attached to
  // the right node: a corrupt adjacency block is rejected, never adopted.
  std::vector<uint8_t> fwd_seen(m, 0);
  std::vector<uint8_t> bwd_seen(m, 0);
  for (size_t u = 0; u < n; ++u) {
    if (csr_offsets[u] > csr_offsets[u + 1]) {
      return fail("CSR offsets are not monotonic");
    }
    for (uint32_t i = csr_offsets[u]; i < csr_offsets[u + 1]; ++i) {
      const Adjacency& adj = csr_entries[i];
      if (adj.edge < 0 || static_cast<size_t>(adj.edge) >= m ||
          adj.neighbor < 0 || static_cast<size_t>(adj.neighbor) >= n) {
        return fail("CSR entry out of range");
      }
      const RoadEdge& e = edges[static_cast<size_t>(adj.edge)];
      if (adj.forward) {
        if (e.from != static_cast<NodeId>(u) || e.to != adj.neighbor ||
            fwd_seen[static_cast<size_t>(adj.edge)]++ != 0) {
          return fail("CSR forward entry disagrees with its edge");
        }
      } else {
        if (e.direction != TrafficDirection::kTwoWay ||
            e.to != static_cast<NodeId>(u) || e.from != adj.neighbor ||
            bwd_seen[static_cast<size_t>(adj.edge)]++ != 0) {
          return fail("CSR backward entry disagrees with its edge");
        }
      }
    }
  }

  RoadNetwork net;
  net.nodes_ = std::move(nodes);
  net.edges_ = std::move(edges);
  net.undirected_degree_.assign(n, 0);
  for (const RoadEdge& e : net.edges_) {
    net.undirected_degree_[e.from]++;
    net.undirected_degree_[e.to]++;
  }
  net.edge_geom_view_ = edge_geom;
  net.edge_ends_view_ = edge_ends;
  net.csr_offsets_view_ = csr_offsets;
  net.csr_entries_view_ = csr_entries;
  net.adopted_ = true;
  net.csr_dirty_.store(false, std::memory_order_release);
  net.AnnotateTurningPoints();
  net.BuildSpatialIndex();
  return net;
}

void RoadNetwork::ClosestEdges(
    const Vec2& p, double radius, size_t max_count,
    std::vector<std::pair<double, EdgeId>>* out) const {
  if (cell_starts_.empty() || max_count == 0) return;
  const size_t base = out->size();
  CollectEdgesWithin(p, radius, out);
  // (distance, id) is a total order, so the head is the same whatever
  // order the cells yielded the edges in.
  std::sort(out->begin() + base, out->end());
  if (out->size() - base > max_count) out->resize(base + max_count);
}

}  // namespace stmaker
