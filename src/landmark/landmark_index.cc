#include "landmark/landmark_index.h"

#include <map>
#include <set>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/strings.h"

namespace stmaker {

namespace {

// Names a junction after the (up to two) distinct road names crossing there.
std::string JunctionName(const RoadNetwork& net, NodeId node) {
  std::set<std::string> names;
  for (const Adjacency& adj : net.OutEdges(node)) {
    names.insert(net.edge(adj.edge).name);
    if (names.size() == 2) break;
  }
  // One-way streets may leave a node with no out-edges; look at all edges.
  if (names.size() < 2) {
    for (const RoadEdge& e : net.edges()) {
      if (e.from == node || e.to == node) names.insert(e.name);
      if (names.size() == 2) break;
    }
  }
  if (names.empty()) return StrFormat("Junction %lld", (long long)node);
  auto it = names.begin();
  if (names.size() == 1) return *it + " corner";
  std::string first = *it++;
  return first + " / " + *it;
}

}  // namespace

LandmarkIndex LandmarkIndex::Build(const RoadNetwork& network,
                                   const std::vector<RawPoi>& pois,
                                   const LandmarkIndexOptions& options) {
  LandmarkIndex out;
  out.node_to_landmark_.assign(network.NumNodes(), -1);

  // --- POI cluster landmarks. -----------------------------------------------
  std::vector<Vec2> positions;
  positions.reserve(pois.size());
  for (const RawPoi& p : pois) positions.push_back(p.pos);
  DbscanResult clusters = Dbscan(positions, options.dbscan);
  std::vector<Vec2> centroids = ClusterCentroids(positions, clusters);

  // Majority name per cluster.
  std::vector<std::map<std::string, int>> name_votes(clusters.num_clusters);
  for (size_t i = 0; i < pois.size(); ++i) {
    int c = clusters.labels[i];
    if (c == kDbscanNoise) continue;
    name_votes[c][pois[i].name]++;
  }

  for (int c = 0; c < clusters.num_clusters; ++c) {
    std::string best_name;
    int best_votes = -1;
    for (const auto& [name, votes] : name_votes[c]) {
      if (votes > best_votes) {
        best_votes = votes;
        best_name = name;
      }
    }
    Landmark lm;
    lm.id = static_cast<LandmarkId>(out.landmarks_.size());
    lm.pos = centroids[c];
    lm.name = best_name;
    lm.kind = LandmarkKind::kPoi;
    out.landmarks_.push_back(std::move(lm));
    out.network_node_.push_back(-1);
  }

  // --- Turning-point landmarks. ---------------------------------------------
  for (const RoadNode& node : network.nodes()) {
    if (!node.is_turning_point) continue;
    Landmark lm;
    lm.id = static_cast<LandmarkId>(out.landmarks_.size());
    lm.pos = node.pos;
    lm.name = JunctionName(network, node.id);
    lm.kind = LandmarkKind::kTurningPoint;
    out.node_to_landmark_[node.id] = lm.id;
    out.landmarks_.push_back(std::move(lm));
    out.network_node_.push_back(node.id);
  }

  // --- Spatial index. ---------------------------------------------------------
  out.index_cell_m_ = options.index_cell_m;
  out.BuildSpatialIndex();
  return out;
}

Result<LandmarkIndex> LandmarkIndex::FromParts(
    std::vector<Landmark> landmarks, std::vector<NodeId> network_node,
    size_t num_network_nodes, double index_cell_m) {
  auto fail = [](const std::string& what) {
    return Status::InvalidArgument("container landmarks: " + what);
  };
  if (network_node.size() != landmarks.size()) {
    return fail("network-node array size mismatch");
  }
  if (!(index_cell_m > 0)) return fail("non-positive index cell size");
  LandmarkIndex out;
  out.node_to_landmark_.assign(num_network_nodes, -1);
  for (size_t i = 0; i < landmarks.size(); ++i) {
    const Landmark& lm = landmarks[i];
    const NodeId node = network_node[i];
    if (lm.id != static_cast<LandmarkId>(i)) {
      return fail("landmark ids must be dense");
    }
    if (lm.kind == LandmarkKind::kTurningPoint) {
      if (node < 0 || static_cast<size_t>(node) >= num_network_nodes) {
        return fail("turning-point landmark node out of range");
      }
      if (out.node_to_landmark_[node] != -1) {
        return fail("two landmarks claim one network node");
      }
      out.node_to_landmark_[node] = lm.id;
    } else if (node != -1) {
      return fail("POI landmark carries a network node");
    }
  }
  out.landmarks_ = std::move(landmarks);
  out.network_node_ = std::move(network_node);
  out.index_cell_m_ = index_cell_m;
  out.BuildSpatialIndex();
  return out;
}

void LandmarkIndex::BuildSpatialIndex() {
  std::vector<GridIndex::Item> items;
  items.reserve(landmarks_.size());
  for (const Landmark& lm : landmarks_) items.push_back({lm.id, lm.pos});
  index_ = std::make_unique<GridIndex>(index_cell_m_, std::move(items));
}

const Landmark& LandmarkIndex::landmark(LandmarkId id) const {
  STMAKER_CHECK(id >= 0 && static_cast<size_t>(id) < landmarks_.size());
  return landmarks_[id];
}

void LandmarkIndex::AppendWithinBox(const BoundingBox& box,
                                    std::vector<LandmarkId>* out) const {
  index_->AppendWithinBox(box, out);
}

LandmarkId LandmarkIndex::Nearest(const Vec2& p, double max_radius) const {
  return index_->Nearest(p, max_radius);
}

void LandmarkIndex::SetSignificance(LandmarkId id, double significance) {
  STMAKER_CHECK(id >= 0 && static_cast<size_t>(id) < landmarks_.size());
  landmarks_[id].significance = significance;
}

NodeId LandmarkIndex::network_node(LandmarkId id) const {
  STMAKER_CHECK(id >= 0 && static_cast<size_t>(id) < network_node_.size());
  return network_node_[id];
}

LandmarkId LandmarkIndex::LandmarkOfNode(NodeId node) const {
  if (node < 0 || static_cast<size_t>(node) >= node_to_landmark_.size()) {
    return -1;
  }
  return node_to_landmark_[node];
}

}  // namespace stmaker
