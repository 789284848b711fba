#ifndef STMAKER_LANDMARK_LANDMARK_INDEX_H_
#define STMAKER_LANDMARK_LANDMARK_INDEX_H_

/// \file
/// The landmark dataset with spatial box and nearest queries (Sec. VII-A).

#include <memory>
#include <vector>

#include "common/status.h"
#include "geo/grid_index.h"
#include "landmark/dbscan.h"
#include "landmark/landmark.h"
#include "landmark/poi_generator.h"
#include "roadnet/road_network.h"

namespace stmaker {

/// Options for assembling the landmark dataset.
struct LandmarkIndexOptions {
  DbscanOptions dbscan;          ///< POI clustering parameters.
  double index_cell_m = 250.0;   ///< Spatial index pitch.
};

/// \brief The landmark dataset (Sec. VII-A): POI cluster centroids plus road
/// network turning points, spatially indexed.
///
/// Mirrors the paper's construction: raw POIs are collapsed with DBSCAN and
/// each cluster centroid becomes one named POI landmark; every turning point
/// of the road network becomes a junction landmark named after the roads
/// that cross there.
class LandmarkIndex {
 public:
  /// Builds the dataset from a network and a raw POI set.
  static LandmarkIndex Build(const RoadNetwork& network,
                             const std::vector<RawPoi>& pois,
                             const LandmarkIndexOptions& options =
                                 LandmarkIndexOptions());

  /// \brief Restores a dataset from already-built landmark records (the
  /// model-container load path): no DBSCAN, no junction naming — the
  /// stored landmarks (including significance) are adopted as-is and the
  /// derived lookup structures (node→landmark map, grid index) are
  /// rebuilt.
  ///
  /// \param landmarks The landmark table, ids dense (landmark i has id i).
  /// \param network_node Parallel array: the network node of each
  /// turning-point landmark, -1 for POI landmarks.
  /// \param num_network_nodes Node-id domain, for the node→landmark map.
  /// \param index_cell_m Grid-index pitch (LandmarkIndexOptions::
  /// index_cell_m of the original build).
  /// \return The restored dataset, or kInvalidArgument naming the
  /// inconsistency.
  static Result<LandmarkIndex> FromParts(std::vector<Landmark> landmarks,
                                         std::vector<NodeId> network_node,
                                         size_t num_network_nodes,
                                         double index_cell_m);

  LandmarkIndex(LandmarkIndex&&) = default;
  LandmarkIndex& operator=(LandmarkIndex&&) = default;
  LandmarkIndex(const LandmarkIndex&) = delete;
  LandmarkIndex& operator=(const LandmarkIndex&) = delete;

  size_t size() const { return landmarks_.size(); }
  const std::vector<Landmark>& landmarks() const { return landmarks_; }
  const Landmark& landmark(LandmarkId id) const;

  /// Appends the landmarks inside `box` (edges inclusive) to `*out`, in
  /// GridIndex::AppendWithinBox order; lets scan loops reuse one buffer.
  void AppendWithinBox(const BoundingBox& box,
                       std::vector<LandmarkId>* out) const;

  /// Nearest landmark id, or -1 (respecting `max_radius` if >= 0).
  LandmarkId Nearest(const Vec2& p, double max_radius = -1) const;

  /// Installs the significance score (l.s) computed by
  /// VisitCorpus::Significance.
  void SetSignificance(LandmarkId id, double significance);

  /// For a turning-point landmark, the road-network node it sits on; -1 for
  /// POI landmarks. Used by the trajectory generator to tie routes to
  /// landmarks.
  NodeId network_node(LandmarkId id) const;

  /// Grid-index pitch this dataset was built with; persisted by the model
  /// container so FromParts can rebuild the identical index.
  double index_cell_m() const { return index_cell_m_; }

 private:
  LandmarkIndex() = default;

  /// (Re)builds the grid over landmarks_ at index_cell_m_.
  void BuildSpatialIndex();

  std::vector<Landmark> landmarks_;
  std::vector<NodeId> network_node_;   // parallel to landmarks_.
  std::unique_ptr<GridIndex> index_;
  double index_cell_m_ = 250.0;
};

}  // namespace stmaker

#endif  // STMAKER_LANDMARK_LANDMARK_INDEX_H_
