// Binary model-container persistence for STMaker
// (SaveModelContainer/LoadModelContainer) plus the world loaders
// (LoadNetworkFromContainer/LoadLandmarksFromContainer/
// LoadTrajectoriesFromContainer). The container replaces the loose CSV
// model files — and, for serving, trajectories.csv — with one mmap-served
// file; the CSV path (stmaker_model_io.cc) remains the import/export form
// and this file mirrors its policy decisions exactly:
//
//   - required sections (meta, feature names, transitions, feature map,
//     stats, visits, the serving corpus, and the whole world) fail the
//     load, leaving the maker untrained — a torn snapshot is never
//     committed;
//   - the routing hierarchy and the trajectory index are advisory: damage
//     costs the accelerator (warning + counter + Dijkstra/scan fallback),
//     never the model.
//
// Determinism: sections are written in SectionType order, records in the
// accumulators' deterministic iteration order (the same order the CSV
// files use), and every struct field — including explicit padding — is
// assigned, so identical model state produces a byte-identical container.
// The calibration-stats section is recomputed on load from the replayed
// feature map in the same order it was computed at save time and compared
// bitwise, catching writer/reader disagreements that per-section CRCs
// cannot.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/strings.h"
#include "core/stmaker.h"
#include "io/container.h"

namespace stmaker {

namespace {

// The container records double as in-memory representations for the
// zero-copy arrays; freeze the equivalences the reinterpret_casts rely on.
static_assert(sizeof(Adjacency) == sizeof(CsrEntryRecord));
static_assert(offsetof(Adjacency, edge) == offsetof(CsrEntryRecord, edge));
static_assert(offsetof(Adjacency, neighbor) ==
              offsetof(CsrEntryRecord, neighbor));
static_assert(offsetof(Adjacency, forward) ==
              offsetof(CsrEntryRecord, forward));
static_assert(sizeof(RoadNetwork::EdgeGeometry) == sizeof(EdgeGeomRecord));
static_assert(sizeof(RoadNetwork::EdgeEndpoints) == sizeof(EdgeEndsRecord));
static_assert(sizeof(ContractionHierarchy::Arc) == sizeof(ChArcRecord));
static_assert(offsetof(ContractionHierarchy::Arc, weight) ==
              offsetof(ChArcRecord, weight));
static_assert(offsetof(ContractionHierarchy::Arc, right) ==
              offsetof(ChArcRecord, right));

/// Record-layout version written into every section entry.
constexpr uint32_t kSectionVersion = 1;

template <typename T>
void AppendPod(std::string* out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
T ReadPodAt(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

/// Display name of a section type, for error messages.
const char* SectionName(SectionType type) {
  switch (type) {
    case SectionType::kMeta: return "meta";
    case SectionType::kFeatureNames: return "feature-names";
    case SectionType::kNodes: return "nodes";
    case SectionType::kEdges: return "edges";
    case SectionType::kEdgeNames: return "edge-names";
    case SectionType::kCsrOffsets: return "csr-offsets";
    case SectionType::kCsrEntries: return "csr-entries";
    case SectionType::kEdgeGeom: return "edge-geom";
    case SectionType::kEdgeEnds: return "edge-ends";
    case SectionType::kLandmarks: return "landmarks";
    case SectionType::kLandmarkNames: return "landmark-names";
    case SectionType::kTransitions: return "transitions";
    case SectionType::kFeatureEdges: return "feature-edges";
    case SectionType::kVisits: return "visits";
    case SectionType::kTripDescriptors: return "trip-descriptors";
    case SectionType::kTripCells: return "trip-cells";
    case SectionType::kTripLabels: return "trip-labels";
    case SectionType::kTripFingerprints: return "trip-fingerprints";
    case SectionType::kChRank: return "ch-rank";
    case SectionType::kChArcs: return "ch-arcs";
    case SectionType::kStats: return "stats";
    case SectionType::kCorpusTrips: return "corpus-trips";
    case SectionType::kCorpusSamples: return "corpus-samples";
  }
  return "unknown";
}

/// Looks up a section the load cannot proceed without: missing, damaged
/// (payload CRC), or layout-version-skewed sections are hard errors.
Result<const SectionEntry*> RequiredSection(const MappedContainer& c,
                                            SectionType type) {
  const SectionEntry* entry = c.Find(type);
  if (entry == nullptr) {
    return Status::InvalidArgument(c.path() + ": missing required section '" +
                                   SectionName(type) + "'");
  }
  if (entry->version != kSectionVersion) {
    return Status::FailedPrecondition(
        StrFormat("%s: section '%s' has record-layout version %u, this "
                  "reader understands %u",
                  c.path().c_str(), SectionName(type), entry->version,
                  kSectionVersion));
  }
  if (!c.VerifyCrc(*entry)) {
    return Status::FailedPrecondition(c.path() + ": section '" +
                                      SectionName(type) +
                                      "' CRC32 mismatch — corrupted container");
  }
  return entry;
}

/// Same checks for an advisory section (the caller downgrades the error).
Result<const SectionEntry*> AdvisorySection(const MappedContainer& c,
                                            SectionType type) {
  return RequiredSection(c, type);
}

Status CountMismatch(const MappedContainer& c, SectionType type,
                     uint64_t got, uint64_t want) {
  return Status::InvalidArgument(StrFormat(
      "%s: section '%s' has %llu records, meta declares %llu",
      c.path().c_str(), SectionName(type), static_cast<unsigned long long>(got),
      static_cast<unsigned long long>(want)));
}

/// A record position that is non-finite or beyond kMaxAbsCoordM: the
/// spatial indexes' cell arithmetic and build cost assume bounded input.
Status UnboundedPosition(const MappedContainer& c, SectionType type,
                         size_t record, const Vec2& pos) {
  return Status::InvalidArgument(StrFormat(
      "%s: section '%s' record %zu position (%g, %g) is not finite or "
      "exceeds %g m",
      c.path().c_str(), SectionName(type), record, pos.x, pos.y,
      kMaxAbsCoordM));
}

/// Reads the single kMeta record (shared by every loader).
Result<ContainerMetaRecord> ReadMeta(const MappedContainer& c) {
  STMAKER_ASSIGN_OR_RETURN(const SectionEntry* entry,
                           RequiredSection(c, SectionType::kMeta));
  STMAKER_ASSIGN_OR_RETURN(auto records,
                           c.Records<ContainerMetaRecord>(*entry));
  if (records.size() != 1) {
    return Status::InvalidArgument(c.path() +
                                   ": meta section must hold exactly one "
                                   "record");
  }
  return records[0];
}

/// Bounds-checks a (offset, len) slice into a name blob and materializes
/// the string.
Result<std::string> SliceName(const MappedContainer& c, std::string_view blob,
                              SectionType type, uint64_t offset,
                              uint64_t len) {
  if (len > blob.size() || offset > blob.size() - len) {
    return Status::InvalidArgument(c.path() + ": name slice out of '" +
                                   SectionName(type) + "' blob bounds");
  }
  return std::string(blob.substr(static_cast<size_t>(offset),
                                 static_cast<size_t>(len)));
}

}  // namespace

// ---------------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------------

Status STMaker::SaveModelContainer(
    const std::string& path, const std::vector<RawTrajectory>& corpus) const {
  if (analyzer_ == nullptr) {
    return Status::FailedPrecondition(
        "SaveModelContainer requires a trained model");
  }
  const size_t F = registry_.size();
  ContainerWriter writer;

  const std::vector<PopularRouteMiner::Transition> transitions =
      miner_.Transitions();
  const std::vector<HistoricalFeatureMap::EdgeRecord> feature_edges =
      feature_map_->Edges();
  uint64_t num_visits = 0;
  for (const VisitCorpus::Record& record : visit_corpus_.records()) {
    num_visits += record.visits.size();
  }

  {  // kMeta.
    ContainerMetaRecord meta{};
    meta.num_features = F;
    meta.num_trained = num_trained_;
    meta.num_nodes = network_->NumNodes();
    meta.num_edges = network_->NumEdges();
    meta.num_landmarks = landmarks_->size();
    meta.num_transitions = transitions.size();
    meta.num_feature_edges = feature_edges.size();
    meta.num_visits = num_visits;
    meta.num_trips =
        trip_index_ != nullptr ? trip_index_->descriptors().size() : 0;
    meta.ch_num_edges =
        road_hierarchy_ != nullptr ? network_->NumEdges() : 0;
    meta.ch_num_shortcuts =
        road_hierarchy_ != nullptr ? road_hierarchy_->NumShortcuts() : 0;
    meta.has_hierarchy = road_hierarchy_ != nullptr ? 1 : 0;
    meta.has_index = trip_index_ != nullptr ? 1 : 0;
    const TrajectoryIndexOptions& ix =
        trip_index_ != nullptr ? trip_index_->options() : options_.index;
    meta.index_cell_m = ix.cell_m;
    meta.index_bucket_s = ix.bucket_s;
    meta.landmark_cell_m = landmarks_->index_cell_m();
    std::string payload;
    AppendPod(&payload, meta);
    writer.AddSection(SectionType::kMeta, kSectionVersion,
                      sizeof(ContainerMetaRecord), std::move(payload));
  }
  {  // kFeatureNames: the same ";"-joined id list the CSV meta file pins.
    std::vector<std::string> feature_ids;
    for (const FeatureDef& def : registry_.defs()) {
      feature_ids.push_back(def.id);
    }
    writer.AddSection(SectionType::kFeatureNames, kSectionVersion, 1,
                      Join(feature_ids, ";"));
  }
  {  // kNodes.
    std::string payload;
    payload.reserve(network_->NumNodes() * sizeof(NodeRecord));
    for (const RoadNode& node : network_->nodes()) {
      NodeRecord rec{};
      rec.x = node.pos.x;
      rec.y = node.pos.y;
      AppendPod(&payload, rec);
    }
    writer.AddSection(SectionType::kNodes, kSectionVersion,
                      sizeof(NodeRecord), std::move(payload));
  }
  {  // kEdges + kEdgeNames.
    std::string payload;
    std::string names;
    payload.reserve(network_->NumEdges() * sizeof(EdgeRecord));
    for (const RoadEdge& e : network_->edges()) {
      EdgeRecord rec{};
      rec.from = e.from;
      rec.to = e.to;
      rec.grade = static_cast<uint32_t>(e.grade);
      rec.direction = static_cast<uint32_t>(e.direction);
      rec.width_m = e.width_m;
      rec.cost_bias = e.cost_bias;
      rec.name_offset = names.size();
      rec.name_len = e.name.size();
      names.append(e.name);
      AppendPod(&payload, rec);
    }
    writer.AddSection(SectionType::kEdges, kSectionVersion,
                      sizeof(EdgeRecord), std::move(payload));
    writer.AddSection(SectionType::kEdgeNames, kSectionVersion, 1,
                      std::move(names));
  }
  {  // kCsrOffsets (raw uint32 array — already fixed-width).
    std::span<const uint32_t> offsets = network_->csr_offsets();
    std::string payload(reinterpret_cast<const char*>(offsets.data()),
                        offsets.size() * sizeof(uint32_t));
    writer.AddSection(SectionType::kCsrOffsets, kSectionVersion,
                      sizeof(uint32_t), std::move(payload));
  }
  {  // kCsrEntries: Adjacency with its padding pinned to zero.
    std::string payload;
    std::span<const Adjacency> entries = network_->csr_entries();
    payload.reserve(entries.size() * sizeof(CsrEntryRecord));
    for (const Adjacency& a : entries) {
      CsrEntryRecord rec{};
      rec.edge = a.edge;
      rec.neighbor = a.neighbor;
      rec.forward = a.forward ? 1 : 0;
      AppendPod(&payload, rec);
    }
    writer.AddSection(SectionType::kCsrEntries, kSectionVersion,
                      sizeof(CsrEntryRecord), std::move(payload));
  }
  {  // kEdgeGeom.
    std::string payload;
    for (const RoadNetwork::EdgeGeometry& g : network_->edge_geometries()) {
      EdgeGeomRecord rec{};
      rec.ax = g.a.x;
      rec.ay = g.a.y;
      rec.bx = g.b.x;
      rec.by = g.b.y;
      AppendPod(&payload, rec);
    }
    writer.AddSection(SectionType::kEdgeGeom, kSectionVersion,
                      sizeof(EdgeGeomRecord), std::move(payload));
  }
  {  // kEdgeEnds.
    std::string payload;
    for (const RoadNetwork::EdgeEndpoints& e : network_->edge_endpoints_all()) {
      EdgeEndsRecord rec{};
      rec.from = e.from;
      rec.to = e.to;
      AppendPod(&payload, rec);
    }
    writer.AddSection(SectionType::kEdgeEnds, kSectionVersion,
                      sizeof(EdgeEndsRecord), std::move(payload));
  }
  {  // kLandmarks + kLandmarkNames (with significances — no separate file).
    std::string payload;
    std::string names;
    for (const Landmark& lm : landmarks_->landmarks()) {
      LandmarkRecord rec{};
      rec.x = lm.pos.x;
      rec.y = lm.pos.y;
      rec.significance = lm.significance;
      rec.network_node = landmarks_->network_node(lm.id);
      rec.name_offset = names.size();
      rec.name_len = lm.name.size();
      rec.kind = static_cast<uint32_t>(lm.kind);
      names.append(lm.name);
      AppendPod(&payload, rec);
    }
    writer.AddSection(SectionType::kLandmarks, kSectionVersion,
                      sizeof(LandmarkRecord), std::move(payload));
    writer.AddSection(SectionType::kLandmarkNames, kSectionVersion, 1,
                      std::move(names));
  }
  {  // kTransitions, in first-mined order.
    std::string payload;
    payload.reserve(transitions.size() * sizeof(TransitionRecord));
    for (const PopularRouteMiner::Transition& t : transitions) {
      TransitionRecord rec{};
      rec.from = t.from;
      rec.to = t.to;
      rec.count = t.count;
      AppendPod(&payload, rec);
    }
    writer.AddSection(SectionType::kTransitions, kSectionVersion,
                      sizeof(TransitionRecord), std::move(payload));
  }
  {  // kFeatureEdges: variable-width (from, to, count, sums[F]) rows in
     // first-annotated order.
    const uint32_t width = static_cast<uint32_t>(24 + 8 * F);
    std::string payload;
    payload.reserve(feature_edges.size() * width);
    for (const HistoricalFeatureMap::EdgeRecord& e : feature_edges) {
      AppendPod(&payload, static_cast<int64_t>(e.from));
      AppendPod(&payload, static_cast<int64_t>(e.to));
      AppendPod(&payload, e.count);
      for (double s : e.sums) AppendPod(&payload, s);
    }
    writer.AddSection(SectionType::kFeatureEdges, kSectionVersion, width,
                      std::move(payload));
  }
  {  // kVisits, record order then first-visited pair order — the same
     // order the CSV file writes, so the replay composes identically.
    std::string payload;
    payload.reserve(num_visits * sizeof(VisitRecord));
    for (const VisitCorpus::Record& record : visit_corpus_.records()) {
      for (const auto& [landmark, count] : record.visits) {
        VisitRecord rec{};
        rec.key = record.key;
        rec.landmark = landmark;
        rec.count = count;
        AppendPod(&payload, rec);
      }
    }
    writer.AddSection(SectionType::kVisits, kSectionVersion,
                      sizeof(VisitRecord), std::move(payload));
  }
  if (trip_index_ != nullptr) {
    // kTripDescriptors + kTripCells + kTripLabels + kTripFingerprints.
    // Variable-length members are concatenated in trip order and addressed
    // by (begin, count) pairs; unscored trips hold an all-zero fingerprint
    // row so the matrix stays rectangular.
    std::string descs, cells, labels, fps;
    uint64_t cells_at = 0, labels_at = 0;
    for (const TripDescriptor& d : trip_index_->descriptors()) {
      TripDescRecord rec{};
      rec.trip = d.trip;
      rec.spatial = d.spatial ? 1 : 0;
      rec.scored = d.scored ? 1 : 0;
      rec.pad = 0;
      rec.min_x = d.bbox.min.x;
      rec.min_y = d.bbox.min.y;
      rec.max_x = d.bbox.max.x;
      rec.max_y = d.bbox.max.y;
      rec.t_begin = d.t_begin;
      rec.t_end = d.t_end;
      rec.cells_begin = cells_at;
      rec.cells_count = d.cell_buckets.size();
      rec.labels_begin = labels_at;
      rec.labels_count = d.labels.size();
      AppendPod(&descs, rec);
      for (const auto& [cell, bucket] : d.cell_buckets) {
        TripCellRecord cr{};
        cr.cell = cell;
        cr.bucket = bucket;
        AppendPod(&cells, cr);
      }
      cells_at += d.cell_buckets.size();
      for (LandmarkId label : d.labels) {
        AppendPod(&labels, static_cast<int64_t>(label));
      }
      labels_at += d.labels.size();
      for (size_t f = 0; f < F; ++f) {
        AppendPod(&fps, d.scored ? d.fingerprint[f] : 0.0);
      }
    }
    writer.AddSection(SectionType::kTripDescriptors, kSectionVersion,
                      sizeof(TripDescRecord), std::move(descs));
    writer.AddSection(SectionType::kTripCells, kSectionVersion,
                      sizeof(TripCellRecord), std::move(cells));
    writer.AddSection(SectionType::kTripLabels, kSectionVersion,
                      sizeof(int64_t), std::move(labels));
    writer.AddSection(SectionType::kTripFingerprints, kSectionVersion,
                      sizeof(double), std::move(fps));
  }
  if (road_hierarchy_ != nullptr) {
    {  // kChRank.
      std::span<const uint32_t> rank = road_hierarchy_->ranks();
      std::string payload(reinterpret_cast<const char*>(rank.data()),
                          rank.size() * sizeof(uint32_t));
      writer.AddSection(SectionType::kChRank, kSectionVersion,
                        sizeof(uint32_t), std::move(payload));
    }
    {  // kChArcs (Arc has no padding; copy field-by-field anyway so the
       // bytes stay pinned if that ever changes).
      std::string payload;
      std::span<const ContractionHierarchy::Arc> arcs =
          road_hierarchy_->arcs();
      payload.reserve(arcs.size() * sizeof(ChArcRecord));
      for (const ContractionHierarchy::Arc& a : arcs) {
        ChArcRecord rec{};
        rec.from = a.from;
        rec.to = a.to;
        rec.weight = a.weight;
        rec.edge = a.edge;
        rec.left = a.left;
        rec.right = a.right;
        AppendPod(&payload, rec);
      }
      writer.AddSection(SectionType::kChArcs, kSectionVersion,
                        sizeof(ChArcRecord), std::move(payload));
    }
  }
  {  // kStats: [count_total, sum[0..F-1]] accumulated over the feature
     // map's deterministic edge order. LoadModelContainer recomputes this
     // in the same order from the replayed records and compares bitwise.
    double count_total = 0;
    std::vector<double> sums_total(F, 0.0);
    for (const HistoricalFeatureMap::EdgeRecord& e : feature_edges) {
      count_total += e.count;
      for (size_t f = 0; f < F; ++f) sums_total[f] += e.sums[f];
    }
    std::string payload;
    AppendPod(&payload, count_total);
    for (double s : sums_total) AppendPod(&payload, s);
    writer.AddSection(SectionType::kStats, kSectionVersion, sizeof(double),
                      std::move(payload));
  }
  {  // kCorpusTrips + kCorpusSamples: the serving corpus, trips tiling the
     // samples section contiguously in corpus order.
    std::string trips;
    std::string samples;
    for (const RawTrajectory& raw : corpus) {
      CorpusTripRecord rec{};
      rec.samples_begin = samples.size() / sizeof(CorpusSampleRecord);
      rec.samples_count = raw.samples.size();
      rec.traveler = raw.traveler;
      AppendPod(&trips, rec);
      for (const RawSample& s : raw.samples) {
        CorpusSampleRecord sample{};
        sample.x = s.pos.x;
        sample.y = s.pos.y;
        sample.time = s.time;
        AppendPod(&samples, sample);
      }
    }
    writer.AddSection(SectionType::kCorpusTrips, kSectionVersion,
                      sizeof(CorpusTripRecord), std::move(trips));
    writer.AddSection(SectionType::kCorpusSamples, kSectionVersion,
                      sizeof(CorpusSampleRecord), std::move(samples));
  }

  return writer.Finish(path);
}

// ---------------------------------------------------------------------------
// World loaders
// ---------------------------------------------------------------------------

Result<RoadNetwork> LoadNetworkFromContainer(const MappedContainer& c) {
  STMAKER_ASSIGN_OR_RETURN(ContainerMetaRecord meta, ReadMeta(c));

  STMAKER_ASSIGN_OR_RETURN(const SectionEntry* nodes_entry,
                           RequiredSection(c, SectionType::kNodes));
  STMAKER_ASSIGN_OR_RETURN(auto node_records,
                           c.Records<NodeRecord>(*nodes_entry));
  if (node_records.size() != meta.num_nodes) {
    return CountMismatch(c, SectionType::kNodes, node_records.size(),
                         meta.num_nodes);
  }
  std::vector<RoadNode> nodes;
  nodes.reserve(node_records.size());
  for (size_t i = 0; i < node_records.size(); ++i) {
    RoadNode node;
    node.id = static_cast<NodeId>(i);
    node.pos = Vec2{node_records[i].x, node_records[i].y};
    if (!IsBoundedCoord(node.pos)) {
      return UnboundedPosition(c, SectionType::kNodes, i, node.pos);
    }
    nodes.push_back(std::move(node));
  }

  STMAKER_ASSIGN_OR_RETURN(const SectionEntry* edges_entry,
                           RequiredSection(c, SectionType::kEdges));
  STMAKER_ASSIGN_OR_RETURN(auto edge_records,
                           c.Records<EdgeRecord>(*edges_entry));
  if (edge_records.size() != meta.num_edges) {
    return CountMismatch(c, SectionType::kEdges, edge_records.size(),
                         meta.num_edges);
  }
  STMAKER_ASSIGN_OR_RETURN(const SectionEntry* edge_names_entry,
                           RequiredSection(c, SectionType::kEdgeNames));
  const std::string_view edge_names = c.Blob(*edge_names_entry);
  std::vector<RoadEdge> edges;
  edges.reserve(edge_records.size());
  for (size_t i = 0; i < edge_records.size(); ++i) {
    const EdgeRecord& rec = edge_records[i];
    if (!IsValidRoadGrade(static_cast<int>(rec.grade))) {
      return Status::InvalidArgument(
          StrFormat("%s: edge %zu has invalid road grade %u",
                    c.path().c_str(), i, rec.grade));
    }
    if (rec.direction != static_cast<uint32_t>(TrafficDirection::kTwoWay) &&
        rec.direction != static_cast<uint32_t>(TrafficDirection::kOneWay)) {
      return Status::InvalidArgument(
          StrFormat("%s: edge %zu has invalid traffic direction %u",
                    c.path().c_str(), i, rec.direction));
    }
    RoadEdge e;
    e.id = static_cast<EdgeId>(i);
    e.from = rec.from;
    e.to = rec.to;
    e.grade = static_cast<RoadGrade>(static_cast<int>(rec.grade));
    e.direction = static_cast<TrafficDirection>(static_cast<int>(rec.direction));
    e.width_m = rec.width_m;
    e.cost_bias = rec.cost_bias;
    STMAKER_ASSIGN_OR_RETURN(
        e.name, SliceName(c, edge_names, SectionType::kEdgeNames,
                          rec.name_offset, rec.name_len));
    edges.push_back(std::move(e));
  }

  // The four hot arrays stay in the mapping: validate their record shapes
  // here (CRC + the bit patterns the in-memory structs cannot represent),
  // then reinterpret. AdoptMapped cross-validates the graph semantics.
  STMAKER_ASSIGN_OR_RETURN(const SectionEntry* offsets_entry,
                           RequiredSection(c, SectionType::kCsrOffsets));
  STMAKER_ASSIGN_OR_RETURN(auto csr_offsets,
                           c.Records<uint32_t>(*offsets_entry));

  STMAKER_ASSIGN_OR_RETURN(const SectionEntry* entries_entry,
                           RequiredSection(c, SectionType::kCsrEntries));
  STMAKER_ASSIGN_OR_RETURN(auto entry_records,
                           c.Records<CsrEntryRecord>(*entries_entry));
  for (size_t i = 0; i < entry_records.size(); ++i) {
    if (entry_records[i].forward > 1) {
      return Status::InvalidArgument(
          StrFormat("%s: csr entry %zu has non-boolean forward flag",
                    c.path().c_str(), i));
    }
  }
  const std::span<const Adjacency> csr_entries(
      reinterpret_cast<const Adjacency*>(c.Blob(*entries_entry).data()),
      entry_records.size());

  STMAKER_ASSIGN_OR_RETURN(const SectionEntry* geom_entry,
                           RequiredSection(c, SectionType::kEdgeGeom));
  STMAKER_ASSIGN_OR_RETURN(auto geom_records,
                           c.Records<EdgeGeomRecord>(*geom_entry));
  const std::span<const RoadNetwork::EdgeGeometry> edge_geom(
      reinterpret_cast<const RoadNetwork::EdgeGeometry*>(
          c.Blob(*geom_entry).data()),
      geom_records.size());

  STMAKER_ASSIGN_OR_RETURN(const SectionEntry* ends_entry,
                           RequiredSection(c, SectionType::kEdgeEnds));
  STMAKER_ASSIGN_OR_RETURN(auto ends_records,
                           c.Records<EdgeEndsRecord>(*ends_entry));
  const std::span<const RoadNetwork::EdgeEndpoints> edge_ends(
      reinterpret_cast<const RoadNetwork::EdgeEndpoints*>(
          c.Blob(*ends_entry).data()),
      ends_records.size());

  return RoadNetwork::AdoptMapped(std::move(nodes), std::move(edges),
                                  csr_offsets, csr_entries, edge_geom,
                                  edge_ends);
}

Result<LandmarkIndex> LoadLandmarksFromContainer(const MappedContainer& c,
                                                 const RoadNetwork& network) {
  STMAKER_ASSIGN_OR_RETURN(ContainerMetaRecord meta, ReadMeta(c));
  STMAKER_ASSIGN_OR_RETURN(const SectionEntry* lm_entry,
                           RequiredSection(c, SectionType::kLandmarks));
  STMAKER_ASSIGN_OR_RETURN(auto lm_records,
                           c.Records<LandmarkRecord>(*lm_entry));
  if (lm_records.size() != meta.num_landmarks) {
    return CountMismatch(c, SectionType::kLandmarks, lm_records.size(),
                         meta.num_landmarks);
  }
  STMAKER_ASSIGN_OR_RETURN(const SectionEntry* names_entry,
                           RequiredSection(c, SectionType::kLandmarkNames));
  const std::string_view names = c.Blob(*names_entry);

  std::vector<Landmark> landmarks;
  std::vector<NodeId> network_node;
  landmarks.reserve(lm_records.size());
  network_node.reserve(lm_records.size());
  for (size_t i = 0; i < lm_records.size(); ++i) {
    const LandmarkRecord& rec = lm_records[i];
    if (rec.kind > static_cast<uint32_t>(LandmarkKind::kTurningPoint)) {
      return Status::InvalidArgument(
          StrFormat("%s: landmark %zu has invalid kind %u", c.path().c_str(),
                    i, rec.kind));
    }
    Landmark lm;
    lm.id = static_cast<LandmarkId>(i);
    lm.pos = Vec2{rec.x, rec.y};
    if (!IsBoundedCoord(lm.pos)) {
      return UnboundedPosition(c, SectionType::kLandmarks, i, lm.pos);
    }
    STMAKER_ASSIGN_OR_RETURN(
        lm.name, SliceName(c, names, SectionType::kLandmarkNames,
                           rec.name_offset, rec.name_len));
    lm.kind = static_cast<LandmarkKind>(static_cast<int>(rec.kind));
    lm.significance = rec.significance;
    landmarks.push_back(std::move(lm));
    network_node.push_back(rec.network_node);
  }
  return LandmarkIndex::FromParts(std::move(landmarks),
                                  std::move(network_node), network.NumNodes(),
                                  meta.landmark_cell_m);
}

Result<std::vector<RawTrajectory>> LoadTrajectoriesFromContainer(
    const MappedContainer& c) {
  STMAKER_ASSIGN_OR_RETURN(const SectionEntry* trips_entry,
                           RequiredSection(c, SectionType::kCorpusTrips));
  STMAKER_ASSIGN_OR_RETURN(const SectionEntry* samples_entry,
                           RequiredSection(c, SectionType::kCorpusSamples));
  STMAKER_ASSIGN_OR_RETURN(auto trips,
                           c.Records<CorpusTripRecord>(*trips_entry));
  STMAKER_ASSIGN_OR_RETURN(auto samples,
                           c.Records<CorpusSampleRecord>(*samples_entry));
  // Each range is checked before its samples are read: trip i must start
  // where trip i-1 ended and stay inside the samples section, and the
  // trips together must cover it exactly.
  std::vector<RawTrajectory> corpus(trips.size());
  uint64_t next = 0;
  for (size_t i = 0; i < trips.size(); ++i) {
    const CorpusTripRecord& trip = trips[i];
    if (trip.samples_begin != next ||
        trip.samples_count > samples.size() - next) {
      return Status::InvalidArgument(StrFormat(
          "%s: corpus trip %zu sample range [%llu, +%llu) is not the "
          "contiguous run starting at %llu within %zu samples",
          c.path().c_str(), i,
          static_cast<unsigned long long>(trip.samples_begin),
          static_cast<unsigned long long>(trip.samples_count),
          static_cast<unsigned long long>(next), samples.size()));
    }
    next += trip.samples_count;
    RawTrajectory& raw = corpus[i];
    raw.traveler = trip.traveler;
    raw.samples.reserve(static_cast<size_t>(trip.samples_count));
    for (const CorpusSampleRecord& rec :
         samples.subspan(static_cast<size_t>(trip.samples_begin),
                         static_cast<size_t>(trip.samples_count))) {
      raw.samples.push_back({{rec.x, rec.y}, rec.time});
    }
  }
  if (next != samples.size()) {
    return Status::InvalidArgument(StrFormat(
        "%s: corpus trips cover %llu samples, the samples section holds %zu",
        c.path().c_str(), static_cast<unsigned long long>(next),
        samples.size()));
  }
  return corpus;
}

// ---------------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------------

Status STMaker::LoadModelContainer(const MappedContainer& c) {
  // Reset trained state; on any failure the maker stays untrained, exactly
  // like LoadModel.
  analyzer_.reset();
  feature_map_.reset();
  miner_ = PopularRouteMiner();
  visit_corpus_ = VisitCorpus();
  num_trained_ = 0;
  trip_index_.reset();
  index_build_failed_ = false;
  DropRoadHierarchy();

  STMAKER_ASSIGN_OR_RETURN(ContainerMetaRecord meta, ReadMeta(c));
  const size_t F = registry_.size();

  // Feature-set compatibility, pinned by the same ";"-joined id list the
  // CSV meta file uses.
  {
    STMAKER_ASSIGN_OR_RETURN(const SectionEntry* entry,
                             RequiredSection(c, SectionType::kFeatureNames));
    const std::string features(c.Blob(*entry));
    std::vector<std::string> feature_ids;
    for (const FeatureDef& def : registry_.defs()) {
      feature_ids.push_back(def.id);
    }
    if (features != Join(feature_ids, ";")) {
      return Status::FailedPrecondition(
          "model was mined with a different feature set: " + features);
    }
  }
  if (meta.num_landmarks != landmarks_->size()) {
    return Status::InvalidArgument(StrFormat(
        "%s: container was packed over %llu landmarks, the serving index "
        "has %zu",
        c.path().c_str(), static_cast<unsigned long long>(meta.num_landmarks),
        landmarks_->size()));
  }

  // --- Parse every section into locals; commit only after all succeed. ------

  // Transitions, replayed in first-mined order.
  PopularRouteMiner miner;
  {
    STMAKER_ASSIGN_OR_RETURN(const SectionEntry* entry,
                             RequiredSection(c, SectionType::kTransitions));
    STMAKER_ASSIGN_OR_RETURN(auto records,
                             c.Records<TransitionRecord>(*entry));
    if (records.size() != meta.num_transitions) {
      return CountMismatch(c, SectionType::kTransitions, records.size(),
                           meta.num_transitions);
    }
    for (const TransitionRecord& t : records) {
      miner.AddTransitionCount(t.from, t.to, t.count);
    }
  }

  // Feature map, replayed in first-annotated order; the stats section is
  // recomputed over the same replay and must match bitwise.
  auto map = std::make_unique<HistoricalFeatureMap>(F);
  double stats_count = 0;
  std::vector<double> stats_sums(F, 0.0);
  {
    STMAKER_ASSIGN_OR_RETURN(const SectionEntry* entry,
                             RequiredSection(c, SectionType::kFeatureEdges));
    const uint32_t width = static_cast<uint32_t>(24 + 8 * F);
    if (entry->record_width != width) {
      return Status::InvalidArgument(StrFormat(
          "%s: feature-edges record width %u disagrees with %zu features",
          c.path().c_str(), entry->record_width, F));
    }
    if (entry->record_count != meta.num_feature_edges) {
      return CountMismatch(c, SectionType::kFeatureEdges, entry->record_count,
                           meta.num_feature_edges);
    }
    const std::string_view blob = c.Blob(*entry);
    const char* p = blob.data();
    std::vector<double> sums(F, 0.0);
    for (uint64_t i = 0; i < entry->record_count; ++i) {
      const int64_t from = ReadPodAt<int64_t>(p);
      const int64_t to = ReadPodAt<int64_t>(p + 8);
      const double count = ReadPodAt<double>(p + 16);
      for (size_t f = 0; f < F; ++f) {
        sums[f] = ReadPodAt<double>(p + 24 + 8 * f);
      }
      p += width;
      if (count <= 0) {
        return Status::InvalidArgument(c.path() +
                                       ": non-positive feature map count");
      }
      map->AddAccumulated(from, to, sums, count);
      stats_count += count;
      for (size_t f = 0; f < F; ++f) stats_sums[f] += sums[f];
    }
  }
  {
    STMAKER_ASSIGN_OR_RETURN(const SectionEntry* entry,
                             RequiredSection(c, SectionType::kStats));
    STMAKER_ASSIGN_OR_RETURN(auto stats, c.Records<double>(*entry));
    if (stats.size() != F + 1) {
      return CountMismatch(c, SectionType::kStats, stats.size(), F + 1);
    }
    bool agrees = stats[0] == stats_count;
    for (size_t f = 0; agrees && f < F; ++f) {
      agrees = stats[1 + f] == stats_sums[f];
    }
    if (!agrees) {
      return Status::FailedPrecondition(
          c.path() +
          ": calibration stats disagree with the feature-map records — "
          "corrupted or inconsistently written container");
    }
  }

  // Visit corpus, replayed in write order (traveller first-seen order,
  // pairs first-visited) so TrainIncremental keeps composing.
  VisitCorpus visits;
  {
    STMAKER_ASSIGN_OR_RETURN(const SectionEntry* entry,
                             RequiredSection(c, SectionType::kVisits));
    STMAKER_ASSIGN_OR_RETURN(auto records, c.Records<VisitRecord>(*entry));
    if (records.size() != meta.num_visits) {
      return CountMismatch(c, SectionType::kVisits, records.size(),
                           meta.num_visits);
    }
    for (const VisitRecord& v : records) {
      if (v.landmark < 0 ||
          static_cast<size_t>(v.landmark) >= landmarks_->size() ||
          v.count <= 0) {
        return Status::InvalidArgument(c.path() + ": bad visits entry");
      }
      visits.AddVisitCount(v.key, v.landmark, v.count);
    }
  }

  // Trajectory index (advisory). Any failure warns and serves the scan
  // path — identical results, just slower — never a failed model load.
  std::unique_ptr<TrajectoryIndex> trip_index;
  if (meta.has_index != 0) {
    static Counter& load_failures =
        MetricsRegistry::Global().counter("index.load_failures");
    Status loaded = [&]() -> Status {
      STMAKER_ASSIGN_OR_RETURN(
          const SectionEntry* desc_entry,
          AdvisorySection(c, SectionType::kTripDescriptors));
      STMAKER_ASSIGN_OR_RETURN(const SectionEntry* cells_entry,
                               AdvisorySection(c, SectionType::kTripCells));
      STMAKER_ASSIGN_OR_RETURN(const SectionEntry* labels_entry,
                               AdvisorySection(c, SectionType::kTripLabels));
      STMAKER_ASSIGN_OR_RETURN(
          const SectionEntry* fp_entry,
          AdvisorySection(c, SectionType::kTripFingerprints));
      STMAKER_ASSIGN_OR_RETURN(auto descs,
                               c.Records<TripDescRecord>(*desc_entry));
      STMAKER_ASSIGN_OR_RETURN(auto cells,
                               c.Records<TripCellRecord>(*cells_entry));
      STMAKER_ASSIGN_OR_RETURN(auto labels,
                               c.Records<int64_t>(*labels_entry));
      STMAKER_ASSIGN_OR_RETURN(auto fps, c.Records<double>(*fp_entry));
      if (descs.size() != meta.num_trips) {
        return CountMismatch(c, SectionType::kTripDescriptors, descs.size(),
                             meta.num_trips);
      }
      if (fps.size() != meta.num_trips * F) {
        return CountMismatch(c, SectionType::kTripFingerprints, fps.size(),
                             meta.num_trips * F);
      }
      TrajectoryIndexOptions options;
      options.cell_m = meta.index_cell_m;
      options.bucket_s = meta.index_bucket_s;
      if (options.cell_m <= 0 || options.bucket_s <= 0) {
        return Status::InvalidArgument(c.path() +
                                       ": non-positive index geometry");
      }
      std::vector<TripDescriptor> descriptors;
      descriptors.reserve(descs.size());
      for (size_t i = 0; i < descs.size(); ++i) {
        const TripDescRecord& rec = descs[i];
        if (rec.trip != i || rec.spatial > 1 || rec.scored > 1) {
          return Status::InvalidArgument(StrFormat(
              "%s: trip descriptor %zu malformed", c.path().c_str(), i));
        }
        TripDescriptor d;
        d.trip = rec.trip;
        d.spatial = rec.spatial != 0;
        d.scored = rec.scored != 0;
        d.bbox.min = Vec2{rec.min_x, rec.min_y};
        d.bbox.max = Vec2{rec.max_x, rec.max_y};
        d.t_begin = rec.t_begin;
        d.t_end = rec.t_end;
        if (rec.cells_count > cells.size() ||
            rec.cells_begin > cells.size() - rec.cells_count ||
            rec.labels_count > labels.size() ||
            rec.labels_begin > labels.size() - rec.labels_count) {
          return Status::InvalidArgument(
              StrFormat("%s: trip %zu cell/label slice out of bounds",
                        c.path().c_str(), i));
        }
        for (uint64_t k = 0; k < rec.cells_count; ++k) {
          const TripCellRecord& cr = cells[rec.cells_begin + k];
          d.cell_buckets.emplace_back(cr.cell, cr.bucket);
        }
        if (!std::is_sorted(d.cell_buckets.begin(), d.cell_buckets.end())) {
          return Status::InvalidArgument(c.path() +
                                         ": unsorted cell postings");
        }
        for (uint64_t k = 0; k < rec.labels_count; ++k) {
          d.labels.push_back(labels[rec.labels_begin + k]);
        }
        if (d.scored) {
          d.fingerprint.assign(fps.begin() + i * F, fps.begin() + (i + 1) * F);
        }
        descriptors.push_back(std::move(d));
      }
      STMAKER_ASSIGN_OR_RETURN(
          TrajectoryIndex index,
          TrajectoryIndex::Build(options, std::move(descriptors)));
      trip_index = std::make_unique<TrajectoryIndex>(std::move(index));
      return Status::OK();
    }();
    if (!loaded.ok()) {
      std::fprintf(stderr,
                   "warning: trajectory index unusable, similarity/region "
                   "queries fall back to corpus scan: %s\n",
                   loaded.ToString().c_str());
      load_failures.Increment();
    }
  }

  // Routing hierarchy (advisory). Any failure warns and serves Dijkstra.
  std::unique_ptr<ContractionHierarchy> hierarchy;
  if (meta.has_hierarchy != 0) {
    static Counter& load_failures =
        MetricsRegistry::Global().counter("router.ch.load_failures");
    Status loaded = [&]() -> Status {
      STMAKER_ASSIGN_OR_RETURN(const SectionEntry* rank_entry,
                               AdvisorySection(c, SectionType::kChRank));
      STMAKER_ASSIGN_OR_RETURN(const SectionEntry* arcs_entry,
                               AdvisorySection(c, SectionType::kChArcs));
      STMAKER_ASSIGN_OR_RETURN(auto rank, c.Records<uint32_t>(*rank_entry));
      STMAKER_ASSIGN_OR_RETURN(auto arc_records,
                               c.Records<ChArcRecord>(*arcs_entry));
      const std::span<const ContractionHierarchy::Arc> arcs(
          reinterpret_cast<const ContractionHierarchy::Arc*>(
              c.Blob(*arcs_entry).data()),
          arc_records.size());
      STMAKER_ASSIGN_OR_RETURN(
          ContractionHierarchy ch,
          ContractionHierarchy::FromRaw(rank, arcs, meta.ch_num_edges,
                                        meta.ch_num_shortcuts, *network_,
                                        c.path() + " [ch]"));
      hierarchy = std::make_unique<ContractionHierarchy>(std::move(ch));
      return Status::OK();
    }();
    if (!loaded.ok()) {
      std::fprintf(stderr,
                   "warning: routing hierarchy unusable, falling back to "
                   "Dijkstra: %s\n",
                   loaded.ToString().c_str());
      load_failures.Increment();
    }
  }

  // --- Commit. ---------------------------------------------------------------
  num_trained_ = static_cast<size_t>(meta.num_trained);
  trip_index_ = std::move(trip_index);
  if (hierarchy != nullptr) {
    road_hierarchy_ = std::move(hierarchy);
    road_router_.AttachHierarchy(road_hierarchy_.get());
  }
  miner_ = std::move(miner);
  feature_map_ = std::move(map);
  visit_corpus_ = std::move(visits);
  analyzer_ = std::make_unique<IrregularityAnalyzer>(&registry_, &miner_,
                                                     feature_map_.get());
  return Status::OK();
}

}  // namespace stmaker
