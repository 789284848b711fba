#ifndef STMAKER_IO_CONTAINER_H_
#define STMAKER_IO_CONTAINER_H_

/// \file
/// \brief Single-file binary model container: fixed header, section table,
/// fixed-width little-endian records, per-section CRC32, 64-byte alignment.
///
/// The container is the one saved form of a trained model, a file the
/// server can `mmap` and serve from directly: the road network's CSR
/// adjacency, edge geometry/endpoint arrays, the CH hierarchy, landmark
/// table, trip descriptors, calibration stats, and the serving trajectory
/// corpus live as fixed-width records that are valid in-memory
/// representations — no text parse, and no heap copy of the network's big
/// arrays. The
/// byte-level layout (every offset, width, and CRC rule) is specified in
/// docs/FORMAT.md; this header is its executable twin.
///
/// Layering: this module knows bytes, sections, and CRCs — not model
/// semantics. The writer (`ContainerWriter`) assembles sections and writes
/// the file atomically; the reader (`MappedContainer`) maps the file,
/// validates structure (magic, version, header CRC, section-table bounds
/// and alignment), and exposes typed spans. Whether a damaged section is
/// fatal or advisory is the caller's decision (src/core/
/// stmaker_container_io.cc).

#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace stmaker {

/// Identifies what a section's records mean. Values are part of the wire
/// format (FORMAT.md §3) and must never be renumbered or reused; add new
/// sections at the end. Readers skip unknown types (forward
/// compatibility). Type 14 is reserved: it was the visits section, which
/// older builds wrote and required; this build neither writes nor reads
/// it.
enum class SectionType : uint32_t {
  kMeta = 1,              ///< One MetaRecord: counts, flags, index geometry.
  kFeatureNames = 2,      ///< Blob: ";"-joined feature registry ids.
  kNodes = 3,             ///< NodeRecord per road node (ids implicit/dense).
  kEdges = 4,             ///< EdgeRecord per road edge.
  kEdgeNames = 5,         ///< Blob: concatenated edge name bytes.
  kCsrOffsets = 6,        ///< uint32_t per node + 1 (CSR row starts).
  kCsrEntries = 7,        ///< CsrEntryRecord per directed adjacency entry.
  kEdgeGeom = 8,          ///< EdgeGeomRecord per edge (endpoint positions).
  kEdgeEnds = 9,          ///< EdgeEndsRecord per edge (32-bit endpoints).
  kLandmarks = 10,        ///< LandmarkRecord per landmark (with significance).
  kLandmarkNames = 11,    ///< Blob: concatenated landmark name bytes.
  kTransitions = 12,      ///< TransitionRecord per mined transition.
  kFeatureEdges = 13,     ///< Variable-width: (from,to,count,sums[F]) rows.
  kTripDescriptors = 15,  ///< TripDescRecord per corpus trip.
  kTripCells = 16,        ///< TripCellRecord: all trips' (cell,bucket) visits.
  kTripLabels = 17,       ///< int64_t: all trips' landmark labels.
  kTripFingerprints = 18, ///< double: num_trips x num_features, row-major.
  kChRank = 19,           ///< uint32_t per node: contraction rank.
  kChArcs = 20,           ///< ChArcRecord per CH arc (originals + shortcuts).
  kStats = 21,            ///< double: [global_count, global_sum[0..F-1]].
  kCorpusTrips = 22,      ///< CorpusTripRecord per serving-corpus trip.
  kCorpusSamples = 23,    ///< CorpusSampleRecord per serving-corpus fix.
};

/// Current writer format version. Readers accept files with
/// `format_version` <= this value and reject newer files (FORMAT.md §6).
inline constexpr uint32_t kContainerFormatVersion = 1;

/// The 8 magic bytes at offset 0 of every container file.
inline constexpr char kContainerMagic[8] = {'S', 'T', 'M', 'K',
                                            'C', 'T', 'R', '1'};

/// Payload alignment: every section's `offset` is a multiple of this, so
/// mapped records of any scalar width are naturally aligned and each
/// section starts on its own cache line. Gaps are zero-filled.
inline constexpr uint64_t kContainerAlignment = 64;

#pragma pack(push, 1)

/// Fixed 64-byte file header at offset 0 (FORMAT.md §2). All integers
/// little-endian; the container format is little-endian only.
struct ContainerHeader {
  char magic[8];           ///< kContainerMagic.
  uint32_t format_version; ///< kContainerFormatVersion when written.
  uint32_t flags;          ///< Reserved, 0.
  uint32_t section_count;  ///< Entries in the section table.
  uint32_t header_crc32;   ///< CRC32 of header (this field zeroed) + table.
  uint64_t file_bytes;     ///< Total file size, for truncation detection.
  uint8_t reserved[32];    ///< Zero.
};
static_assert(sizeof(ContainerHeader) == 64, "header layout is frozen");

/// One 64-byte section-table entry; the table follows the header
/// immediately (FORMAT.md §3).
struct SectionEntry {
  uint32_t type;         ///< SectionType value (unknown types are skipped).
  uint32_t version;      ///< Per-section record-layout version (1 today).
  uint32_t record_width; ///< Bytes per record; 1 for blobs.
  uint32_t crc32;        ///< CRC32 over exactly [offset, offset + bytes).
  uint64_t offset;       ///< From file start; multiple of kContainerAlignment.
  uint64_t bytes;        ///< Payload length (record_width * record_count).
  uint64_t record_count; ///< Number of records.
  uint8_t reserved[24];  ///< Zero.
};
static_assert(sizeof(SectionEntry) == 64, "section entry layout is frozen");

/// kMeta payload: one record of counts and flags that lets a reader size
/// and cross-check every other section before touching it.
struct ContainerMetaRecord {
  uint64_t num_features;     ///< Feature registry size F.
  uint64_t num_trained;      ///< Trajectories the model was trained on.
  uint64_t num_nodes;        ///< Road nodes.
  uint64_t num_edges;        ///< Road edges.
  uint64_t num_landmarks;    ///< Landmarks (POI clusters + turning points).
  uint64_t num_transitions;  ///< Mined popular-route transitions.
  uint64_t num_feature_edges;///< Historical feature map entries.
  uint64_t num_visits;       ///< Retired with section type 14: written 0.
  uint64_t num_trips;        ///< Trip descriptors (0 when index absent).
  uint64_t ch_num_edges;     ///< CH: network edge count at build time.
  uint64_t ch_num_shortcuts; ///< CH: shortcut arc count.
  uint32_t has_hierarchy;    ///< 1 when kChRank/kChArcs are meaningful.
  uint32_t has_index;        ///< 1 when the kTrip* sections are meaningful.
  double index_cell_m;       ///< Trajectory-index grid cell (meters).
  double index_bucket_s;     ///< Trajectory-index time bucket (seconds).
  double landmark_cell_m;    ///< Landmark grid-index cell (meters).
};
static_assert(sizeof(ContainerMetaRecord) == 120, "meta layout is frozen");

/// kNodes record: node position; ids are dense and implicit (record i is
/// node i). `is_turning_point` is derived state, recomputed on load.
struct NodeRecord {
  double x;
  double y;
};
static_assert(sizeof(NodeRecord) == 16, "node record layout is frozen");

/// kEdges record: everything of RoadEdge except derived length (recomputed
/// from endpoints on load) and the name (stored in the kEdgeNames blob).
struct EdgeRecord {
  int64_t from;
  int64_t to;
  uint32_t grade;       ///< RoadGrade numeric value.
  uint32_t direction;   ///< TrafficDirection numeric value.
  double width_m;
  double cost_bias;
  uint64_t name_offset; ///< Byte offset into kEdgeNames.
  uint64_t name_len;    ///< Byte length in kEdgeNames.
};
static_assert(sizeof(EdgeRecord) == 56, "edge record layout is frozen");

/// kCsrEntries record: a RoadNetwork::Adjacency with its padding pinned to
/// zero. Matches the in-memory layout so the mapped array is served as-is.
struct CsrEntryRecord {
  int64_t edge;
  int64_t neighbor;
  uint8_t forward;     ///< 0 or 1.
  uint8_t pad[7];      ///< Zero.
};
static_assert(sizeof(CsrEntryRecord) == 24, "csr entry layout is frozen");

/// kEdgeGeom record: endpoint positions (RoadNetwork::EdgeGeometry).
struct EdgeGeomRecord {
  double ax, ay, bx, by;
};
static_assert(sizeof(EdgeGeomRecord) == 32, "edge geom layout is frozen");

/// kEdgeEnds record: 32-bit endpoint ids (RoadNetwork::EdgeEndpoints).
struct EdgeEndsRecord {
  int32_t from;
  int32_t to;
};
static_assert(sizeof(EdgeEndsRecord) == 8, "edge ends layout is frozen");

/// kLandmarks record; ids are dense and implicit. Names live in the
/// kLandmarkNames blob.
struct LandmarkRecord {
  double x;
  double y;
  double significance;
  int64_t network_node; ///< Turning-point node id, -1 for POI landmarks.
  uint64_t name_offset; ///< Byte offset into kLandmarkNames.
  uint64_t name_len;    ///< Byte length in kLandmarkNames.
  uint32_t kind;        ///< LandmarkKind numeric value.
  uint32_t pad;         ///< Zero.
};
static_assert(sizeof(LandmarkRecord) == 56, "landmark layout is frozen");

/// kTransitions record: one popular-route transition count.
struct TransitionRecord {
  int64_t from;
  int64_t to;
  double count;
};
static_assert(sizeof(TransitionRecord) == 24, "transition layout is frozen");

/// kTripDescriptors record. Variable-length members (cell visits, labels,
/// fingerprint) live in the kTripCells/kTripLabels/kTripFingerprints
/// sections, addressed by the begin/count pairs here.
struct TripDescRecord {
  uint32_t trip;
  uint8_t spatial;      ///< 0 or 1.
  uint8_t scored;       ///< 0 or 1.
  uint16_t pad;         ///< Zero.
  double min_x, min_y, max_x, max_y; ///< Bounding box.
  double t_begin, t_end;
  uint64_t cells_begin; ///< First record in kTripCells.
  uint64_t cells_count;
  uint64_t labels_begin; ///< First record in kTripLabels.
  uint64_t labels_count;
};
static_assert(sizeof(TripDescRecord) == 88, "trip desc layout is frozen");

/// kTripCells record: one (grid cell, time bucket) visit.
struct TripCellRecord {
  uint64_t cell;
  int64_t bucket;
};
static_assert(sizeof(TripCellRecord) == 16, "trip cell layout is frozen");

/// kChArcs record: a ContractionHierarchy::Arc (layout matches exactly, so
/// the array round-trips by memcpy).
struct ChArcRecord {
  int64_t from;
  int64_t to;
  double weight;
  int64_t edge;    ///< Original edge id, -1 for shortcuts.
  int32_t left;    ///< Left child arc index, -1 for originals.
  int32_t right;   ///< Right child arc index, -1 for originals.
};
static_assert(sizeof(ChArcRecord) == 40, "ch arc layout is frozen");

/// kCorpusTrips record: one trip of the serving corpus. Its fixes are the
/// kCorpusSamples records [samples_begin, samples_begin + samples_count);
/// trips tile that section contiguously, in corpus order.
struct CorpusTripRecord {
  uint64_t samples_begin; ///< First record in kCorpusSamples.
  uint64_t samples_count;
  int64_t traveler;       ///< Moving-object id, -1 when unknown.
};
static_assert(sizeof(CorpusTripRecord) == 24, "corpus trip layout is frozen");

/// kCorpusSamples record: one GPS fix (RawSample) of the serving corpus.
struct CorpusSampleRecord {
  double x;
  double y;
  double time; ///< Absolute seconds.
};
static_assert(sizeof(CorpusSampleRecord) == 24,
              "corpus sample layout is frozen");

#pragma pack(pop)

/// \brief Assembles a container file: sections are appended in call order,
/// each payload 64-byte aligned and CRC'd, then Finish() writes the header,
/// section table, and payloads atomically (temp file + rename).
///
/// The writer is deliberately dumb: callers hand it fully serialized
/// payload bytes (with struct padding already zeroed — see
/// stmaker_container_io.cc's packers), so identical model state always
/// produces a byte-identical file.
class ContainerWriter {
 public:
  /// Appends one section. `record_width` must divide `payload.size()`
  /// evenly (pass 1 for blobs); the record count is derived.
  /// \param type The section's SectionType.
  /// \param version Record-layout version stored in the entry (1 today).
  /// \param record_width Bytes per record; must be > 0.
  /// \param payload The raw section bytes (moved in).
  void AddSection(SectionType type, uint32_t version, uint32_t record_width,
                  std::string payload);

  /// Serializes the container to a byte string (header + table + aligned
  /// payloads). Leaves the writer empty.
  /// \return The complete file image.
  std::string FinishToString();

  /// FinishToString() + WriteFileAtomic(path).
  /// \param path Destination file path.
  /// \return OK, or the write/rename error.
  Status Finish(const std::string& path);

 private:
  struct PendingSection {
    SectionType type;
    uint32_t version;
    uint32_t record_width;
    std::string payload;
  };
  std::vector<PendingSection> sections_;
};

/// \brief A validated, read-only view of a container file, backed by an
/// `mmap` (or an aligned heap buffer when mapping fails — failpoint
/// "container/map", counted by `container.map_fallbacks`).
///
/// Open() validates structure only — magic, version, header CRC, section
/// alignment/bounds, width×count consistency — in O(header + table), so a
/// cold start never parses the payloads. Per-section payload CRCs are
/// checked by the caller via VerifyCrc(), which decides fatal-vs-advisory
/// per section. The object must outlive every span handed out by
/// Records()/Blob(); ModelSnapshot pins it for exactly that reason.
class MappedContainer {
 public:
  MappedContainer(const MappedContainer&) = delete;
  MappedContainer& operator=(const MappedContainer&) = delete;
  ~MappedContainer();

  /// Maps and structurally validates `path`.
  /// \param path Container file to open.
  /// \return The container, or kIoError / kInvalidArgument /
  /// kFailedPrecondition (version skew) describing the rejection.
  static Result<std::shared_ptr<MappedContainer>> Open(
      const std::string& path);

  /// \return The validated file header.
  const ContainerHeader& header() const { return header_; }

  /// \return The section table, in file order.
  std::span<const SectionEntry> sections() const { return sections_; }

  /// \return The path the container was opened from (for error messages).
  const std::string& path() const { return path_; }

  /// \return True when the file bytes are heap-backed because mmap was
  /// unavailable (observability; behavior is identical).
  bool heap_backed() const { return heap_backed_; }

  /// Finds the first section of `type`.
  /// \param type The section type to look up.
  /// \return The entry, or nullptr when the file has no such section.
  const SectionEntry* Find(SectionType type) const;

  /// Recomputes a section's payload CRC32 and compares it to the table.
  /// \param entry An entry obtained from this container.
  /// \return True when the payload bytes are intact.
  bool VerifyCrc(const SectionEntry& entry) const;

  /// Raw payload bytes of a section (zero-copy view into the mapping).
  /// \param entry An entry obtained from this container.
  /// \return The [offset, offset+bytes) view.
  std::string_view Blob(const SectionEntry& entry) const;

  /// Typed record view of a section. Fails when the stored record width
  /// does not match `sizeof(T)` — the caller's struct disagrees with the
  /// file and reinterpreting would read garbage.
  /// \tparam T A trivially-copyable record struct (alignment <= 64).
  /// \param entry An entry obtained from this container.
  /// \return A span of `record_count` records aliasing the mapping.
  template <typename T>
  Result<std::span<const T>> Records(const SectionEntry& entry) const {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(alignof(T) <= kContainerAlignment);
    if (entry.record_width != sizeof(T)) {
      return Status::InvalidArgument(
          path_ + ": section type " + std::to_string(entry.type) +
          " has record width " + std::to_string(entry.record_width) +
          ", reader expects " + std::to_string(sizeof(T)));
    }
    return std::span<const T>(
        reinterpret_cast<const T*>(data_ + entry.offset),
        static_cast<size_t>(entry.record_count));
  }

 private:
  MappedContainer() = default;

  std::string path_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool heap_backed_ = false;
  void* map_base_ = nullptr;    ///< mmap base when mapped.
  size_t map_len_ = 0;
  std::unique_ptr<uint8_t[]> heap_; ///< Owning buffer when heap-backed.
  ContainerHeader header_{};
  std::vector<SectionEntry> sections_;
};

}  // namespace stmaker

#endif  // STMAKER_IO_CONTAINER_H_
