#ifndef STMAKER_CORE_STMAKER_H_
#define STMAKER_CORE_STMAKER_H_

/// \file
/// STMaker: the façade wiring sanitize, calibration, feature extraction,
/// partitioning, selection, and text generation into train/serve entry
/// points, plus model persistence (the `.stm` container) and the
/// road-routing seam.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/context.h"
#include "common/status.h"
#include "core/feature.h"
#include "core/feature_extractor.h"
#include "core/historical_feature_map.h"
#include "core/irregularity.h"
#include "core/partitioner.h"
#include "core/popular_route.h"
#include "core/summary.h"
#include "geo/bounding_box.h"
#include "index/trajectory_index.h"
#include "landmark/landmark_index.h"
#include "landmark/significance.h"
#include "roadnet/contraction_hierarchy.h"
#include "roadnet/road_network.h"
#include "roadnet/shortest_path.h"
#include "traj/calibration.h"
#include "traj/sanitize.h"

namespace stmaker {

class MappedContainer;  // io/container.h

/// Per-summary knobs (Sec. VII-B: feature weights 1, irregular threshold
/// η = 0.2).
struct SummaryOptions {
  /// Number of partitions; 0 requests the unconstrained global optimum
  /// (Sec. IV-C). Values larger than the number of segments are clamped.
  int k = 0;
  /// Landmark-significance weight C_a in the potential (Eq. 2). Note: with
  /// Eq. 3 similarities bounded in [0.5, 1] for non-negative feature
  /// vectors, a boundary cuts only when C_a · l.s exceeds the similarity, so
  /// the paper's stated C_a = 0.5 can never produce a cut (l.s <= 1). We
  /// default to 1.6 so the unconstrained optimum splits at genuinely
  /// significant landmarks; see EXPERIMENTS.md.
  double ca = 1.6;
  double eta = 0.2;  ///< Irregular-rate selection threshold η.
};

/// System-level configuration fixed at construction.
struct STMakerOptions {
  CalibrationOptions calibration;
  FeatureExtractorOptions extraction;
  /// Worker threads for Train() corpus ingestion and the default for
  /// SummarizeBatch(). 1 = serial; 0 = hardware concurrency.
  /// Thread count never changes results (see DESIGN.md, "Parallel execution
  /// & determinism").
  int num_threads = 1;
  /// Input sanitization applied to every trajectory entering the system —
  /// ingestion and serving alike. The default kRepair policy drops
  /// defective points (NaN, out-of-range, backwards time, duplicates,
  /// teleports) and mends the trajectory; kStrict quarantines/rejects it
  /// whole. Clean trajectories pass through bit-identical.
  SanitizeOptions sanitize;
  /// Train fails with kFailedPrecondition when more than
  /// this fraction of the corpus was quarantined — a corpus that is mostly
  /// garbage signals an upstream fault, not a few bad trips. 1.0 (default)
  /// never converts quarantine into a hard error.
  double max_quarantine_fraction = 1.0;
  /// Geometry of the spatio-temporal trajectory index built during
  /// Train() (grid cell edge, coarse time bucket). Persisted with the
  /// index so a restored model queries under the geometry it was built
  /// with.
  TrajectoryIndexOptions index;
};

/// \brief Outcome of one training corpus ingestion (Train): how many trajectories made it into the model and why the rest were
/// quarantined. Per-shard reports are merged deterministically (counts are
/// additive and shard blocks are contiguous), so the report is identical at
/// every thread count.
struct IngestReport {
  size_t total = 0;        ///< Trajectories offered.
  size_t ingested = 0;     ///< Trajectories that entered the model.
  size_t quarantined = 0;  ///< Skipped; the sum of the reasons below.
  size_t sanitize_rejected = 0;    ///< kStrict sanitization rejections.
  size_t calibration_failed = 0;   ///< Calibrator returned an error.
  size_t extraction_failed = 0;    ///< Feature extractor returned an error.
  size_t failpoint_injected = 0;   ///< "train/shard" failpoint firings.
  /// Repair statistics (policy kRepair): trajectories that survived with
  /// points dropped, and the total points dropped across the corpus.
  size_t repaired = 0;
  size_t dropped_points = 0;

  double QuarantineFraction() const {
    return total == 0 ? 0.0
                      : static_cast<double>(quarantined) /
                            static_cast<double>(total);
  }
  void Merge(const IngestReport& other);
  /// "380/400 ingested, 20 quarantined (calibration: 12, sanitize: 8)".
  std::string ToString() const;
};

/// \brief The STMaker system: end-to-end trajectory summarization
/// (Fig. 3's four steps behind one facade).
///
/// Usage:
///   1. Construct over a road network, a landmark index, and a feature
///      registry. Register custom features and adjust weights through
///      registry() *before* Train().
///   2. Train() on a historical trajectory corpus. This mines popular
///      routes, builds the historical feature map, and computes landmark
///      significance (HITS over the corpus's landmark visits), writing the
///      scores into the landmark index.
///   3. Summarize() any raw trajectory.
///
/// Feature *weights* may be changed between Summarize() calls; the feature
/// *set* is fixed once Train() has run.
class STMaker {
 public:
  /// `network` and `landmarks` must outlive the STMaker; `landmarks` is
  /// mutated by Train() (significance installation).
  STMaker(const RoadNetwork* network, LandmarkIndex* landmarks,
          FeatureRegistry registry,
          const STMakerOptions& options = STMakerOptions());

  /// Mutable registry for weight tuning (any time) and custom feature
  /// registration (before Train only).
  FeatureRegistry& registry() { return registry_; }
  const FeatureRegistry& registry() const { return registry_; }

  /// Builds the historical knowledge from a corpus of raw trajectories.
  /// Defective trajectories are sanitized (options().sanitize) and, when
  /// still unusable, quarantined — counted and skipped, never fatal unless
  /// the quarantine fraction exceeds options().max_quarantine_fraction or
  /// fewer than two trajectories survive. Replaces any previous training.
  /// Ingestion runs on options().num_threads workers; the trained model and
  /// the report are identical for every thread count (see IngestCorpus).
  Status Train(const std::vector<RawTrajectory>& history);

  /// Train(), returning the per-corpus IngestReport on success.
  Result<IngestReport> TrainWithReport(
      const std::vector<RawTrajectory>& history);

  bool trained() const { return analyzer_ != nullptr; }
  size_t num_trained() const { return num_trained_; }

  /// Summarizes one raw trajectory (requires Train() first). The input is
  /// sanitized with options().sanitize first (kRepair mends defective
  /// fixes; kStrict rejects the request with kInvalidArgument). Features
  /// the model has no baseline for are marked BaselineStatus::kNoBaseline
  /// in the partitions with a neutral irregular rate — a degraded but
  /// well-formed summary rather than garbage or kInternal. Thread-safe
  /// against concurrent Summarize/SummarizeBatch calls — the const serving
  /// path only reads the trained model, and the internal caches
  /// (calibration, popular-route queries) are mutex-guarded. Must not
  /// overlap Train/LoadModelContainer.
  ///
  /// `ctx` (optional) bounds the request: the pipeline checks the deadline
  /// at every stage boundary and inside every hot loop, returning
  /// kDeadlineExceeded instead of a truncated or degraded summary. A null
  /// context (the default) means no limits — byte-identical behaviour to
  /// the pre-context API. Context aborts are never memoized in the
  /// internal caches, so a timed-out request leaves no observable trace
  /// for later calls.
  Result<Summary> Summarize(const RawTrajectory& raw,
                            const SummaryOptions& options = SummaryOptions(),
                            const RequestContext* ctx = nullptr) const;

  /// Summarizes a batch on `num_threads` workers (0 = options().num_threads
  /// resolved against hardware concurrency). Element i of the result is
  /// exactly what Summarize(raws[i], options) returns — same summaries,
  /// same per-item failures, independent of thread count.
  std::vector<Result<Summary>> SummarizeBatch(
      std::span<const RawTrajectory> raws,
      const SummaryOptions& options = SummaryOptions(),
      int num_threads = 0) const;

  /// Persists the trained model *and its serving world* — road-network
  /// CSR + geometry, CH hierarchy, landmarks with significances,
  /// popular-route transitions, the historical feature map,
  /// trajectory-index descriptors, calibration stats, and the
  /// serving trajectory corpus — as one binary container file
  /// (docs/FORMAT.md) that the server mmaps and serves from without
  /// reading any CSV (train once, serve many; `stmaker_cli train`).
  /// Requires Train() first.
  ///
  /// \param path Destination file, written atomically.
  /// \param corpus The serving corpus the trip-addressed verbs read,
  ///   stored bit-exact (LoadTrajectoriesFromContainer returns it).
  /// \return OK, or the I/O error.
  Status SaveModelContainer(const std::string& path,
                            const std::vector<RawTrajectory>& corpus) const;

  /// Restores the trained knowledge from an opened model container. The
  /// maker must have been constructed over the world restored from the
  /// *same* container (LoadNetworkFromContainer /
  /// LoadLandmarksFromContainer). Feature-set mismatch or damage to a
  /// required section fails (leaving the maker untrained); a damaged
  /// hierarchy or trajectory-index section only degrades — warning +
  /// metric, Dijkstra/scan fallback. The hierarchy is the one the
  /// container carries: a load never contracts one. All model state this
  /// method restores is copied out of the mapping; only the road network
  /// itself stays zero-copy.
  ///
  /// \param container An open container (see MappedContainer::Open).
  /// \return OK, or the validation error.
  Status LoadModelContainer(const MappedContainer& container);

  /// Calibration entry point, exposed for tests and tooling.
  Result<CalibratedTrajectory> Calibrate(
      const RawTrajectory& raw, const RequestContext* ctx = nullptr) const;

  /// Contracts the road network into a hierarchy and installs it as the
  /// routing backend for RoadRoute. SaveModelContainer
  /// then persists it (sections ch-rank/ch-arcs) so a later
  /// LoadModelContainer serves without re-contracting. Preprocessing work,
  /// not serving work — run it next to Train(), never concurrently with
  /// queries.
  ///
  /// \return OK, or the ContractionHierarchy::Build error.
  Status BuildRoadHierarchy();

  /// True when a hierarchy is installed (built or restored by
  /// LoadModelContainer).
  bool has_road_hierarchy() const { return road_hierarchy_ != nullptr; }

  /// Point-to-point road route under the geometric-length metric —
  /// hierarchy-accelerated when one is installed, plain Dijkstra
  /// otherwise; results are identical either way. Honors `ctx` like
  /// Summarize (deadline, expansion budget).
  ///
  /// \param src Start road-network node id.
  /// \param dst Destination road-network node id.
  /// \param ctx Optional request limits (may be null).
  /// \return The path, or the ShortestPathRouter::Route errors.
  Result<Path> RoadRoute(NodeId src, NodeId dst,
                         const RequestContext* ctx = nullptr) const;

  /// Reduces one raw trajectory to its index descriptor (sanitize →
  /// calibrate → extract → fingerprint), exactly as Train() describes the
  /// corpus trips — the scan fallback and external-query building block.
  /// The returned descriptor carries TripDescriptor::kNoTrip as its id;
  /// callers targeting a corpus trip overwrite it.
  Result<TripDescriptor> DescribeTrip(const RawTrajectory& raw,
                                      const RequestContext* ctx = nullptr)
      const;

  /// Top-k historical trips similar to corpus trip `trip`: among the
  /// corpus trips sharing at least one grid cell or landmark label with it
  /// (its spatio-temporal neighbourhood), ranked by the Eq. 3 weighted
  /// cosine of the feature fingerprints under the current registry
  /// weights, ties broken by ascending trip id. Served from the trajectory
  /// index when one is installed, otherwise by a full corpus scan through
  /// the same pipeline — the results are identical either way (the oracle
  /// suite pins this). `corpus` must be the corpus the model was trained
  /// on, in training order.
  Result<std::vector<TrajectoryIndex::Match>> SimilarTrips(
      std::span<const RawTrajectory> corpus, size_t trip, size_t k,
      const RequestContext* ctx = nullptr) const;

  /// Region/time-window retrieval: the ascending ids of every corpus trip
  /// with at least one sanitized fix inside `box` (and, when `window` is
  /// set, timestamped within [window->first, window->second]). Index
  /// candidates are refined against the actual samples, so indexed and
  /// scan answers are identical.
  Result<std::vector<uint32_t>> QueryRegion(
      std::span<const RawTrajectory> corpus, const BoundingBox& box,
      const std::optional<std::pair<double, double>>& window,
      const RequestContext* ctx = nullptr) const;

  /// The trajectory index, or null when none is installed (untrained,
  /// index build failed, or the persisted index was unusable on load).
  const TrajectoryIndex* trip_index() const { return trip_index_.get(); }

  /// True when similarity/region queries are index-accelerated.
  bool has_trajectory_index() const { return trip_index_ != nullptr; }

  /// Discards the index; similarity/region queries fall back to the full
  /// corpus scan and SaveModelContainer stops writing the trip-index
  /// sections. The scan-vs-index differential tests and the speedup
  /// benchmark use this.
  void DropTrajectoryIndex() { trip_index_.reset(); }

  /// Hit/miss/eviction counters of the serving-path caches (serve mode
  /// prints these on shutdown).
  CacheStats CalibrationCacheStats() const { return calibrator_.Stats(); }
  CacheStats RouteCacheStats() const { return miner_->Stats(); }

  const PopularRouteMiner& popular_routes() const { return *miner_; }
  const HistoricalFeatureMap* feature_map() const {
    return feature_map_.get();
  }
  const LandmarkIndex& landmarks() const { return *landmarks_; }

 private:
  /// The staged pipeline body of Summarize (sanitize → calibrate → extract
  /// → partition → select → generate), each stage wrapped in a trace span
  /// and a stage-latency histogram. Summarize() itself only adds the
  /// request counters and the root span — the split keeps "count every
  /// outcome exactly once" trivially correct across the many early
  /// returns.
  Result<Summary> SummarizeStages(const RawTrajectory& raw,
                                  const SummaryOptions& options,
                                  const RequestContext* ctx) const;

  /// Sanitizes, calibrates, and mines every trajectory of `history` into
  /// the miner, the feature map, the trajectory index, and `visits`,
  /// using options().num_threads workers. Each worker handles a
  /// contiguous block of `history`, and each trip's descriptor and segment
  /// features land in its own slot, from which `visits`, the miner and
  /// the feature map are built once, in corpus order: the serial
  /// left-to-right ingest, bit for bit, at every thread count. Only the
  /// per-worker reports are merged (integral counts, so the merge is
  /// exact). Unusable trajectories are quarantined into the report. When
  /// the quarantine fraction exceeds options().max_quarantine_fraction the
  /// error is returned before any model state is built.
  Result<IngestReport> IngestCorpus(const std::vector<RawTrajectory>& history,
                                    VisitCorpus* visits);

  /// Builds the trajectory index over the corpus descriptors (slot i is
  /// trip i). A build failure (the "index/build" failpoint) downgrades to
  /// the scan path with a warning and the `index.build_failures` counter;
  /// it never fails training.
  void BuildTrajectoryIndex(std::vector<TripDescriptor> descriptors);

  /// Exact region-membership test shared by the indexed refine and the
  /// scan fallback: true when the sanitized form of `raw` has a fix inside
  /// `box` (and the window, when given). Trips that fail sanitization are
  /// not part of the retrieval domain.
  bool TripInRegion(const RawTrajectory& raw, const BoundingBox& box,
                    const std::optional<std::pair<double, double>>& window)
      const;

  const RoadNetwork* network_;
  LandmarkIndex* landmarks_;
  FeatureRegistry registry_;
  STMakerOptions options_;
  Calibrator calibrator_;
  std::unique_ptr<FeatureExtractor> extractor_;
  Partitioner partitioner_;
  /// Never null: an empty miner until Train or LoadModelContainer builds
  /// one.
  std::unique_ptr<const PopularRouteMiner> miner_;
  std::unique_ptr<HistoricalFeatureMap> feature_map_;
  std::unique_ptr<IrregularityAnalyzer> analyzer_;
  size_t num_trained_ = 0;
  /// The spatio-temporal trajectory index over the ingested corpus (null =
  /// scan fallback). Built by Train, restored by LoadModelContainer,
  /// dropped with the rest of the model on retrain.
  std::unique_ptr<TrajectoryIndex> trip_index_;
  /// Length-metric road routing facade. The hierarchy (when present) is
  /// attached to the router, which transparently falls back to Dijkstra
  /// for custom cost functions.
  std::unique_ptr<ContractionHierarchy> road_hierarchy_;
  ShortestPathRouter road_router_;
};

/// Rebuilds the road network from a model container's world sections.
/// The CSR adjacency, edge geometry, and edge endpoints alias the mapping
/// zero-copy (RoadNetwork::AdoptMapped), so `container` must outlive the
/// returned network — ModelSnapshot pins it. Section CRCs are verified
/// here (world damage is always fatal: there is no model without a
/// network).
///
/// \param container An open container.
/// \return The network, or kInvalidArgument/kFailedPrecondition naming
///   the damage.
Result<RoadNetwork> LoadNetworkFromContainer(const MappedContainer& container);

/// Rebuilds the landmark dataset — including the persisted significance
/// scores — from a model container. Landmark records are materialized
/// (names are strings), nothing aliases the mapping.
///
/// \param container An open container.
/// \param network The LoadNetworkFromContainer result of the same
///   container (pins the node-id domain).
/// \return The dataset, or kInvalidArgument/kFailedPrecondition naming
///   the damage.
Result<LandmarkIndex> LoadLandmarksFromContainer(
    const MappedContainer& container, const RoadNetwork& network);

/// Copies the serving trajectory corpus out of a model container's
/// kCorpusTrips/kCorpusSamples sections — bit-identical to the corpus
/// SaveModelContainer was given. Both sections are required and
/// CRC-verified, and the trip ranges must tile the samples section
/// contiguously; nothing aliases the mapping.
///
/// \param container An open container.
/// \return The corpus, or kInvalidArgument/kFailedPrecondition naming
///   the damage (a container packed without the corpus sections fails
///   with "missing required section").
Result<std::vector<RawTrajectory>> LoadTrajectoriesFromContainer(
    const MappedContainer& container);

}  // namespace stmaker

#endif  // STMAKER_CORE_STMAKER_H_
