#ifndef STMAKER_INDEX_TRAJECTORY_INDEX_H_
#define STMAKER_INDEX_TRAJECTORY_INDEX_H_

/// \file
/// \brief Grid-bucketed spatio-temporal inverted index over the historical
/// trajectory corpus (DESIGN.md §16).
///
/// Every ingested trip is reduced to a TripDescriptor: its bounding box and
/// time range, the set of grid cells its (sanitized) fixes fall into — each
/// tagged with the coarse time bucket of the visit — the set of landmark
/// labels of its calibrated symbolic sequence, and a feature-sequence
/// fingerprint (the mean of the trip's normalized per-segment feature
/// vectors) for Eq. 3 weighted-cosine scoring. The index inverts those
/// descriptors into posting lists keyed by (grid cell, landmark label,
/// coarse time bucket), where a wildcard marks the dimensions a family does
/// not constrain:
///
///   (cell, *, bucket)  trips with a fix in `cell` during `bucket`
///   (cell, *, *)       trips with a fix in `cell` at any time
///   (*, label, *)      trips whose symbolic sequence visits `label`
///
/// Queries follow the filter-refine pattern: posting lookups produce a
/// candidate id set that provably contains every true result, and an exact
/// pass (cosine re-rank for similarity, raw-sample containment for region
/// retrieval — the latter lives in STMaker, which owns the sanitizer)
/// removes false positives. Results are therefore identical to a brute-force
/// corpus scan, which tests/index_test.cc pins with a differential oracle.
///
/// Determinism: descriptors are built per trip (sharded ingestion writes
/// disjoint slots) and postings are rebuilt by one pass over the
/// descriptors in trip-id order, so the index — and its serialized form —
/// is byte-identical at every thread count. All ranking ties break by
/// ascending trip id.

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/context.h"
#include "common/status.h"
#include "geo/bounding_box.h"
#include "geo/vec2.h"
#include "landmark/landmark.h"
#include "traj/trajectory.h"

namespace stmaker {

/// Index geometry, fixed at build time and persisted with the index so a
/// restored index always agrees with its own postings.
struct TrajectoryIndexOptions {
  /// Grid cell edge length (meters) of the spatial bucketing.
  double cell_m = 250.0;
  /// Coarse time bucket width (seconds) of the temporal bucketing.
  double bucket_s = 3600.0;
};

/// \brief One corpus trip reduced to its index-relevant shape.
///
/// `trip` is the trip's position in the serving corpus. `spatial` is true
/// when the trip sanitized cleanly (bbox/time/cells valid); `scored` when
/// the full calibrate→extract pipeline succeeded as well (labels/
/// fingerprint valid). A quarantined trip keeps its slot — descriptor i is
/// always trip i — but participates in no posting list.
struct TripDescriptor {
  /// Sentinel for descriptors of external (non-corpus) query trajectories.
  static constexpr uint32_t kNoTrip = std::numeric_limits<uint32_t>::max();

  uint32_t trip = kNoTrip;
  bool spatial = false;  ///< bbox, t_begin/t_end, cell_buckets are valid
  bool scored = false;   ///< labels, sequence, fingerprint are valid

  BoundingBox bbox;          ///< over the sanitized raw fixes
  double t_begin = 0;        ///< first fix timestamp
  double t_end = 0;          ///< last fix timestamp
  /// Sorted, unique (grid cell, time bucket) visits of the raw fixes.
  std::vector<std::pair<uint64_t, int64_t>> cell_buckets;
  /// Sorted, unique landmark labels of the symbolic sequence.
  std::vector<LandmarkId> labels;
  /// The ordered symbolic landmark sequence. Train-time only (popular-route
  /// mining and the feature map replay it); not persisted, empty after a
  /// LoadModelContainer restore.
  std::vector<LandmarkId> sequence;
  /// Mean of the normalized per-segment feature vectors (one entry per
  /// registry feature) — the Eq. 3 scoring vector.
  std::vector<double> fingerprint;
};

/// See the file comment. Immutable once built; concurrent const queries
/// are safe.
class TrajectoryIndex {
 public:
  /// One ranked similarity result.
  struct Match {
    uint32_t trip = 0;
    double score = 0;  ///< Eq. 3 weighted cosine in [0, 1]
  };

  /// Builds the posting lists from `descriptors` (descriptor i must carry
  /// trip id i). Failpoint "index/build" injects a build failure so tests
  /// can prove training and serving degrade to the scan path cleanly.
  static Result<TrajectoryIndex> Build(const TrajectoryIndexOptions& options,
                                       std::vector<TripDescriptor> descriptors);

  /// Grid cell key of a point: the packed (floor(x/cell), floor(y/cell))
  /// integer pair.
  static uint64_t CellKey(const Vec2& p, double cell_m);
  /// Coarse time bucket of a timestamp.
  static int64_t BucketOf(double time, double bucket_s);

  /// Builds the spatial half of a descriptor from a sanitized trajectory
  /// (bbox, time range, cell/bucket visits). `scored` stays false.
  static TripDescriptor DescribeSpatial(uint32_t trip,
                                        const RawTrajectory& sanitized,
                                        const TrajectoryIndexOptions& options);

  /// Completes a spatial descriptor with the calibrated labels and the
  /// feature fingerprint (`normalized` is NormalizeSegmentFeatures output,
  /// one vector per segment; the fingerprint is their per-dimension mean).
  static void FinishDescriptor(const SymbolicTrajectory& symbolic,
                               const std::vector<std::vector<double>>& normalized,
                               size_t num_features, TripDescriptor* descriptor);

  const TrajectoryIndexOptions& options() const { return options_; }
  const std::vector<TripDescriptor>& descriptors() const {
    return descriptors_;
  }
  /// Total posting-list entries across every key family (observability).
  size_t num_postings() const { return num_postings_; }

  /// Candidate generation for similarity: the ascending trip ids of every
  /// scored trip sharing at least one grid cell or landmark label with
  /// `query`, excluding `query.trip` itself. This is exactly the
  /// relatedness filter of the retrieval semantics, not an approximation —
  /// the re-rank only orders it.
  std::vector<uint32_t> SimilarCandidates(const TripDescriptor& query) const;

  /// Top-k similar trips: SimilarCandidates scored by the Eq. 3 weighted
  /// cosine of the fingerprints under `weights`, ranked by (score desc,
  /// trip id asc). `ctx` bounds the scan (kDeadlineExceeded).
  Result<std::vector<Match>> SimilarTopK(const TripDescriptor& query,
                                         size_t k,
                                         const std::vector<double>& weights,
                                         const RequestContext* ctx) const;

  /// Candidate generation for region/time-window retrieval: ascending trip
  /// ids of spatial trips with a posting in a grid cell overlapping `box`
  /// (and, with a window, in a bucket overlapping [t0, t1]). A superset of
  /// the true result set — every trip with a fix inside the box posted the
  /// fix's own cell — which the caller refines against raw samples. `ctx`
  /// bounds the enumeration (kDeadlineExceeded): box and window arrive off
  /// the wire, so the probe loops must keep checking the deadline.
  Result<std::vector<uint32_t>> RegionCandidates(const BoundingBox& box,
                                                 bool has_window, double t0,
                                                 double t1,
                                                 const RequestContext* ctx) const;

 private:
  TrajectoryIndex() = default;

  struct PairHash {
    size_t operator()(const std::pair<uint64_t, int64_t>& p) const {
      uint64_t h = p.first * 0x9e3779b97f4a7c15ULL;
      h ^= static_cast<uint64_t>(p.second) + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };

  TrajectoryIndexOptions options_;
  std::vector<TripDescriptor> descriptors_;
  /// (cell, *, *): cell -> ascending trip ids.
  std::unordered_map<uint64_t, std::vector<uint32_t>> cell_postings_;
  /// (cell, *, bucket): (cell, bucket) -> ascending trip ids.
  std::unordered_map<std::pair<uint64_t, int64_t>, std::vector<uint32_t>,
                     PairHash>
      cell_bucket_postings_;
  /// (*, label, *): label -> ascending trip ids.
  std::unordered_map<LandmarkId, std::vector<uint32_t>> label_postings_;
  size_t num_postings_ = 0;
};

}  // namespace stmaker

#endif  // STMAKER_INDEX_TRAJECTORY_INDEX_H_
