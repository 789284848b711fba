#ifndef STMAKER_TRAJ_CALIBRATION_H_
#define STMAKER_TRAJ_CALIBRATION_H_

/// \file
/// Anchor-based trajectory calibration (Def. 2/3): rewriting raw fixes
/// into landmark sequences, sampling-rate invariant.

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/context.h"
#include "common/lru_cache.h"
#include "common/status.h"
#include "geo/polyline.h"
#include "landmark/landmark_index.h"
#include "traj/trajectory.h"

namespace stmaker {

/// Calibration parameters (anchor-based rewriting, Su et al. SIGMOD'13 [31]).
struct CalibrationOptions {
  /// A landmark is an anchor of the trajectory when its distance to the
  /// trajectory polyline is at most this.
  double anchor_radius_m = 120.0;
  /// Minimum arc-length spacing between consecutive anchors; when two
  /// anchors crowd each other the geometrically closer one wins (ties by
  /// significance).
  double min_spacing_m = 80.0;
  /// Step of the polyline walk used to collect candidate landmarks; must be
  /// positive and is independent of the trajectory's sampling rate, which is
  /// what makes calibration sampling-invariant.
  double scan_step_m = 50.0;
  /// Entries of the bounded LRU memoizing whole calibrations (anchor
  /// collection — the per-segment landmark box queries and the
  /// landmark/segment join — is most of the cost), keyed by exact
  /// trajectory content; 0 disables caching. Train-then-summarize
  /// workloads calibrate the same trajectories twice, and repeated
  /// Summarize of popular trips hits too.
  /// The cache never changes results — exact key, exact replay — and is
  /// safe under concurrent Calibrate calls. Internally it is sharded by
  /// key hash (capacity split across shards) so that parallel ingestion of
  /// distinct trajectories does not serialize on one lock.
  size_t cache_size = 256;
};

/// \brief A calibrated trajectory: the symbolic rewriting plus the geometry
/// needed by downstream feature extraction.
///
/// `arc_positions[i]` is the arc-length position of symbolic.samples[i]
/// along the raw polyline (non-decreasing in i); SegmentSampleRanges()
/// selects the raw fixes that belong to each segment i (between landmarks
/// i and i+1).
struct CalibratedTrajectory {
  SymbolicTrajectory symbolic;
  std::vector<double> arc_positions;
  RawTrajectory raw;
  Polyline geometry;

  size_t NumSegments() const { return symbolic.NumSegments(); }

  /// For every segment i, in order, the half-open index range
  /// [first, last) of raw samples whose arc position lies within segment i,
  /// widened to include the bracketing fixes so that speeds at the
  /// boundaries are well-defined. One forward sweep over the fixes: both
  /// ends only move forward because arc_positions is non-decreasing.
  std::vector<std::pair<size_t, size_t>> SegmentSampleRanges() const;

  /// Interval [t_i, t_{i+1}] of segment i.
  std::pair<double, double> SegmentTimeSpan(size_t i) const;

  /// Geometric length of segment i along the raw polyline, meters.
  double SegmentLength(size_t i) const;
};

/// \brief Anchor-based trajectory calibrator (Def. 2/3 pipeline).
///
/// Rewrites a raw trajectory into a landmark sequence: the landmarks within
/// the anchor radius of a fixed-step walk along the raw polyline, ordered by
/// their projections' arc length, with crowded anchors thinned and visit
/// timestamps interpolated from the raw fix times. The anchors are found in
/// one pass, one landmark box query per polyline segment (DESIGN.md §13).
/// Different samplings of the same route produce the same symbolic
/// trajectory (the paper's motivating requirement, Fig. 2).
class Calibrator {
 public:
  /// `landmarks` must outlive the calibrator.
  explicit Calibrator(const LandmarkIndex* landmarks,
                      const CalibrationOptions& options =
                          CalibrationOptions());
  ~Calibrator();
  Calibrator(Calibrator&&) noexcept;
  Calibrator& operator=(Calibrator&&) noexcept;

  /// Calibrates one trajectory. Fails with InvalidArgument for trajectories
  /// with fewer than 2 samples or non-monotonic timestamps, and with
  /// NotFound when fewer than two anchors are within reach (nothing to
  /// describe). Thread-safe: concurrent calls share the (mutex-guarded)
  /// calibration cache.
  ///
  /// NOTE: results are memoized against the landmark set as-is, positions
  /// and significance both: anchor thinning breaks exact distance ties by
  /// significance, so a memoized result can go stale when significance
  /// changes. Whoever changes either must drop the calibrator (and with it
  /// the cache); STMaker builds a fresh one after every significance
  /// recompute.
  ///
  /// With a context, the polyline scan checks the deadline/cancel token
  /// periodically and aborts with kDeadlineExceeded/kCancelled; those
  /// statuses are never memoized (they describe the request, not the
  /// trajectory), so a later call with a fresh context recomputes.
  Result<CalibratedTrajectory> Calibrate(
      const RawTrajectory& raw, const RequestContext* ctx = nullptr) const;

  /// Hit/miss/eviction counters of the calibration cache; all-zero when
  /// disabled.
  CacheStats Stats() const;

 private:
  struct Cache;  // defined in calibration.cc

  Result<CalibratedTrajectory> CalibrateUncached(
      const RawTrajectory& raw, const RequestContext* ctx) const;

  const LandmarkIndex* landmarks_;
  CalibrationOptions options_;
  std::unique_ptr<Cache> cache_;  ///< null when cache_size == 0
};

}  // namespace stmaker

#endif  // STMAKER_TRAJ_CALIBRATION_H_
