#ifndef STMAKER_TRAJ_SANITIZE_H_
#define STMAKER_TRAJ_SANITIZE_H_

/// \file
/// Input sanitization: diagnosing and repairing defective raw
/// trajectories (NaNs, time regressions, duplicates, teleports).

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "traj/trajectory.h"

namespace stmaker {

/// What to do with a trajectory that carries defective points.
enum class SanitizePolicy {
  /// Reject the whole trajectory with kInvalidArgument on the first
  /// defective point (ingestion quarantines it; serving surfaces the
  /// error).
  kStrict,
  /// Drop the defective points and mend the trajectory from what is left.
  /// The repaired trajectory may still be too short to calibrate; that is
  /// reported by the calibrator, not here.
  kRepair,
};

/// Per-point defect categories diagnosed by SanitizeTrajectory.
enum class PointIssue {
  kNonFinite = 0,       ///< NaN/Inf coordinate or timestamp.
  kOutOfRange,          ///< Coordinate magnitude beyond max_abs_coord_m.
  kNonMonotonicTime,    ///< Timestamp runs backwards.
  kDuplicate,           ///< Same position and timestamp as the previous fix.
  kTeleport,            ///< Speed spike beyond max_speed_mps (GPS jump).
};
inline constexpr size_t kNumPointIssues = 5;

/// Human-readable issue name ("non-finite", "teleport", ...).
const char* PointIssueName(PointIssue issue);

/// One diagnosed defect: which sample, and what is wrong with it.
struct PointDiagnostic {
  size_t index = 0;
  PointIssue issue = PointIssue::kNonFinite;
};

struct SanitizeOptions {
  SanitizePolicy policy = SanitizePolicy::kRepair;
  /// Coordinates are projected meters; anything beyond this magnitude (or
  /// non-finite) cannot be a real fix. 10,000 km covers any local
  /// projection.
  double max_abs_coord_m = kMaxAbsCoordM;
  /// Speed above which a jump is a GPS teleport, not driving. 90 m/s =
  /// 324 km/h. Non-positive disables the teleport check.
  double max_speed_mps = 90.0;
  /// Displacement is judged over at least this window: a point teleports
  /// when dist > max_speed_mps * max(dt, min_speed_dt_s). Sub-second
  /// sampling jitter (two fixes milliseconds apart a few metres from each
  /// other) is not an infinite-speed jump.
  double min_speed_dt_s = 1.0;
  /// Cap on stored per-point diagnostics (counts are always exact).
  size_t max_diagnostics = 32;
};

/// \brief Outcome of one sanitization pass: exact per-issue counts plus the
/// first few per-point diagnostics for logs and reports.
struct SanitizeReport {
  size_t total_points = 0;
  size_t dropped_points = 0;  ///< kRepair: removed; kStrict: offending.
  std::array<size_t, kNumPointIssues> issue_counts{};
  std::vector<PointDiagnostic> diagnostics;  ///< First max_diagnostics.

  bool clean() const { return dropped_points == 0; }
  size_t count(PointIssue issue) const {
    return issue_counts[static_cast<size_t>(issue)];
  }
  /// "3/120 points dropped (non-finite: 1, teleport: 2)" — empty counts
  /// omitted; "clean" when nothing was wrong.
  std::string ToString() const;
};

/// \brief Validates (and under kRepair, mends) one raw trajectory.
///
/// The pass walks the samples once, diagnosing non-finite values,
/// out-of-range coordinates, backwards timestamps, exact duplicates, and
/// speed-spike teleports — each relative to the last *accepted* point, so a
/// single bad fix never poisons its neighbours. Under kStrict any defect
/// fails with kInvalidArgument naming the first offending sample; under
/// kRepair defective points are dropped and the surviving sequence is
/// returned. `report`, when non-null, is always filled (also on failure).
///
/// A clean trajectory is returned unchanged (bit-identical), so running
/// sanitization on well-formed corpora never changes downstream results.
Result<RawTrajectory> SanitizeTrajectory(const RawTrajectory& raw,
                                         const SanitizeOptions& options,
                                         SanitizeReport* report = nullptr);

}  // namespace stmaker

#endif  // STMAKER_TRAJ_SANITIZE_H_
