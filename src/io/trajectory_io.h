#ifndef STMAKER_IO_TRAJECTORY_IO_H_
#define STMAKER_IO_TRAJECTORY_IO_H_

/// \file
/// CSV persistence for raw trajectory corpora.

#include <string>
#include <vector>

#include "common/status.h"
#include "traj/trajectory.h"

namespace stmaker {

/// \brief CSV persistence for raw trajectory corpora.
///
/// Format (one fix per row, header included):
///   trajectory_id,traveler,x,y,time
/// with positions in projected meters and time in absolute seconds.
/// Trajectories are grouped by contiguous runs of trajectory_id; ids need
/// not be dense but must not interleave.
Status WriteTrajectoriesCsv(const std::string& path,
                            const std::vector<RawTrajectory>& trajectories);

/// Reads a corpus written by WriteTrajectoriesCsv, parsing rows as they
/// stream out of the file (peak memory: the file text plus the corpus).
/// Fails on malformed rows, missing header, non-numeric fields, or
/// interleaved trajectory ids.
Result<std::vector<RawTrajectory>> ReadTrajectoriesCsv(
    const std::string& path);

}  // namespace stmaker

#endif  // STMAKER_IO_TRAJECTORY_IO_H_
