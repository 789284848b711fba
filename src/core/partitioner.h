#ifndef STMAKER_CORE_PARTITIONER_H_
#define STMAKER_CORE_PARTITIONER_H_

/// \file
/// MAP inference for the chain-CRF trajectory partition model (Sec. IV).

#include <cstddef>
#include <utility>
#include <vector>

#include "common/context.h"
#include "common/status.h"

namespace stmaker {

/// Partitioning parameters. `ca` is the positive constant C_a of Eq. 2
/// weighting landmark significance against segment similarity; `k` requests
/// a fixed number of partitions (Sec. IV-D), with k = 0 meaning the
/// unconstrained global optimum (Sec. IV-C).
struct PartitionOptions {
  double ca = 0.5;
  int k = 0;
};

/// The chosen partition: `partitions[p]` is the half-open segment-index
/// range [begin, end) of partition p; ranges are contiguous, disjoint, and
/// cover all segments (Def. 5). `score` is the minimized CRF potential
/// (lower is better).
struct PartitionResult {
  std::vector<std::pair<size_t, size_t>> partitions;
  double score = 0;
};

/// \brief MAP inference for the chain CRF partition model (Sec. IV).
///
/// The model labels each trajectory segment; a boundary between consecutive
/// segments i-1 and i either cuts (cost -C_a * l_i.s, where l_i is the
/// shared interior landmark) or merges (cost -S(TS_{i-1}, TS_i)). Dynamic
/// programming solves both the unconstrained optimum (Eq. 4) and the
/// k-partition variant (Eq. 5 / Algorithm 1), here with full traceback so
/// callers get the actual boundaries, not just the score.
class Partitioner {
 public:
  /// `similarities[i]` = S(TS_i, TS_{i+1}) for i in [0, n-2] and
  /// `interior_significance[i]` = significance of the landmark shared by
  /// segments i and i+1. Both must have length n-1 where n = number of
  /// segments (n >= 1). Fails when k exceeds n or inputs mismatch.
  ///
  /// With a context, the DP rows check the deadline periodically and
  /// abort with kDeadlineExceeded.
  Result<PartitionResult> Partition(
      const std::vector<double>& similarities,
      const std::vector<double>& interior_significance,
      const PartitionOptions& options,
      const RequestContext* ctx = nullptr) const;
};

}  // namespace stmaker

#endif  // STMAKER_CORE_PARTITIONER_H_
