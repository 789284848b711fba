// The traced run: the same seeded stream served by an in-process server
// (ModelManager + NdjsonService + TcpServer, as the CLI wires them) behind
// a timing handler wrapper, then a sequential replay of sampled requests
// through each layer's public entry point. Yields the per-layer metrics.
#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <string>
#include <utility>
#include <vector>

#include "arith.h"
#include "checks.h"
#include "driver.h"
#include "measure.h"

namespace perfbench {

struct TracedResult {
  std::vector<Metric> metrics;
  /// Replies to check, within DefaultKeepPolicy's caps.
  std::vector<std::pair<Request, std::string>> kept;
  Tally tally;
  /// Every span of the replay and of the sampled window requests.
  std::vector<Span> spans;
};

/// `untraced` is the same workload's window against the CLI server; the
/// tracing overhead is the difference to it. `twin` is a second copy of
/// the model whose pieces the replay times stage by stage, after warming
/// its caches with the summaries the served copy last answered.
bool RunTraced(const std::string& model_path, const std::string& data_dir,
               Workload workload, const LoadedModel& twin,
               const WorldFacts& facts, uint64_t seed, double seconds,
               const WindowStats& untraced, TracedResult* out,
               std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
