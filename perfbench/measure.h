// One measured window of a workload against a listening server: warm-up,
// the closed-loop window, and the end-to-end numbers and host-noise record
// derived from it.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "arith.h"
#include "driver.h"

namespace perfbench {

/// One reported number.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Untimed warm-up before every window: caches fill on the same stream.
constexpr double kWarmupS = 2.0;

/// The window is cut into slices of this many seconds, and each window
/// metric is the median of its per-slice values over the quiet slices
/// (QuietSlices, by host steal): a burst of steal spoils only the slices it
/// covers, and a reload every 2 s lands once in each slice.
constexpr int kSliceSeconds = 2;

/// Host steal share up to which a slice or a reload counts as quiet. When
/// fewer than half of a window's slices are, the host record marks the run
/// unresolved.
constexpr double kQuietStealShare = 0.03;

/// Per-verb reservoir sizes for the output checks (per model version).
/// Similar is checked against the full scan, which describes every corpus
/// trip, so its sample stays small. Reload replies are not kept.
KeepPolicy DefaultKeepPolicy(uint64_t seed);

/// Client times of ok reloads, each with the host steal share seen while it
/// ran. `reload_ms` is their median over the quiet ones, chosen as the
/// window metrics choose slices.
struct Reloads {
  std::vector<double> ms;
  std::vector<double> steal;
  double Median() const;
};

struct WindowStats {
  PhaseResult phase;
  Tally tally;              ///< every request of the window, reloads too
  /// The slices the window metrics are taken over (QuietSlices) and the
  /// largest steal share among them.
  std::vector<size_t> quiet_slices;
  double quiet_steal = 0;
  // Medians of the per-slice values over `quiet_slices`.
  double throughput_rps = 0;  ///< ok non-reload replies per second
  double p50_ms = 0;
  double p90_ms = 0;
  double cpu_us_per_req = 0;  ///< server CPU time per ok non-reload reply
  // Over the whole window (diagnostic).
  double p99_ms = 0;
  size_t beyond_p99 = 0;  ///< latency samples above p99
  size_t latency_samples = 0;
  /// Reloads of the window, each with the steal of the slice it was sent
  /// in (the whole window's outside the slices).
  Reloads reloads;
  /// One entry per slice: ok non-reload replies per second, host steal
  /// share, server CPU microseconds per ok reply.
  std::vector<double> slice_rps;
  std::vector<double> slice_p50_ms;
  std::vector<double> slice_p90_ms;
  std::vector<double> slice_steal;
  std::vector<double> slice_cpu_us;
  // Host-noise record and server resources (server_pid > 0 only).
  double rss_peak_mb = 0;
  uint64_t server_nonvoluntary_ctxt = 0;
  double steal_share = 0;
  double driver_cpu_share = 0;
};

/// Connects to `port`, warms up, then runs the workload's window for
/// `seconds`, keeping the replies `keep` samples. `server_pid` (or -1) is
/// the process whose CPU time, context switches and peak RSS are read
/// around the window; `on_window_start` (may be empty) runs between
/// warm-up and window.
bool MeasureWindow(uint16_t port, pid_t server_pid, Workload workload,
                   const WorldFacts& facts, uint64_t seed, double seconds,
                   const KeepPolicy& keep,
                   const std::function<void()>& on_window_start,
                   WindowStats* stats, std::string* error);

/// CRC32 over the first `count` request lines of the workload's stream:
/// the request half of the run's input identity.
uint32_t StreamChecksum(const WorldFacts& facts, Workload workload,
                        uint64_t seed, size_t count);

/// `count` reloads sent one after another on an idle server (the reload_ms
/// figure of workloads that send no reloads), each with the host steal
/// over its own round trip. Failed reloads are added to `tally`.
Reloads IdleReloads(uint16_t port, const WorldFacts& facts, int count,
                    Tally* tally);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
