// The benchmark's own arithmetic: percentiles, failure accounting, /proc
// parsing, span self time and residuals. Pure functions, unit-tested by
// arith_test.cc, so every reported number has one definition.
#ifndef PERFBENCH_ARITH_H_
#define PERFBENCH_ARITH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are <= it (p in (0, 100]). Always returns one of
/// the samples, never an interpolation. NaN for an empty input.
double Percentile(std::vector<double> values, double p);

/// Percentile(values, 50).
double Median(std::vector<double> values);

/// Indices, ascending, of the slices of a window (or of the reloads) that
/// a metric is the median over: every one whose host steal share is at
/// most `quiet_steal` when that is at least half of them, else the half
/// with the least steal (the earlier one wins a tie). Chosen by what the
/// host reports, never by the metric's own value.
std::vector<size_t> QuietSlices(const std::vector<double>& steal,
                                double quiet_steal);

/// Median of `values` at `indices`.
double MedianAt(const std::vector<double>& values,
                const std::vector<size_t>& indices);

/// Reservoir sampling (Algorithm R) of `cap` items: where the `seen`-th
/// item offered (counting from 1) goes, given a uniform random `draw`.
/// The first `cap` items fill slots 0..cap-1; a later one replaces slot
/// `draw % seen` when that is below `cap` and is dropped (nullopt)
/// otherwise, so the kept items are a uniform sample of everything
/// offered.
std::optional<size_t> ReservoirSlot(uint64_t seen, size_t cap, uint64_t draw);

/// How one request ended, as the failure accounting sees it.
enum class Outcome { kOk, kNotOk, kMissing };

/// The `"model_version": N` an ok reply echoes (the snapshot that served
/// it), or 0 when the reply has none.
uint64_t ModelVersionOf(std::string_view reply);

/// Classifies one reply line: "ok" status is kOk; any other status
/// (not_found, deadline_exceeded, ...) or an unparseable line is kNotOk.
Outcome ClassifyReply(std::string_view reply);

/// Requests attempted and how they ended. A request fails when its reply
/// was not ok or never arrived.
struct Tally {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t not_ok = 0;
  uint64_t missing = 0;

  void Add(Outcome outcome);
  uint64_t failed() const { return not_ok + missing; }
};

/// utime + stime in clock ticks from the content of /proc/<pid>/stat
/// (fields 14 and 15). The command name may hold spaces and parentheses,
/// so fields are counted from the last ')'. nullopt when malformed.
std::optional<uint64_t> ParseProcStatCpuTicks(std::string_view stat);

/// CPU seconds between two tick readings (nullopt when the counter went
/// backwards, i.e. the readings are from different processes).
std::optional<double> CpuSecondsDelta(uint64_t before_ticks,
                                      uint64_t after_ticks,
                                      long ticks_per_second);

/// The aggregate "cpu" line of /proc/stat: total jiffies and steal.
struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;
};
std::optional<HostCpu> ParseProcStatHostCpu(std::string_view proc_stat);

/// Share of host CPU time stolen by the hypervisor between two readings.
double StealShare(const HostCpu& before, const HostCpu& after);

/// Value of a "Key:  123 kB"-style line of /proc/<pid>/status
/// (VmHWM, nonvoluntary_ctxt_switches, ...).
std::optional<uint64_t> ParseStatusField(std::string_view status,
                                         std::string_view key);

/// One timed interval. Spans of one request share `request`; `parent` is
/// the index of the enclosing span in the same log, or -1 for a root.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint64_t request = 0;
};

/// Self time of spans[index]: its duration minus the part of its interval
/// covered by its children (the union of their intervals, clipped to the
/// parent), so overlapping children are not counted twice.
int64_t SelfTimeNs(const std::vector<Span>& spans, size_t index);

/// The unattributed residual: total minus the sum of its parts. Reported
/// with its sign; a negative value means the parts were timed slower than
/// the whole.
double Residual(double total, const std::vector<double>& parts);

}  // namespace perfbench

#endif  // PERFBENCH_ARITH_H_
