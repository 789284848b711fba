#include "measure.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/crc32.h"
#include "system.h"

namespace perfbench {

KeepPolicy DefaultKeepPolicy(uint64_t seed) {
  KeepPolicy keep;
  keep.seed = seed;
  keep.cap[static_cast<size_t>(Verb::kSummarize)] = 128;
  keep.cap[static_cast<size_t>(Verb::kSimilar)] = 4;
  keep.cap[static_cast<size_t>(Verb::kQuery)] = 32;
  keep.cap[static_cast<size_t>(Verb::kRoute)] = 256;
  return keep;
}

namespace {

/// Request connections of every workload: 16 requests in flight keep a
/// queue in front of the server's 2 workers, which absorbs a stalled vCPU
/// anywhere on a request's path, where with 2-4 a single stall idled the
/// workers. On a shared 4-vCPU virtual machine without host steal,
/// per-slice throughput varied by 5-11% with 4 connections and by 3-5%
/// with 16.
constexpr int kConnections = 16;

uint64_t StreamSeed(uint64_t seed, Workload workload) {
  return seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(workload) + 1;
}

}  // namespace

bool MeasureWindow(uint16_t port, pid_t server_pid, Workload workload,
                   const WorldFacts& facts, uint64_t seed, double seconds,
                   const KeepPolicy& keep,
                   const std::function<void()>& on_window_start,
                   WindowStats* stats, std::string* error) {
  ClosedLoop loop;
  const bool reloads = workload == Workload::kReload;
  if (!loop.Connect(port, kConnections, reloads)) {
    *error = "cannot connect to the server";
    return false;
  }
  RequestStream stream(&facts, StreamSeed(seed, workload),
                       WorkloadMix(workload), 1);
  loop.Run(stream, kWarmupS, nullptr, KeepPolicy{});
  if (on_window_start) on_window_start();

  const double driver_before = ThreadCpuSeconds();

  ReloadSchedule schedule;
  Rng rng(seed ^ 0x72656c6f6164ULL);
  schedule.offset_s = 0.25 + rng.Unit();
  struct Tick {
    int64_t ns = 0;
    std::optional<HostCpu> host;
    std::optional<ProcessSample> proc;
  };
  std::vector<Tick> ticks;
  auto sample = [&] {
    Tick t;
    t.ns = NowNs();
    t.host = SampleHost();
    if (server_pid > 0) t.proc = SampleProcess(server_pid);
    ticks.push_back(t);
  };
  sample();
  if (server_pid > 0 && !ticks.front().proc) {
    *error = "cannot read /proc for the server";
    return false;
  }
  stats->phase = loop.Run(stream, seconds, reloads ? &schedule : nullptr,
                          keep, sample);

  const double driver_after = ThreadCpuSeconds();
  std::optional<HostCpu> host_after = SampleHost();
  std::optional<ProcessSample> proc_after;
  if (server_pid > 0) proc_after = SampleProcess(server_pid);

  const PhaseResult& phase = stats->phase;
  std::vector<double> latencies;
  for (const Record& r : phase.records) {
    stats->tally.Add(r.outcome);
    if (r.outcome == Outcome::kOk && r.verb != Verb::kReload) {
      latencies.push_back(r.latency_ms());
    }
  }
  // Slices of kSliceSeconds between the per-second samples.
  const size_t num_slices = (ticks.size() - 1) / kSliceSeconds;
  if (num_slices == 0) {
    *error = "the window is shorter than one slice";
    return false;
  }
  std::vector<int64_t> bounds;
  for (size_t j = 0; j <= num_slices; ++j) {
    bounds.push_back(ticks[j * kSliceSeconds].ns);
  }
  std::vector<std::vector<double>> slice_latency(num_slices);
  for (const Record& r : phase.records) {
    if (r.outcome != Outcome::kOk || r.verb == Verb::kReload) continue;
    auto after = std::upper_bound(bounds.begin(), bounds.end(), r.recv_ns);
    if (after == bounds.begin() || after == bounds.end()) continue;
    slice_latency[static_cast<size_t>(after - bounds.begin()) - 1].push_back(
        r.latency_ms());
  }
  for (size_t j = 0; j < num_slices; ++j) {
    const Tick& a = ticks[j * kSliceSeconds];
    const Tick& b = ticks[(j + 1) * kSliceSeconds];
    const double ok = static_cast<double>(slice_latency[j].size());
    if (ok == 0) {
      *error = "a slice of the window had no ok reply";
      return false;
    }
    stats->slice_rps.push_back(ok / ((b.ns - a.ns) * 1e-9));
    stats->slice_p50_ms.push_back(Percentile(slice_latency[j], 50));
    stats->slice_p90_ms.push_back(Percentile(slice_latency[j], 90));
    // Without /proc/stat every slice counts as quiet.
    stats->slice_steal.push_back(a.host && b.host ? StealShare(*a.host, *b.host)
                                                  : 0.0);
    if (server_pid > 0) {
      std::optional<double> cpu_s;
      if (a.proc && b.proc) {
        cpu_s = CpuSecondsDelta(a.proc->cpu_ticks, b.proc->cpu_ticks,
                                sysconf(_SC_CLK_TCK));
      }
      if (!cpu_s) {
        *error = "cannot read the server's CPU time from /proc";
        return false;
      }
      stats->slice_cpu_us.push_back(*cpu_s * 1e6 / ok);
    }
  }
  stats->latency_samples = latencies.size();
  stats->quiet_slices = QuietSlices(stats->slice_steal, kQuietStealShare);
  for (size_t j : stats->quiet_slices) {
    stats->quiet_steal = std::max(stats->quiet_steal, stats->slice_steal[j]);
  }
  stats->throughput_rps = MedianAt(stats->slice_rps, stats->quiet_slices);
  stats->p50_ms = MedianAt(stats->slice_p50_ms, stats->quiet_slices);
  stats->p90_ms = MedianAt(stats->slice_p90_ms, stats->quiet_slices);
  if (server_pid > 0) {
    stats->cpu_us_per_req = MedianAt(stats->slice_cpu_us, stats->quiet_slices);
  }
  stats->p99_ms = Percentile(latencies, 99);
  stats->beyond_p99 = static_cast<size_t>(
      std::count_if(latencies.begin(), latencies.end(),
                    [&](double v) { return v > stats->p99_ms; }));
  const double wall_s = (phase.end_ns - phase.start_ns) * 1e-9;
  stats->driver_cpu_share = (driver_after - driver_before) / wall_s;
  if (ticks.front().host && host_after) {
    stats->steal_share = StealShare(*ticks.front().host, *host_after);
  }
  for (const Record& r : phase.records) {
    if (r.outcome != Outcome::kOk || r.verb != Verb::kReload) continue;
    auto after = std::upper_bound(bounds.begin(), bounds.end(), r.send_ns);
    const bool in_slice = after != bounds.begin() && after != bounds.end();
    stats->reloads.ms.push_back(r.latency_ms());
    stats->reloads.steal.push_back(
        in_slice ? stats->slice_steal[static_cast<size_t>(
                                          after - bounds.begin()) - 1]
                 : stats->steal_share);
  }
  if (server_pid > 0) {
    if (!proc_after) {
      *error = "cannot read /proc for the server";
      return false;
    }
    stats->rss_peak_mb = static_cast<double>(proc_after->vm_hwm_kb) / 1024.0;
    stats->server_nonvoluntary_ctxt =
        proc_after->nonvoluntary_ctxt - ticks.front().proc->nonvoluntary_ctxt;
  }
  return true;
}

uint32_t StreamChecksum(const WorldFacts& facts, Workload workload,
                        uint64_t seed, size_t count) {
  RequestStream stream(&facts, StreamSeed(seed, workload),
                       WorkloadMix(workload), 1);
  uint32_t crc = 0;
  for (size_t i = 0; i < count; ++i) {
    crc = stmaker::Crc32(stream.Next().line, crc);
  }
  return crc;
}

double Reloads::Median() const {
  return MedianAt(ms, QuietSlices(steal, kQuietStealShare));
}

Reloads IdleReloads(uint16_t port, const WorldFacts& facts, int count,
                    Tally* tally) {
  Reloads out;
  int fd = ConnectLoopback(port);
  RequestStream admin(&facts, 0, SingleVerbMix(Verb::kSummarize), 1ULL << 40);
  for (int i = 0; i < count; ++i) {
    Request r = admin.NextReload();
    const std::optional<HostCpu> before = SampleHost();
    const int64_t start = NowNs();
    std::optional<std::string> reply =
        fd >= 0 ? RoundTrip(fd, r.line, 60'000) : std::nullopt;
    const int64_t end = NowNs();
    const std::optional<HostCpu> after = SampleHost();
    Outcome outcome = reply ? ClassifyReply(*reply) : Outcome::kMissing;
    tally->Add(outcome);
    if (outcome != Outcome::kOk) continue;
    out.ms.push_back((end - start) * 1e-6);
    out.steal.push_back(before && after ? StealShare(*before, *after) : 0.0);
  }
  if (fd >= 0) close(fd);
  return out;
}

}  // namespace perfbench
