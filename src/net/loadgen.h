#ifndef STMAKER_NET_LOADGEN_H_
#define STMAKER_NET_LOADGEN_H_

/// \file
/// \brief Open-loop (Poisson arrival) NDJSON load generator.
///
/// Drives a running TCP serve front-end at a fixed *offered* rate: request
/// send times are drawn from a Poisson process scheduled in advance, and
/// latency is measured from the scheduled arrival time, not the actual
/// send time — so a server that stalls cannot slow the generator down and
/// hide its own queueing delay (the coordinated-omission trap closed-loop
/// clients fall into). The offered load is split over K pipelined
/// keep-alive connections, each an independent Poisson stream at rate/K
/// (their superposition is again Poisson at the full rate).
///
/// Used by `tools/loadgen.cc` (command-line client, HDR-style percentile
/// report) and `tools/chaos.cc` (load during reload storms).

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"

namespace stmaker::net {

/// Load shape and target. Deterministic given `seed` (arrival times; actual
/// latencies of course depend on the server).
struct LoadgenOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Pipelined keep-alive connections sharing the offered load.
  int connections = 4;
  /// Offered arrival rate, requests per second (open loop).
  double rate_qps = 100.0;
  /// How long to offer load, seconds.
  double duration_s = 2.0;
  /// Seed for the arrival-process PRNG.
  uint64_t seed = 1;
  /// Requests cycle "trip" over [0, num_trips).
  size_t num_trips = 1;
  /// Per-request deadline_ms field (0 = omit; the server default applies).
  long deadline_ms = 0;
  /// After the last send, wait this long for straggler responses before
  /// counting them unanswered.
  int drain_timeout_ms = 10'000;
  /// Poll a `stats` probe until the server answers before offering load
  /// (retried connects; scripts need not race the server start).
  bool wait_ready = true;
  int ready_timeout_ms = 30'000;
};

/// Outcome of one load run: counts by wire status plus an HDR-style
/// latency distribution (exact quantiles over all samples).
struct LoadgenReport {
  size_t sent = 0;
  size_t received = 0;
  size_t ok = 0;
  /// Sent but never answered (connection died or drain timeout hit).
  size_t unanswered = 0;
  /// Responses by wire status ("ok", "resource_exhausted", ...).
  std::map<std::string, size_t> by_status;
  /// Connections that failed to establish.
  size_t connect_failures = 0;

  double offered_qps = 0;
  double achieved_qps = 0;  ///< received / wall duration
  double duration_s = 0;    ///< wall clock, first send to last response

  double mean_ms = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  double max_ms = 0;

  /// Multi-line human report (percentile table).
  std::string ToString() const;
  /// One flat JSON object (`tools/loadgen --json`).
  std::string ToJson() const;
};

/// Runs one open-loop load against `options.host:port`. Fails only when no
/// connection could be established (or the readiness probe timed out);
/// per-request failures are reported in the LoadgenReport counts.
Result<LoadgenReport> RunOpenLoopLoad(const LoadgenOptions& options);

}  // namespace stmaker::net

#endif  // STMAKER_NET_LOADGEN_H_
