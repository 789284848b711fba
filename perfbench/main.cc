// Serving benchmark for STMaker (see METRICS.md).
//
//   perfbench --workload summarize|retrieve|reload --seed N --seconds S
//             --trace 0|1 --root CHECKOUT --cli PATH/stmaker_cli
//
// Generates a world from the seed, times train + pack + serve start-up,
// drives the running `stmaker_cli serve --port` with a closed-loop NDJSON
// stream, checks sampled replies against the library, and prints one JSON
// result as the last line of stdout. With --trace 1 it adds the traced
// in-process run and reports per-layer metrics instead of end-to-end ones.
// Exit code 0 only for a complete run with every check passing.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "arith.h"
#include "checks.h"
#include "common/crc32.h"
#include "driver.h"
#include "measure.h"
#include "system.h"
#include "traced.h"

namespace perfbench {
namespace {

constexpr int kSetupRuns = 3;
constexpr int kIdleReloads = 9;
constexpr size_t kRoutePairs = 1024;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string root;
  std::string cli;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (key == "--root") {
      args->root = value;
    } else if (key == "--cli") {
      args->cli = value;
    } else {
      return false;
    }
  }
  return ParseWorkload(args->workload).has_value() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1) && !args->root.empty() &&
         !args->cli.empty();
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  return 1;
}

/// Removes the run's working directory however the run ends.
struct WorkDir {
  std::string path;
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// One timed set-up: train, pack, then serve until the first ok stats.
struct SetupTimes {
  double train_s = 0;
  double pack_s = 0;
  double coldstart_s = 0;
  double total_s() const { return train_s + pack_s + coldstart_s; }
};

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Fail(
        "usage: perfbench --workload summarize|retrieve|reload --seed N "
        "--seconds S --trace 0|1 --root DIR --cli STMAKER_CLI");
  }
  const Workload workload = *ParseWorkload(args.workload);
  const std::string seed = std::to_string(args.seed);
  WorkDir work{args.root + "/.bench_work/" + args.workload + "-" +
                     seed + "-" + std::to_string(getpid())};
  const std::string& dir = work.path;
  std::filesystem::create_directories(dir);
  const std::string log = dir + "/programs.log";
  const std::string model = dir + "/model.stm";

  // Inputs (untimed): the world and corpus come from the seed alone.
  if (RunToCompletion({args.cli, "gen", "--dir", dir, "--seed", seed,
                       "--blocks", "20", "--trips", "3000", "--pois", "500"},
                      log) != 0) {
    return Fail("gen failed; see " + log);
  }
  uint32_t input_crc = 0;
  for (const char* file : {"network_nodes.csv", "network_edges.csv",
                           "pois.csv", "trajectories.csv"}) {
    std::optional<std::string> bytes = ReadFile(dir + "/" + file);
    if (!bytes) return Fail(std::string("missing generated ") + file);
    input_crc = stmaker::Crc32(*bytes, input_crc);
  }

  // Set-up, timed several times; the last server stays up for the window.
  std::vector<SetupTimes> setups;
  ServerProcess server;
  for (int run = 0; run < kSetupRuns; ++run) {
    server.Stop();  // the previous server must not compete with this set-up
    SetupTimes t;
    int64_t start = NowNs();
    if (RunToCompletion({args.cli, "train", "--dir", dir, "--model",
                         dir + "/m", "--threads", "2"},
                        log) != 0) {
      return Fail("train failed; see " + log);
    }
    t.train_s = (NowNs() - start) * 1e-9;
    start = NowNs();
    if (RunToCompletion({args.cli, "pack", "--dir", dir, "--model",
                         dir + "/m", "--out", model},
                        log) != 0) {
      return Fail("pack failed; see " + log);
    }
    t.pack_s = (NowNs() - start) * 1e-9;
    start = NowNs();
    if (!server.Start({args.cli, "serve", "--dir", dir, "--model", model,
                       "--threads", "2", "--listen_threads", "1", "--port",
                       "0"},
                      dir + "/serve.log", 120'000)) {
      return Fail("server did not become ready; see " + dir + "/serve.log");
    }
    t.coldstart_s = (NowNs() - start) * 1e-9;
    setups.push_back(t);
  }
  auto setup_median = [&](double (*pick)(const SetupTimes&)) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(pick(t));
    return Median(v);
  };

  // The reference copy answers the output checks through the scan path.
  std::string error;
  std::unique_ptr<LoadedModel> reference = LoadModel(model, dir, &error);
  if (!reference) return Fail("reference model: " + error);
  const WorldFacts facts = BuildFacts(*reference, args.seed, kRoutePairs,
                                      std::filesystem::absolute(model));

  WindowStats stats;
  if (!MeasureWindow(server.port(), server.pid(), workload, facts, args.seed,
                     args.seconds, DefaultKeepPolicy(args.seed), {}, &stats,
                     &error)) {
    return Fail(error);
  }
  Tally tally = stats.tally;
  Reloads reloads = stats.reloads;
  if (workload != Workload::kReload) {
    reloads = IdleReloads(server.port(), facts, kIdleReloads, &tally);
  }
  server.Stop();
  if (reloads.ms.empty()) return Fail("no reload succeeded");

  TracedResult traced;
  if (args.trace == 1) {
    if (!RunTraced(model, dir, workload, *reference, facts, args.seed,
                   args.seconds, stats, &traced, &error)) {
      return Fail("traced run: " + error);
    }
    tally.attempted += traced.tally.attempted;
    tally.ok += traced.tally.ok;
    tally.not_ok += traced.tally.not_ok;
    tally.missing += traced.tally.missing;
  }
  reference->maker->DropTrajectoryIndex();
  CheckReport checks;
  CheckReplies(*reference, facts, stats.phase.kept, &checks);
  // Before the traced replies: its server numbers its versions afresh.
  CheckVersionCoverage(stats.phase.records, &checks);
  CheckReplies(*reference, facts, traced.kept, &checks);

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"setup_s",
         setup_median([](const SetupTimes& t) { return t.total_s(); }), "s"},
        {"throughput_rps", stats.throughput_rps, "req/s"},
        {"p50_ms", stats.p50_ms, "ms"},
        {"p90_ms", stats.p90_ms, "ms"},
        {"cpu_us_per_req", stats.cpu_us_per_req, "us"},
        {"rss_peak_mb", stats.rss_peak_mb, "MB"},
        {"reload_ms", reloads.Median(), "ms"},
    };
  } else {
    metrics = traced.metrics;
    metrics.push_back(
        {"setup.train_s",
         setup_median([](const SetupTimes& t) { return t.train_s; }), "s"});
    metrics.push_back(
        {"setup.pack_s",
         setup_median([](const SetupTimes& t) { return t.pack_s; }), "s"});
    metrics.push_back(
        {"setup.coldstart_s",
         setup_median([](const SetupTimes& t) { return t.coldstart_s; }),
         "s"});
    metrics.push_back({"host.steal_share", stats.steal_share, "ratio"});
    metrics.push_back({"host.nproc",
                       static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)),
                       "count"});
    metrics.push_back({"host.server_nonvoluntary_ctxt",
                       static_cast<double>(stats.server_nonvoluntary_ctxt),
                       "count"});
    metrics.push_back({"host.driver_cpu_share", stats.driver_cpu_share,
                       "ratio"});
  }

  // Human-readable record first; the JSON result is the last line.
  std::printf("input: seed %s; crc32 %08x over the generated world and "
              "corpus (%zu trips); crc32 %08x over the first 1000 requests; "
              "%zu route pairs\n",
              seed.c_str(), input_crc, facts.num_trips,
              StreamChecksum(facts, workload, args.seed, 1000),
              facts.routes.size());
  std::printf("host: nproc %ld, steal share %.4f, server involuntary context "
              "switches %llu, driver CPU share %.3f%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), stats.steal_share,
              static_cast<unsigned long long>(stats.server_nonvoluntary_ctxt),
              stats.driver_cpu_share,
              stats.driver_cpu_share > 0.9
                  ? " (driver-bound: the generator, not the server, sets "
                    "throughput)"
                  : "");
  std::printf("quiet slices:");
  for (size_t j : stats.quiet_slices) std::printf(" %zu", j);
  std::printf(" of %zu, steal at most %.4f%s\n", stats.slice_steal.size(),
              stats.quiet_steal,
              stats.quiet_steal > kQuietStealShare
                  ? " (unresolved: fewer than half of the slices were "
                    "quiet, so its times are the host's, not the "
                    "program's)"
                  : "");
  std::printf("window: %zu latency samples, p99 %.3f ms with %zu beyond; "
              "reloads (ms):",
              stats.latency_samples, stats.p99_ms, stats.beyond_p99);
  for (size_t i = 0; i < reloads.ms.size(); ++i) {
    std::printf(" %.1f (steal %.2f)", reloads.ms[i], reloads.steal[i]);
  }
  std::printf("\nper %d s slice: req/s", kSliceSeconds);
  for (double v : stats.slice_rps) std::printf(" %.0f", v);
  std::printf("; p50 ms");
  for (double v : stats.slice_p50_ms) std::printf(" %.4f", v);
  std::printf("; p90 ms");
  for (double v : stats.slice_p90_ms) std::printf(" %.4f", v);
  std::printf("; steal");
  for (double v : stats.slice_steal) std::printf(" %.2f", v);
  std::printf("; server cpu us/req");
  for (double v : stats.slice_cpu_us) std::printf(" %.0f", v);
  std::printf("\n");
  std::printf("checks: %zu replies compared, %zu mismatches\n",
              checks.checked, checks.mismatches);
  for (const std::string& message : checks.messages) {
    std::printf("  mismatch: %s\n", message.c_str());
  }
  bool finite = true;
  for (const Metric& metric : metrics) {
    std::printf("  %-32s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
    finite = finite && std::isfinite(metric.value);
  }
  if (!finite) return Fail("a metric has no finite value");

  if (args.trace == 1) {
    // Spans are kept in memory during the run and written once, here.
    const std::string out_dir = args.root + "/.bench_out";
    std::filesystem::create_directories(out_dir);
    const std::string path =
        out_dir + "/spans-" + args.workload + "-" + seed + ".ndjson";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      for (const Span& s : traced.spans) {
        std::fprintf(f,
                     "{\"name\": \"%s\", \"request\": %llu, \"parent\": %d, "
                     "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                     s.name.c_str(), static_cast<unsigned long long>(s.request),
                     s.parent, static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
      }
      std::fclose(f);
    }
  }

  const bool correct = checks.mismatches == 0 && checks.checked > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
