// Operational throughput of the parallel train/serve pipeline (not a paper
// figure, but the numbers a deployment needs): a thread sweep of corpus
// ingestion (Train) and batch summarization (SummarizeBatch), per-stage
// serving latencies (calibration cold/cached, feature extraction,
// popular-route queries with the LRU warm), and the routing backends —
// plain Dijkstra against the contraction hierarchy point queries on the
// largest generated map.
//
// Every parallel configuration is checked against the serial one — the
// sweep aborts with a nonzero exit if any thread count changes a single
// byte of output — and every CH route is checked against Dijkstra, so the
// emitted numbers are certified equal-output.
//
// Run:  ./build/bench/throughput [out.json]
// Emits one JSON record per (benchmark, threads) pair:
//   {"name", "threads", "items_per_sec", "p50_ms", "p99_ms"}
// plus special records: "ch_routing" (map size, build cost, measured
// CH-over-Dijkstra speedup), "index_retrieval" (indexed-vs-scan speedups),
// "machine" (hardware concurrency plus CPU model and ISA flags, so
// scaling and SIMD-sensitive numbers can be read against the silicon that
// produced them), and the registry histograms accumulated over the run. The matcher is additionally benchmarked
// per-topology over the shared scenario corpus (tests/scenario_dsl.h), so
// a candidate-pruning regression on, say, dense grids shows up as its own
// row instead of vanishing into the city-wide aggregate.

#include <stdlib.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_world.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "core/feature_extractor.h"
#include "core/model_manager.h"
#include "geo/bounding_box.h"
#include "index/trajectory_index.h"
#include "io/container.h"
#include "io/poi_io.h"
#include "io/road_network_io.h"
#include "io/trajectory_io.h"
#include "net/ndjson_service.h"
#include "roadnet/contraction_hierarchy.h"
#include "roadnet/map_matcher.h"
#include "roadnet/shortest_path.h"
#include "scenario_dsl.h"
#include "traj/calibration.h"

using namespace stmaker;
using namespace stmaker::bench;

namespace {

constexpr int kThreadSweep[] = {1, 2, 4, 8};
constexpr size_t kTrainCorpusSize = 800;
constexpr int kTrainReps = 3;
constexpr size_t kServeBatchSize = 300;
constexpr int kServeReps = 3;
constexpr size_t kMicroIters = 2000;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile over per-item (or per-rep) latencies.
double Percentile(std::vector<double> samples, double q) {
  STMAKER_CHECK(!samples.empty());
  std::sort(samples.begin(), samples.end());
  double rank = q / 100.0 * static_cast<double>(samples.size() - 1);
  size_t idx = static_cast<size_t>(rank + 0.5);
  return samples[std::min(idx, samples.size() - 1)];
}

struct BenchResult {
  std::string name;
  int threads;
  double items_per_sec;
  double p50_ms;
  double p99_ms;
};

/// CPU identity for the "machine" record: model string plus the ISA flags
/// that actually move these benchmarks (vector width, FMA, AES, BMI). The
/// full /proc/cpuinfo flag line runs to hundreds of tokens; anything not on
/// this list is noise for a latency comparison, so it is dropped.
struct CpuInfo {
  std::string model;
  std::string flags;
};

CpuInfo ReadCpuInfo() {
  CpuInfo info;
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return info;  // non-Linux: fields stay empty
  static constexpr const char* kWanted[] = {
      "sse4_2", "popcnt", "aes",     "avx",        "fma",     "bmi1",
      "bmi2",   "avx2",   "avx512f", "avx512dq",   "avx512bw", "avx512vl",
      "avx512_vnni", "avx512_bf16", "avx512_fp16", "amx_tile",
  };
  char line[4096];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    std::string s(line);
    size_t colon = s.find(':');
    if (colon == std::string::npos) continue;
    std::string key = s.substr(0, colon);
    while (!key.empty() && (key.back() == ' ' || key.back() == '\t')) {
      key.pop_back();
    }
    std::string value = s.substr(colon + 1);
    if (!value.empty() && value.front() == ' ') value.erase(0, 1);
    while (!value.empty() && (value.back() == '\n' || value.back() == ' ')) {
      value.pop_back();
    }
    if (key == "model name" && info.model.empty()) {
      // Keep the record safely quotable: drop anything outside a plain
      // printable subset (model strings are vendor-controlled text).
      for (char c : value) {
        if (std::isalnum(static_cast<unsigned char>(c)) ||
            std::strchr(" ()@.-_/", c) != nullptr) {
          info.model.push_back(c);
        }
      }
    } else if (key == "flags" && info.flags.empty()) {
      std::string token;
      std::string padded = value;
      padded.push_back(' ');
      for (char c : padded) {
        if (c == ' ') {
          for (const char* want : kWanted) {
            if (token == want) {
              if (!info.flags.empty()) info.flags.push_back(' ');
              info.flags += token;
            }
          }
          token.clear();
        } else {
          token.push_back(c);
        }
      }
    }
    if (!info.model.empty() && !info.flags.empty()) break;
  }
  std::fclose(f);
  return info;
}

BenchResult Summarize(const std::string& name, int threads,
                      const std::vector<double>& latencies_ms,
                      size_t items, double total_ms) {
  BenchResult r;
  r.name = name;
  r.threads = threads;
  r.items_per_sec = total_ms > 0 ? items / (total_ms / 1000.0) : 0;
  r.p50_ms = Percentile(latencies_ms, 50);
  r.p99_ms = Percentile(latencies_ms, 99);
  std::printf("%-28s threads=%d  %10.1f items/s  p50 %8.3f ms  p99 %8.3f ms\n",
              name.c_str(), threads, r.items_per_sec, r.p50_ms, r.p99_ms);
  return r;
}

int Run(const char* out_path) {
  BenchWorld world = BuildBenchWorld();
  std::vector<RawTrajectory> raws;
  raws.reserve(world.history.size());
  for (const GeneratedTrip& t : world.history) raws.push_back(t.raw);

  std::vector<RawTrajectory> train_corpus(
      raws.begin(), raws.begin() + std::min(kTrainCorpusSize, raws.size()));
  std::vector<RawTrajectory> serve_batch(
      raws.begin(), raws.begin() + std::min(kServeBatchSize, raws.size()));

  std::vector<BenchResult> results;

  // --- Train thread sweep. The serial run is the reference: every other
  // thread count must reproduce its transitions and probe summary exactly.
  std::vector<PopularRouteMiner::Transition> ref_transitions;
  std::string ref_probe_text;
  const RawTrajectory& probe = raws[raws.size() - 1];
  for (int threads : kThreadSweep) {
    std::vector<double> rep_ms;
    size_t items = 0;
    double total_ms = 0;
    for (int rep = 0; rep < kTrainReps; ++rep) {
      STMakerOptions options;
      options.num_threads = threads;
      STMaker maker(&world.city.network, world.landmarks.get(),
                    FeatureRegistry::BuiltIn(), options);
      double t0 = NowMs();
      Status st = maker.Train(train_corpus);
      double dt = NowMs() - t0;
      STMAKER_CHECK(st.ok());
      rep_ms.push_back(dt);
      total_ms += dt;
      items += maker.num_trained();
      if (rep == 0) {
        auto summary = maker.Summarize(probe);
        std::string text = summary.ok() ? summary->text : "<failed>";
        if (threads == 1) {
          ref_transitions = maker.popular_routes().Transitions();
          ref_probe_text = text;
        } else {
          auto transitions = maker.popular_routes().Transitions();
          bool same = transitions.size() == ref_transitions.size() &&
                      text == ref_probe_text;
          for (size_t i = 0; same && i < transitions.size(); ++i) {
            same = transitions[i].from == ref_transitions[i].from &&
                   transitions[i].to == ref_transitions[i].to &&
                   transitions[i].count == ref_transitions[i].count;
          }
          if (!same) {
            std::fprintf(stderr,
                         "FATAL: Train with %d threads diverged from serial\n",
                         threads);
            return 1;
          }
        }
      }
    }
    results.push_back(Summarize("Train", threads, rep_ms, items, total_ms));
  }

  // --- SummarizeBatch thread sweep against the shared trained maker.
  std::vector<std::string> ref_summaries;
  for (int threads : kThreadSweep) {
    std::vector<double> rep_ms;
    size_t items = 0;
    double total_ms = 0;
    for (int rep = 0; rep < kServeReps; ++rep) {
      double t0 = NowMs();
      std::vector<Result<Summary>> batch =
          world.maker->SummarizeBatch(serve_batch, SummaryOptions(), threads);
      double dt = NowMs() - t0;
      rep_ms.push_back(dt);
      total_ms += dt;
      items += batch.size();
      if (rep == 0) {
        std::vector<std::string> texts;
        texts.reserve(batch.size());
        for (const Result<Summary>& r : batch) {
          texts.push_back(r.ok() ? r->text : "<" + r.status().ToString() + ">");
        }
        if (threads == 1) {
          ref_summaries = std::move(texts);
        } else if (texts != ref_summaries) {
          std::fprintf(
              stderr,
              "FATAL: SummarizeBatch with %d threads diverged from serial\n",
              threads);
          return 1;
        }
      }
    }
    results.push_back(
        Summarize("SummarizeBatch", threads, rep_ms, items, total_ms));
  }
  std::printf("# parallel outputs byte-identical to serial: yes\n");

  // --- Serving-stage micro-benchmarks (single caller). ---------------------
  std::vector<CalibratedTrajectory> calibrated;
  for (const RawTrajectory& raw : serve_batch) {
    auto cal = world.maker->Calibrate(raw);
    if (cal.ok()) calibrated.push_back(std::move(cal).value());
  }
  STMAKER_CHECK(!calibrated.empty());

  {
    CalibrationOptions no_cache;
    no_cache.cache_size = 0;
    Calibrator cold(world.landmarks.get(), no_cache);
    std::vector<double> lat;
    double t0 = NowMs();
    for (size_t i = 0; i < kMicroIters; ++i) {
      double c0 = NowMs();
      auto result = cold.Calibrate(serve_batch[i % serve_batch.size()]);
      lat.push_back(NowMs() - c0);
      (void)result;
    }
    results.push_back(
        Summarize("Calibrate_nocache", 1, lat, kMicroIters, NowMs() - t0));
  }
  {
    // Shared calibrator, 256-entry LRU: the batch fits, so steady state is
    // all hits — this is the serving fast path after warmup.
    std::vector<double> lat;
    double t0 = NowMs();
    for (size_t i = 0; i < kMicroIters; ++i) {
      double c0 = NowMs();
      auto result = world.maker->Calibrate(serve_batch[i % 200]);
      lat.push_back(NowMs() - c0);
      (void)result;
    }
    results.push_back(
        Summarize("Calibrate_cached", 1, lat, kMicroIters, NowMs() - t0));
  }
  {
    FeatureRegistry registry = FeatureRegistry::BuiltIn();
    FeatureExtractor extractor(&world.city.network, world.landmarks.get(),
                               &registry);
    std::vector<double> lat;
    double t0 = NowMs();
    for (size_t i = 0; i < kMicroIters; ++i) {
      double c0 = NowMs();
      auto result = extractor.Extract(calibrated[i % calibrated.size()]);
      lat.push_back(NowMs() - c0);
      (void)result;
    }
    results.push_back(
        Summarize("ExtractFeatures", 1, lat, kMicroIters, NowMs() - t0));
  }
  {
    // OD pairs cycle through ~calibrated.size() distinct keys, well inside
    // the 8192-entry route LRU: steady state measures the cached path.
    std::vector<double> lat;
    double t0 = NowMs();
    for (size_t i = 0; i < kMicroIters; ++i) {
      const auto& symbolic = calibrated[i % calibrated.size()].symbolic;
      double c0 = NowMs();
      auto route = world.maker->popular_routes().PopularRoute(
          symbolic.samples.front().landmark,
          symbolic.samples.back().landmark);
      lat.push_back(NowMs() - c0);
      (void)route;
    }
    results.push_back(
        Summarize("PopularRouteQuery", 1, lat, kMicroIters, NowMs() - t0));
    CacheStats rc = world.maker->popular_routes().Stats();
    std::printf("# popular-route cache: %s\n", rc.ToString().c_str());
  }

  // --- Tracing overhead: the same summaries with and without a span sink.
  // Certifies both halves of the observability contract: tracing must not
  // change a byte of output, and its cost must stay in the noise.
  {
    const size_t n = std::min<size_t>(serve_batch.size(), 100);
    std::vector<std::string> plain_texts, traced_texts;
    std::vector<double> plain_lat, traced_lat;
    double plain_t0 = NowMs();
    for (size_t i = 0; i < n; ++i) {
      double c0 = NowMs();
      auto summary = world.maker->Summarize(serve_batch[i]);
      plain_lat.push_back(NowMs() - c0);
      plain_texts.push_back(summary.ok() ? summary->text : "<failed>");
    }
    double plain_total = NowMs() - plain_t0;
    double traced_t0 = NowMs();
    for (size_t i = 0; i < n; ++i) {
      Trace trace;
      RequestContext ctx;
      ctx.trace = &trace;
      double c0 = NowMs();
      auto summary = world.maker->Summarize(serve_batch[i],
                                            SummaryOptions(), &ctx);
      traced_lat.push_back(NowMs() - c0);
      traced_texts.push_back(summary.ok() ? summary->text : "<failed>");
      STMAKER_CHECK(!trace.Events().empty());
    }
    double traced_total = NowMs() - traced_t0;
    if (plain_texts != traced_texts) {
      std::fprintf(stderr, "FATAL: tracing changed summary output\n");
      return 1;
    }
    results.push_back(
        Summarize("Summarize_untraced", 1, plain_lat, n, plain_total));
    results.push_back(
        Summarize("Summarize_traced", 1, traced_lat, n, traced_total));
    std::printf("# traced outputs byte-identical to untraced: yes "
                "(overhead %+.1f%%)\n",
                plain_total > 0
                    ? (traced_total - plain_total) / plain_total * 100.0
                    : 0.0);
  }

  // --- Per-topology matcher benchmarks over the scenario corpus. -----------
  // The same hand-drawn maps the scenario/property tests certify against
  // brute force and the reference matcher. Each row matches the corpus
  // route at three noise levels (clean, urban, degraded), so the JSON
  // carries a per-topology latency profile of the pruned candidate search
  // — a regression on dense grids or long Viterbi chains gets its own row.
  {
    using stmaker::testing::NamedScenario;
    using stmaker::testing::Scenario;
    using stmaker::testing::ScenarioCorpus;
    using stmaker::testing::ScenarioPath;
    const int kScenarioReps = 300;
    const double kNoiseLevels[] = {0.0, 8.0, 30.0};
    for (const NamedScenario& ns : ScenarioCorpus()) {
      Scenario s = ns.Build();
      MapMatcher matcher(&s.network);
      std::vector<std::vector<Vec2>> trips;
      size_t fixes_per_pass = 0;
      for (double noise : kNoiseLevels) {
        trips.push_back(ScenarioPath(s, ns.route, /*step_m=*/40.0, noise,
                                     /*seed=*/11));
        fixes_per_pass += trips.back().size();
      }
      // Warm pass: fault in the spatial index pages and thread-local
      // scratch so the timed loop measures steady state.
      for (const auto& trip : trips) (void)matcher.Match(trip);
      std::vector<double> lat;
      lat.reserve(kScenarioReps * trips.size());
      size_t fixes = 0;
      double t0 = NowMs();
      for (int rep = 0; rep < kScenarioReps; ++rep) {
        for (const auto& trip : trips) {
          double c0 = NowMs();
          std::vector<EdgeId> matched = matcher.Match(trip);
          lat.push_back(NowMs() - c0);
          STMAKER_CHECK(matched.size() == trip.size());
          fixes += matched.size();
        }
      }
      double total = NowMs() - t0;
      results.push_back(Summarize("MapMatch_" + ns.name, 1, lat,
                                  kScenarioReps * trips.size(), total));
      std::printf("# scenario %-16s %zu nodes %zu edges, %zu fixes/pass, "
                  "%.0f fixes/s\n",
                  ns.name.c_str(), s.network.NumNodes(), s.network.NumEdges(),
                  fixes_per_pass,
                  total > 0 ? fixes / (total / 1000.0) : 0.0);
    }
  }

  // --- Routing backends: Dijkstra vs contraction hierarchy. ----------------
  // A dedicated map, larger than the bench city, so the asymptotic gap is
  // visible: uninformed Dijkstra settles O(n) nodes per query while the CH
  // search touches a few dozen regardless of distance.
  double ch_build_ms = 0;
  double ch_speedup = 0;
  size_t routing_nodes = 0;
  {
    MapGeneratorOptions big;
    big.blocks_x = 80;
    big.blocks_y = 80;
    big.seed = 7;
    GeneratedMap metro = MapGenerator(big).Generate();
    const RoadNetwork& net = metro.network;
    routing_nodes = net.NumNodes();
    std::printf("# routing map: %zu nodes, %zu edges\n", net.NumNodes(),
                net.NumEdges());

    double b0 = NowMs();
    Result<ContractionHierarchy> ch = ContractionHierarchy::Build(net);
    ch_build_ms = NowMs() - b0;
    STMAKER_CHECK(ch.ok());
    std::printf("# ch build: %.1f ms, %zu arcs (%zu shortcuts)\n",
                ch_build_ms, ch->NumArcs(), ch->NumShortcuts());

    const size_t kPairs = 600;
    std::mt19937_64 rng(123);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    pairs.reserve(kPairs);
    for (size_t i = 0; i < kPairs; ++i) {
      pairs.push_back({static_cast<NodeId>(rng() % net.NumNodes()),
                       static_cast<NodeId>(rng() % net.NumNodes())});
    }

    ShortestPathRouter dijkstra(&net);
    std::vector<double> dj_cost(kPairs, -1), dj_lat;
    dj_lat.reserve(kPairs);
    double t0 = NowMs();
    for (size_t i = 0; i < kPairs; ++i) {
      double c0 = NowMs();
      Result<Path> p = dijkstra.Route(pairs[i].first, pairs[i].second);
      dj_lat.push_back(NowMs() - c0);
      if (p.ok()) dj_cost[i] = p->cost;
    }
    double dj_total = NowMs() - t0;
    results.push_back(
        Summarize("RouteDijkstra", 1, dj_lat, kPairs, dj_total));

    std::vector<double> ch_lat;
    ch_lat.reserve(kPairs);
    t0 = NowMs();
    for (size_t i = 0; i < kPairs; ++i) {
      double c0 = NowMs();
      Result<Path> p = ch->Route(pairs[i].first, pairs[i].second);
      ch_lat.push_back(NowMs() - c0);
      double got = p.ok() ? p->cost : -1;
      if (std::abs(got - dj_cost[i]) > 1e-6 * (1.0 + std::abs(dj_cost[i]))) {
        std::fprintf(stderr,
                     "FATAL: CH route %zu disagrees with Dijkstra "
                     "(%.9g vs %.9g)\n",
                     i, got, dj_cost[i]);
        return 1;
      }
    }
    double ch_total = NowMs() - t0;
    results.push_back(Summarize("RouteCH", 1, ch_lat, kPairs, ch_total));
    ch_speedup = ch_total > 0 ? dj_total / ch_total : 0;
    std::printf("# ch routes identical to dijkstra: yes "
                "(point-query speedup %.1fx)\n",
                ch_speedup);
  }

  // --- Model lifecycle: cold start, reload latency, and post-swap
  // first-request cost over a dedicated small world (a reload re-maps and
  // re-validates the whole container, so the bench world's 3000-trip
  // corpus would mostly time the corpus copy, not the swap), staged the way
  // `stmaker_cli gen`+`train` lay it out. ModelColdStart_container is the
  // time from nothing-in-memory to a maker ready to answer;
  // ModelReload_container is the wall time of a full Reload() — map,
  // section CRCs, model replay, commit; PostSwapFirstRequest is the
  // latency of the first summarize answered by the freshly swapped
  // snapshot (its caches are stone cold — that cost is the price of the
  // zero-downtime design and deserves its own row).
  {
    char dir_template[] = "/tmp/stmaker_bench_reload_XXXXXX";
    char* dir_c = mkdtemp(dir_template);
    STMAKER_CHECK(dir_c != nullptr);
    std::string dir(dir_c);

    BenchWorldOptions small;
    small.blocks = 10;
    small.poi_sites = 150;
    small.history_size = 300;
    small.num_travelers = 30;
    small.num_days = 7;
    BenchWorld lifecycle_world = BuildBenchWorld(small);
    STMAKER_CHECK(
        WriteRoadNetworkCsv(dir + "/network", lifecycle_world.city.network)
            .ok());
    PoiGeneratorOptions poi_options;
    poi_options.num_sites = small.poi_sites;
    poi_options.seed = small.seed + 1;
    std::vector<RawPoi> pois =
        PoiGenerator(poi_options).Generate(lifecycle_world.city.network);
    STMAKER_CHECK(WritePoisCsv(dir + "/pois.csv", pois).ok());
    std::vector<RawTrajectory> small_raws;
    small_raws.reserve(lifecycle_world.history.size());
    for (const GeneratedTrip& t : lifecycle_world.history) {
      small_raws.push_back(t.raw);
    }
    STMAKER_CHECK(
        WriteTrajectoriesCsv(dir + "/trajectories.csv", small_raws).ok());
    // Train on the world and corpus as read back from CSV, exactly what
    // `train` does.
    const std::string container_path = dir + "/model.stm";
    {
      Result<RoadNetwork> network = ReadRoadNetworkCsv(dir + "/network");
      STMAKER_CHECK(network.ok());
      Result<std::vector<RawPoi>> loaded_pois = ReadPoisCsv(dir + "/pois.csv");
      STMAKER_CHECK(loaded_pois.ok());
      Result<std::vector<RawTrajectory>> corpus =
          ReadTrajectoriesCsv(dir + "/trajectories.csv");
      STMAKER_CHECK(corpus.ok());
      LandmarkIndex index = LandmarkIndex::Build(*network, *loaded_pois);
      STMaker trainer(&*network, &index, FeatureRegistry::BuiltIn());
      STMAKER_CHECK(trainer.Train(*corpus).ok());
      STMAKER_CHECK(trainer.BuildRoadHierarchy().ok());
      STMAKER_CHECK(trainer.SaveModelContainer(container_path, *corpus).ok());
    }

    // Cold start, measured with direct loads rather than the ModelManager
    // so the row isolates the container path: mmap + header/CRC walk, no
    // per-row text parse.
    const int kColdReps = 5;
    std::vector<double> cold_ms;
    double cold_total = 0;
    for (int rep = 0; rep < kColdReps; ++rep) {
      double t0 = NowMs();
      Result<std::shared_ptr<MappedContainer>> container =
          MappedContainer::Open(container_path);
      STMAKER_CHECK(container.ok());
      Result<RoadNetwork> network = LoadNetworkFromContainer(**container);
      STMAKER_CHECK(network.ok());
      Result<LandmarkIndex> index =
          LoadLandmarksFromContainer(**container, *network);
      STMAKER_CHECK(index.ok());
      STMaker maker(&*network, &*index, FeatureRegistry::BuiltIn());
      STMAKER_CHECK(maker.LoadModelContainer(**container).ok());
      double dt = NowMs() - t0;
      cold_ms.push_back(dt);
      cold_total += dt;
    }
    results.push_back(Summarize("ModelColdStart_container", 1, cold_ms,
                                kColdReps, cold_total));

    ModelManagerOptions mopts;
    mopts.model_prefix = container_path;
    ModelManager manager(mopts);
    STMAKER_CHECK(manager.Initialize().ok());
    net::NdjsonServiceOptions sopts;
    sopts.threads = 2;
    net::NdjsonService service(&manager, sopts);

    const int kReloadReps = 10;
    std::vector<double> reload_ms, first_request_ms;
    double reload_total = 0, first_total = 0;
    for (int rep = 0; rep < kReloadReps; ++rep) {
      double t0 = NowMs();
      STMAKER_CHECK(manager.Reload().ok());
      double dt = NowMs() - t0;
      reload_ms.push_back(dt);
      reload_total += dt;

      std::mutex mu;
      std::condition_variable cv;
      bool answered = false;
      std::string request =
          "{\"id\": 1, \"trip\": " +
          std::to_string(rep % lifecycle_world.history.size()) + "}";
      t0 = NowMs();
      service.HandleLine(request, [&](const std::string& line) {
        STMAKER_CHECK(line.find("\"status\": \"ok\"") != std::string::npos);
        std::lock_guard<std::mutex> lock(mu);
        answered = true;
        cv.notify_all();
      });
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return answered; });
      }
      dt = NowMs() - t0;
      first_request_ms.push_back(dt);
      first_total += dt;
    }
    service.Drain();
    manager.WaitIdle();
    results.push_back(Summarize("ModelReload_container", 1, reload_ms,
                                kReloadReps, reload_total));
    results.push_back(Summarize("PostSwapFirstRequest", 1, first_request_ms,
                                kReloadReps, first_total));
  }

  // --- Trajectory-index retrieval: similarity top-K and region/time-window
  // queries (DESIGN.md §16) — the serving paths behind the `similar` and
  // `query` verbs. The indexed rows come first; the speedup record then
  // drops the index and replays a query subset through the full-corpus
  // scan fallback, insisting on identical answers before trusting the
  // timing — the same certified-equal-output discipline as the CH rows.
  // This section runs last (just before emit) because the scan replay
  // leaves the shared maker without its index.
  double index_similar_speedup = 0;
  double index_region_speedup = 0;
  size_t index_postings = 0;
  {
    STMAKER_CHECK(world.maker->has_trajectory_index());
    index_postings = world.maker->trip_index()->num_postings();
    std::span<const RawTrajectory> corpus(raws);

    // The corpus extent (spatial and temporal) sizes the region probes:
    // random sub-boxes at ~8% of the city per side, a 6-hour time window
    // on every other probe.
    BoundingBox extent;
    double time_min = std::numeric_limits<double>::infinity();
    double time_max = -time_min;
    for (const RawTrajectory& raw : raws) {
      for (const RawSample& s : raw.samples) {
        extent.Extend(s.pos);
        time_min = std::min(time_min, s.time);
        time_max = std::max(time_max, s.time);
      }
    }
    std::mt19937_64 rng(20150401);
    auto uniform = [&rng](double lo, double hi) {
      return std::uniform_real_distribution<double>(lo, hi)(rng);
    };
    const size_t kRegionQueries = 64;
    std::vector<BoundingBox> boxes(kRegionQueries);
    std::vector<std::optional<std::pair<double, double>>> windows(
        kRegionQueries);
    for (size_t i = 0; i < kRegionQueries; ++i) {
      const double w = extent.Width() * 0.08;
      const double h = extent.Height() * 0.08;
      const double x0 = uniform(extent.min.x, extent.max.x - w);
      const double y0 = uniform(extent.min.y, extent.max.y - h);
      boxes[i].Extend({x0, y0});
      boxes[i].Extend({x0 + w, y0 + h});
      if (i % 2 == 0) {
        const double kSixHours = 6 * 3600.0;
        double t0 = uniform(time_min, std::max(time_min, time_max - kSixHours));
        windows[i] = {t0, t0 + kSixHours};
      }
    }

    // Similarity queries cycle the corpus at a coprime stride so the row
    // averages across neighbourhood sizes instead of one city district.
    const size_t kSimilarQueries = 400;
    const size_t kSimilarK = 5;
    std::vector<size_t> query_trips;
    query_trips.reserve(kSimilarQueries);
    for (size_t i = 0; i < kSimilarQueries; ++i) {
      query_trips.push_back((i * 97) % corpus.size());
    }

    std::vector<std::vector<TrajectoryIndex::Match>> indexed_similar;
    indexed_similar.reserve(kSimilarQueries);
    std::vector<double> sim_lat;
    sim_lat.reserve(kSimilarQueries);
    double t0 = NowMs();
    for (size_t trip : query_trips) {
      double c0 = NowMs();
      auto matches = world.maker->SimilarTrips(corpus, trip, kSimilarK);
      sim_lat.push_back(NowMs() - c0);
      STMAKER_CHECK(matches.ok());
      indexed_similar.push_back(std::move(matches).value());
    }
    double indexed_similar_ms = NowMs() - t0;
    results.push_back(Summarize("SimilarTopK", 1, sim_lat, kSimilarQueries,
                                indexed_similar_ms));

    std::vector<std::vector<uint32_t>> indexed_region;
    indexed_region.reserve(kRegionQueries);
    std::vector<double> reg_lat;
    reg_lat.reserve(kRegionQueries);
    t0 = NowMs();
    for (size_t i = 0; i < kRegionQueries; ++i) {
      double c0 = NowMs();
      auto trips = world.maker->QueryRegion(corpus, boxes[i], windows[i]);
      reg_lat.push_back(NowMs() - c0);
      STMAKER_CHECK(trips.ok());
      indexed_region.push_back(std::move(trips).value());
    }
    double indexed_region_ms = NowMs() - t0;
    results.push_back(
        Summarize("RegionQuery", 1, reg_lat, kRegionQueries,
                  indexed_region_ms));

    // Scan replay. The similarity scan re-describes the whole corpus per
    // query (sanitize → calibrate → extract × corpus size), so only a
    // subset is replayed — enough to time, far too slow for all 400. The
    // speedup compares per-query averages: the indexed side over its full
    // query set, the scan side over the replayed subset.
    const size_t kScanSimilar = 4;
    const size_t kScanRegion = 8;
    world.maker->DropTrajectoryIndex();
    t0 = NowMs();
    for (size_t i = 0; i < kScanSimilar; ++i) {
      auto matches =
          world.maker->SimilarTrips(corpus, query_trips[i], kSimilarK);
      STMAKER_CHECK(matches.ok());
      bool same = matches->size() == indexed_similar[i].size();
      for (size_t j = 0; same && j < matches->size(); ++j) {
        same = (*matches)[j].trip == indexed_similar[i][j].trip &&
               (*matches)[j].score == indexed_similar[i][j].score;
      }
      if (!same) {
        std::fprintf(stderr,
                     "FATAL: scan SimilarTrips(%zu) diverged from the "
                     "indexed path\n",
                     query_trips[i]);
        return 1;
      }
    }
    double scan_similar_ms = NowMs() - t0;
    t0 = NowMs();
    for (size_t i = 0; i < kScanRegion; ++i) {
      auto trips = world.maker->QueryRegion(corpus, boxes[i], windows[i]);
      STMAKER_CHECK(trips.ok());
      if (*trips != indexed_region[i]) {
        std::fprintf(stderr,
                     "FATAL: scan QueryRegion(%zu) diverged from the "
                     "indexed path\n",
                     i);
        return 1;
      }
    }
    double scan_region_ms = NowMs() - t0;
    const double indexed_similar_per_query =
        indexed_similar_ms / kSimilarQueries;
    const double indexed_region_per_query = indexed_region_ms / kRegionQueries;
    index_similar_speedup =
        indexed_similar_per_query > 0
            ? (scan_similar_ms / kScanSimilar) / indexed_similar_per_query
            : 0;
    index_region_speedup =
        indexed_region_per_query > 0
            ? (scan_region_ms / kScanRegion) / indexed_region_per_query
            : 0;
    std::printf("# indexed retrieval identical to full scan: yes "
                "(similar speedup %.0fx, region speedup %.1fx, "
                "%zu postings)\n",
                index_similar_speedup, index_region_speedup, index_postings);
  }

  // --- Emit JSON. -----------------------------------------------------------
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  // Registry histograms accumulated by the instrumented pipeline over the
  // whole run ride along as records of a second shape, so BENCH JSON
  // carries the same per-stage latency picture serve mode's `stats` does.
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  size_t num_hists = 0;
  for (const auto& [name, hist] : snapshot.histograms) {
    if (hist.count > 0) ++num_hists;
  }
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    // The two special records below always follow, so every result row
    // takes a trailing comma.
    std::fprintf(out,
                 "  {\"name\": \"%s\", \"threads\": %d, "
                 "\"items_per_sec\": %.2f, \"p50_ms\": %.4f, "
                 "\"p99_ms\": %.4f},\n",
                 r.name.c_str(), r.threads, r.items_per_sec, r.p50_ms,
                 r.p99_ms);
  }
  std::fprintf(out,
               "  {\"name\": \"ch_routing\", \"map_nodes\": %zu, "
               "\"build_ms\": %.1f, \"speedup_vs_dijkstra\": %.2f},\n",
               routing_nodes, ch_build_ms, ch_speedup);
  std::fprintf(out,
               "  {\"name\": \"index_retrieval\", \"corpus_trips\": %zu, "
               "\"postings\": %zu, \"similar_speedup_vs_scan\": %.1f, "
               "\"region_speedup_vs_scan\": %.1f},\n",
               raws.size(), index_postings, index_similar_speedup,
               index_region_speedup);
  CpuInfo cpu = ReadCpuInfo();
  std::fprintf(out,
               "  {\"name\": \"machine\", \"hardware_concurrency\": %u, "
               "\"cpu_model\": \"%s\", \"cpu_flags\": \"%s\"}%s\n",
               std::thread::hardware_concurrency(), cpu.model.c_str(),
               cpu.flags.c_str(), num_hists > 0 ? "," : "");
  size_t emitted = 0;
  for (const auto& [name, hist] : snapshot.histograms) {
    if (hist.count == 0) continue;
    ++emitted;
    std::fprintf(out,
                 "  {\"name\": \"histogram\", \"metric\": \"%s\", "
                 "\"count\": %llu, \"mean_ms\": %.4f, \"p50_ms\": %.4f, "
                 "\"p95_ms\": %.4f, \"p99_ms\": %.4f}%s\n",
                 name.c_str(), static_cast<unsigned long long>(hist.count),
                 hist.mean(), hist.p50(), hist.p95(), hist.p99(),
                 emitted < num_hists ? "," : "");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
  std::printf("# wrote %s\n", out_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return Run(argc > 1 ? argv[1] : "BENCH_throughput.json");
}
