// Operational throughput of the parallel train/serve pipeline (not a paper
// figure): the numbers the serving benchmark (perfbench/) cannot show,
// because it serves one build at one thread count over one map. Kept here:
//   - Train and SummarizeBatch at 1, 2, 4, ... threads up to the core
//     count, every thread count checked against the serial output;
//   - per-stage micro rows: calibration uncached and cached, feature
//     extraction, popular-route queries with the LRU warm;
//   - the map matcher per topology of the scenario corpus
//     (tests/scenario_dsl.h), so a candidate-pruning regression on, say,
//     dense grids shows up as its own row;
//   - Dijkstra against contraction-hierarchy point queries on a map larger
//     than the bench city, every CH cost checked against Dijkstra;
//   - similarity top-K and region queries through the trajectory index,
//     replayed through the scan fallback (the `_scan` rows, the base of
//     the speedups) and checked equal.
// Tracing overhead, cold start, reload, the first request after a swap and
// the per-stage latencies are perfbench metrics (perfbench/METRICS.md).
//
// Every row runs kReps times in this process and records the median and
// quartiles of its per-rep items/s and p50, so two runs are told apart from
// noise by the rule in tools/bench_report.py --compare. Any divergence from
// the reference output exits nonzero, so the numbers are certified
// equal-output.
//
// Run:  ./build/bench/throughput [out.json]
// Emits one JSON record per (benchmark, threads) row:
//   {"name", "threads", "reps", "items_per_sec": band, "p50_ms": band}
// with band = {"q1", "median", "q3"}, plus "ch_routing" and
// "index_retrieval" (per-rep speedup bands) and "machine" (core count and
// CPU model, to read the sweeps against).

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_world.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "core/feature_extractor.h"
#include "geo/bounding_box.h"
#include "index/trajectory_index.h"
#include "roadnet/contraction_hierarchy.h"
#include "roadnet/map_matcher.h"
#include "roadnet/shortest_path.h"
#include "scenario_dsl.h"
#include "traj/calibration.h"

using namespace stmaker;
using namespace stmaker::bench;

namespace {

constexpr int kReps = 5;
constexpr size_t kTrainCorpusSize = 800;
constexpr size_t kServeBatchSize = 300;
constexpr size_t kMicroIters = 2000;

/// Nearest-rank percentile.
double Percentile(std::vector<double> samples, double q) {
  STMAKER_CHECK(!samples.empty());
  std::sort(samples.begin(), samples.end());
  double rank = q / 100.0 * static_cast<double>(samples.size() - 1);
  size_t idx = static_cast<size_t>(rank + 0.5);
  return samples[std::min(idx, samples.size() - 1)];
}

/// Median and quartiles of one quantity over a row's reps.
struct Band {
  double q1;
  double median;
  double q3;
};

Band BandOf(const std::vector<double>& per_rep) {
  return {Percentile(per_rep, 25), Percentile(per_rep, 50),
          Percentile(per_rep, 75)};
}

std::string BandJson(const Band& b, int digits) {
  return StrFormat("{\"q1\": %.*f, \"median\": %.*f, \"q3\": %.*f}", digits,
                   b.q1, digits, b.median, digits, b.q3);
}

/// One rep of a row: the items it processed and each timed call's latency.
/// Its items/s is the items over the sum of those latencies, so untimed
/// set-up and checks inside a rep do not count.
struct Rep {
  size_t items = 0;
  std::vector<double> latencies_ms;
};

/// A measured row: one items/s and one p50 per rep.
struct Row {
  std::string name;
  int threads;
  std::vector<double> items_per_sec;
  std::vector<double> p50_ms;
};

/// The one measuring helper: runs `rep` kReps times and records each rep's
/// items/s and p50.
template <typename RepFn>
Row Measure(std::string name, int threads, RepFn rep) {
  Row row{std::move(name), threads, {}, {}};
  for (int r = 0; r < kReps; ++r) {
    const Rep done = rep();
    const double busy_ms = std::accumulate(done.latencies_ms.begin(),
                                           done.latencies_ms.end(), 0.0);
    row.items_per_sec.push_back(busy_ms > 0 ? done.items / (busy_ms / 1000.0)
                                            : 0.0);
    row.p50_ms.push_back(Percentile(done.latencies_ms, 50));
  }
  const Band ips = BandOf(row.items_per_sec);
  const Band p50 = BandOf(row.p50_ms);
  std::printf("%-26s threads=%d  %10.1f items/s [%.1f, %.1f]  "
              "p50 %8.4f ms [%.4f, %.4f]\n",
              row.name.c_str(), threads, ips.median, ips.q1, ips.q3,
              p50.median, p50.q1, p50.q3);
  return row;
}

/// Calls `f`, appends its wall time to `rep`, and returns its result.
template <typename F>
auto Timed(Rep* rep, F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  auto result = f();
  rep->latencies_ms.push_back(std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
  return result;
}

/// A rep of `iters` single calls `call(i)`, each timed.
template <typename F>
Rep TimedLoop(size_t iters, F&& call) {
  Rep rep;
  rep.items = iters;
  rep.latencies_ms.reserve(iters);
  for (size_t i = 0; i < iters; ++i) Timed(&rep, [&] { return call(i); });
  return rep;
}

/// Per-rep ratio of two rows' items/s: the speedup of `fast` over `slow`.
Band SpeedupBand(const Row& fast, const Row& slow) {
  std::vector<double> ratios;
  for (int r = 0; r < kReps; ++r) {
    ratios.push_back(slow.items_per_sec[r] > 0
                         ? fast.items_per_sec[r] / slow.items_per_sec[r]
                         : 0.0);
  }
  return BandOf(ratios);
}

[[noreturn]] void Diverged(const std::string& what) {
  std::fprintf(stderr, "FATAL: %s\n", what.c_str());
  std::exit(1);
}

/// The "model name" of /proc/cpuinfo, cut to a plain printable subset so
/// the record quotes safely; empty where there is none.
std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    std::string model;
    for (char c : line.substr(line.find(':') + 1)) {
      if (std::isalnum(static_cast<unsigned char>(c)) ||
          std::strchr(" ()@.-_/", c) != nullptr) {
        model.push_back(c);
      }
    }
    model.erase(0, model.find_first_not_of(' '));
    return model;
  }
  return "";
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

  std::vector<Row> rows;

  // --- Thread sweeps: 1, 2, 4, ... below the core count, then the core
  // count. The pool caps its workers there, so a wider row would measure
  // the same workers under a wrong label.
  const int cores = ResolveThreadCount(0);
  std::vector<int> sweep;
  for (int t = 1; t < cores; t *= 2) sweep.push_back(t);
  sweep.push_back(cores);

  // Train: the first serial rep is the reference; every rep at every thread
  // count must reproduce its transitions and probe summary exactly.
  std::vector<PopularRouteMiner::Transition> ref_transitions;
  std::string ref_probe_text;
  const RawTrajectory& probe = raws.back();
  for (int threads : sweep) {
    rows.push_back(Measure("Train", threads, [&] {
      STMakerOptions options;
      options.num_threads = threads;
      STMaker maker(&world.city.network, world.landmarks.get(),
                    FeatureRegistry::BuiltIn(), options);
      Rep rep;
      Status trained = Timed(&rep, [&] { return maker.Train(train_corpus); });
      STMAKER_CHECK(trained.ok());
      rep.items = maker.num_trained();
      std::vector<PopularRouteMiner::Transition> transitions =
          maker.popular_routes().Transitions();
      Result<Summary> summary = maker.Summarize(probe);
      std::string text = summary.ok() ? summary->text : "<failed>";
      if (ref_transitions.empty()) {
        ref_transitions = std::move(transitions);
        ref_probe_text = std::move(text);
      } else if (text != ref_probe_text || transitions != ref_transitions) {
        Diverged(StrFormat("Train with %d threads diverged from serial",
                           threads));
      }
      return rep;
    }));
  }

  // SummarizeBatch against the shared trained maker, checked the same way.
  std::vector<std::string> ref_summaries;
  for (int threads : sweep) {
    rows.push_back(Measure("SummarizeBatch", threads, [&] {
      Rep rep;
      std::vector<Result<Summary>> batch = Timed(&rep, [&] {
        return world.maker->SummarizeBatch(serve_batch, SummaryOptions(),
                                           threads);
      });
      rep.items = batch.size();
      std::vector<std::string> texts;
      texts.reserve(batch.size());
      for (const Result<Summary>& r : batch) {
        texts.push_back(r.ok() ? r->text : r.status().ToString());
      }
      if (ref_summaries.empty()) {
        ref_summaries = std::move(texts);
      } else if (texts != ref_summaries) {
        Diverged(StrFormat(
            "SummarizeBatch with %d threads diverged from serial", threads));
      }
      return rep;
    }));
  }
  std::printf("# parallel outputs byte-identical to serial: yes\n");

  // --- Serving-stage micro-benchmarks (single caller). ---------------------
  std::vector<CalibratedTrajectory> calibrated;
  for (const RawTrajectory& raw : serve_batch) {
    auto cal = world.maker->Calibrate(raw);
    if (cal.ok()) calibrated.push_back(std::move(cal).value());
  }
  STMAKER_CHECK(!calibrated.empty());

  CalibrationOptions no_cache;
  no_cache.cache_size = 0;
  Calibrator cold(world.landmarks.get(), no_cache);
  rows.push_back(Measure("Calibrate_nocache", 1, [&] {
    return TimedLoop(kMicroIters, [&](size_t i) {
      return cold.Calibrate(serve_batch[i % serve_batch.size()]);
    });
  }));
  // The maker's shared calibrator, 256-entry LRU: 200 trips fit, so steady
  // state is all hits — the serving fast path after warmup.
  rows.push_back(Measure("Calibrate_cached", 1, [&] {
    return TimedLoop(kMicroIters, [&](size_t i) {
      return world.maker->Calibrate(serve_batch[i % 200]);
    });
  }));
  FeatureRegistry registry = FeatureRegistry::BuiltIn();
  FeatureExtractor extractor(&world.city.network, world.landmarks.get(),
                             &registry);
  rows.push_back(Measure("ExtractFeatures", 1, [&] {
    return TimedLoop(kMicroIters, [&](size_t i) {
      return extractor.Extract(calibrated[i % calibrated.size()]);
    });
  }));
  // OD pairs cycle through ~calibrated.size() distinct keys, well inside
  // the 8192-entry route LRU: steady state measures the cached path.
  rows.push_back(Measure("PopularRouteQuery", 1, [&] {
    return TimedLoop(kMicroIters, [&](size_t i) {
      const SymbolicTrajectory& symbolic =
          calibrated[i % calibrated.size()].symbolic;
      return world.maker->popular_routes().PopularRoute(
          symbolic.samples.front().landmark, symbolic.samples.back().landmark);
    });
  }));
  std::printf("# popular-route cache: %s\n",
              world.maker->popular_routes().Stats().ToString().c_str());

  // --- Per-topology matcher rows over the scenario corpus. -----------------
  // Each rep matches the corpus route at three noise levels (clean, urban,
  // degraded) kScenarioPasses times.
  {
    using stmaker::testing::NamedScenario;
    using stmaker::testing::Scenario;
    using stmaker::testing::ScenarioCorpus;
    using stmaker::testing::ScenarioPath;
    const int kScenarioPasses = 60;
    const double kNoiseLevels[] = {0.0, 8.0, 30.0};
    for (const NamedScenario& ns : ScenarioCorpus()) {
      Scenario s = ns.Build();
      MapMatcher matcher(&s.network);
      std::vector<std::vector<Vec2>> trips;
      for (double noise : kNoiseLevels) {
        trips.push_back(ScenarioPath(s, ns.route, /*step_m=*/40.0, noise,
                                     /*seed=*/11));
      }
      // Warm pass: fault in the spatial index pages and thread-local
      // scratch so the timed reps measure steady state.
      for (const auto& trip : trips) (void)matcher.Match(trip);
      rows.push_back(Measure("MapMatch_" + ns.name, 1, [&] {
        Rep rep;
        for (int pass = 0; pass < kScenarioPasses; ++pass) {
          for (const auto& trip : trips) {
            std::vector<EdgeId> matched =
                Timed(&rep, [&] { return matcher.Match(trip); });
            STMAKER_CHECK(matched.size() == trip.size());
            ++rep.items;
          }
        }
        return rep;
      }));
    }
  }

  // --- Routing backends: Dijkstra vs contraction hierarchy. ----------------
  // A dedicated map, larger than the bench city, so the asymptotic gap is
  // visible: uninformed Dijkstra settles O(n) nodes per query while the CH
  // search touches a few dozen regardless of distance.
  Band ch_speedup{};
  size_t routing_nodes = 0;
  {
    MapGeneratorOptions big;
    big.blocks_x = 80;
    big.blocks_y = 80;
    big.seed = 7;
    GeneratedMap metro = MapGenerator(big).Generate();
    const RoadNetwork& net = metro.network;
    routing_nodes = net.NumNodes();
    Result<ContractionHierarchy> ch = ContractionHierarchy::Build(net);
    STMAKER_CHECK(ch.ok());
    std::printf("# routing map: %zu nodes, %zu edges; hierarchy: %zu arcs "
                "(%zu shortcuts)\n",
                net.NumNodes(), net.NumEdges(), ch->NumArcs(),
                ch->NumShortcuts());

    const size_t kPairs = 600;
    std::mt19937_64 rng(123);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    pairs.reserve(kPairs);
    for (size_t i = 0; i < kPairs; ++i) {
      pairs.push_back({static_cast<NodeId>(rng() % net.NumNodes()),
                       static_cast<NodeId>(rng() % net.NumNodes())});
    }

    ShortestPathRouter dijkstra(&net);
    std::vector<double> dj_cost(kPairs, -1);
    Row dijkstra_row = Measure("RouteDijkstra", 1, [&] {
      return TimedLoop(kPairs, [&](size_t i) {
        Result<Path> p = dijkstra.Route(pairs[i].first, pairs[i].second);
        if (p.ok()) dj_cost[i] = p->cost;
        return p;
      });
    });
    Row ch_row = Measure("RouteCH", 1, [&] {
      return TimedLoop(kPairs, [&](size_t i) {
        Result<Path> p = ch->Route(pairs[i].first, pairs[i].second);
        double got = p.ok() ? p->cost : -1;
        if (std::abs(got - dj_cost[i]) >
            1e-6 * (1.0 + std::abs(dj_cost[i]))) {
          Diverged(StrFormat("CH route %zu disagrees with Dijkstra "
                             "(%.9g vs %.9g)",
                             i, got, dj_cost[i]));
        }
        return p;
      });
    });
    ch_speedup = SpeedupBand(ch_row, dijkstra_row);
    rows.insert(rows.end(), {dijkstra_row, ch_row});
    std::printf("# ch routes identical to dijkstra: yes "
                "(point-query speedup %.1fx [%.1f, %.1f])\n",
                ch_speedup.median, ch_speedup.q1, ch_speedup.q3);
  }

  // --- Trajectory-index retrieval: similarity top-K and region/time-window
  // queries (DESIGN.md §16) — the serving paths behind the `similar` and
  // `query` verbs. The indexed rows come first; the speedup record then
  // drops the index and replays a query subset through the full-corpus
  // scan fallback, insisting on identical answers — the same
  // certified-equal-output discipline as the CH rows. This section runs
  // last because the scan replay leaves the shared maker without its index.
  Band similar_speedup{};
  Band region_speedup{};
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
    auto similar = [&](size_t i) {
      Result<std::vector<TrajectoryIndex::Match>> matches =
          world.maker->SimilarTrips(corpus, query_trips[i], kSimilarK);
      STMAKER_CHECK(matches.ok());
      return std::move(matches).value();
    };
    auto region = [&](size_t i) {
      Result<std::vector<uint32_t>> trips =
          world.maker->QueryRegion(corpus, boxes[i], windows[i]);
      STMAKER_CHECK(trips.ok());
      return std::move(trips).value();
    };

    Row indexed_similar = Measure("SimilarTopK", 1, [&] {
      return TimedLoop(kSimilarQueries, similar);
    });
    Row indexed_region = Measure("RegionQuery", 1, [&] {
      return TimedLoop(kRegionQueries, region);
    });

    // Scan replay, the base of the speedups. The similarity scan
    // re-describes the whole corpus per query (sanitize → calibrate →
    // extract × corpus size), so each rep replays only a subset, compared
    // per query against the indexed answers kept below.
    const size_t kScanSimilar = 1;
    const size_t kScanRegion = 8;
    std::vector<std::vector<TrajectoryIndex::Match>> want_similar;
    for (size_t i = 0; i < kScanSimilar; ++i) {
      want_similar.push_back(similar(i));
    }
    std::vector<std::vector<uint32_t>> want_region;
    for (size_t i = 0; i < kScanRegion; ++i) want_region.push_back(region(i));
    auto same_match = [](const TrajectoryIndex::Match& a,
                         const TrajectoryIndex::Match& b) {
      return a.trip == b.trip && a.score == b.score;
    };
    world.maker->DropTrajectoryIndex();
    Row scan_similar = Measure("SimilarTopK_scan", 1, [&] {
      return TimedLoop(kScanSimilar, [&](size_t i) {
        std::vector<TrajectoryIndex::Match> got = similar(i);
        if (!std::equal(got.begin(), got.end(), want_similar[i].begin(),
                        want_similar[i].end(), same_match)) {
          Diverged(StrFormat("scan SimilarTrips(%zu) diverged from the "
                             "indexed path",
                             query_trips[i]));
        }
        return got;
      });
    });
    Row scan_region = Measure("RegionQuery_scan", 1, [&] {
      return TimedLoop(kScanRegion, [&](size_t i) {
        std::vector<uint32_t> got = region(i);
        if (got != want_region[i]) {
          Diverged(StrFormat("scan QueryRegion(%zu) diverged from the "
                             "indexed path",
                             i));
        }
        return got;
      });
    });
    similar_speedup = SpeedupBand(indexed_similar, scan_similar);
    region_speedup = SpeedupBand(indexed_region, scan_region);
    rows.insert(rows.end(),
                {indexed_similar, indexed_region, scan_similar, scan_region});
    std::printf("# indexed retrieval identical to full scan: yes "
                "(similar speedup %.0fx [%.0f, %.0f], region speedup %.1fx "
                "[%.1f, %.1f], %zu postings)\n",
                similar_speedup.median, similar_speedup.q1,
                similar_speedup.q3, region_speedup.median, region_speedup.q1,
                region_speedup.q3, index_postings);
  }

  // --- Emit JSON. -----------------------------------------------------------
  std::vector<std::string> records;
  for (const Row& r : rows) {
    records.push_back(StrFormat(
        "{\"name\": \"%s\", \"threads\": %d, \"reps\": %d, "
        "\"items_per_sec\": %s, \"p50_ms\": %s}",
        r.name.c_str(), r.threads, kReps,
        BandJson(BandOf(r.items_per_sec), 2).c_str(),
        BandJson(BandOf(r.p50_ms), 4).c_str()));
  }
  records.push_back(StrFormat(
      "{\"name\": \"ch_routing\", \"map_nodes\": %zu, \"reps\": %d, "
      "\"speedup_vs_dijkstra\": %s}",
      routing_nodes, kReps, BandJson(ch_speedup, 2).c_str()));
  records.push_back(StrFormat(
      "{\"name\": \"index_retrieval\", \"corpus_trips\": %zu, "
      "\"postings\": %zu, \"reps\": %d, \"similar_speedup_vs_scan\": %s, "
      "\"region_speedup_vs_scan\": %s}",
      raws.size(), index_postings, kReps,
      BandJson(similar_speedup, 1).c_str(),
      BandJson(region_speedup, 1).c_str()));
  records.push_back(StrFormat(
      "{\"name\": \"machine\", \"hardware_concurrency\": %u, "
      "\"cpu_model\": \"%s\"}",
      std::thread::hardware_concurrency(), CpuModel().c_str()));

  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < records.size(); ++i) {
    std::fprintf(out, "  %s%s\n", records[i].c_str(),
                 i + 1 < records.size() ? "," : "");
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
