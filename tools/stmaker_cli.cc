// stmaker_cli — command-line front end to the STMaker pipeline.
//
// Workflows:
//
//   # Generate a synthetic dataset (map + POIs + taxi corpus) into a dir:
//   stmaker_cli gen --dir /tmp/city --seed 42 --blocks 16 --trips 800
//
//   # Summarize one trip of the corpus (trained on the rest):
//   stmaker_cli summarize --dir /tmp/city --trip 3 [--k 2] [--eta 0.2]
//                         [--json]
//
//   # Train once and save the model, its world, and the trajectories.csv
//   # serving corpus as the single-file binary container the server mmaps
//   # (docs/FORMAT.md; multi-threaded ingestion, --threads 0 = all cores,
//   # output identical at any thread count):
//   stmaker_cli train --dir /tmp/city --model /tmp/city/model.stm --threads 4
//
//   # Summarize using a saved model (no re-training, no CSV read):
//   stmaker_cli summarize --trip 3 --model /tmp/city/model.stm
//
//   # Check a container end to end and copy it (same bytes):
//   stmaker_cli pack --model /tmp/city/model.stm --out /tmp/city/copy.stm
//
//   # Corpus-level feature-frequency statistics:
//   stmaker_cli stats --dir /tmp/city [--trips 200]
//
//   # Aggregate (group) summary of a time window:
//   stmaker_cli group --dir /tmp/city --from-hour 7 --to-hour 10
//
//   # Serve summarization requests over stdin/stdout NDJSON (one JSON
//   # object per line; see README "Serving"):
//   stmaker_cli serve --dir /tmp/city --model /tmp/city/model.stm
//                     --deadline_ms 500 --max_inflight 64 --threads 4
//
// The dataset directory holds plain CSV files (see src/io/), so real map
// and trajectory data can be dropped in using the same schema. CSV is an
// input only; the saved model is always the container.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/context.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "common/trace.h"
#include "io/json.h"
#include "net/ndjson_service.h"
#include "net/server.h"

#include "core/corpus_stats.h"
#include "core/group_summarizer.h"
#include "core/model_manager.h"
#include "core/stmaker.h"
#include "io/poi_io.h"
#include "io/road_network_io.h"
#include "geo/projection.h"
#include "io/geojson.h"
#include "io/summary_json.h"
#include "io/trajectory_io.h"
#include "landmark/poi_generator.h"
#include "roadnet/map_generator.h"
#include "traj/generator.h"

using namespace stmaker;

namespace {

struct Args {
  std::map<std::string, std::string> options;

  bool Has(const std::string& key) const { return options.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
};

// Exit codes: every Status category maps to a distinct code so scripts can
// tell "bad input" from "bad environment" without parsing stderr. Keep this
// table in sync with Usage() below and the README troubleshooting table.
constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;

int ExitCodeFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return kExitOk;
    case StatusCode::kInvalidArgument:
      return 3;
    case StatusCode::kNotFound:
      return 4;
    case StatusCode::kOutOfRange:
      return 5;
    case StatusCode::kFailedPrecondition:
      return 6;
    case StatusCode::kInternal:
      return 7;
    case StatusCode::kIoError:
      return 8;
    case StatusCode::kDeadlineExceeded:
      return 9;
    case StatusCode::kCancelled:
      return 10;
    case StatusCode::kResourceExhausted:
      return 11;
  }
  return 7;  // unreachable; treat unknown categories as internal
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  stmaker_cli gen --dir D [--seed N] [--blocks B] "
               "[--trips T] [--pois P]\n"
               "  stmaker_cli train --dir D --model C [--threads N]\n"
               "  stmaker_cli summarize (--dir D | --model C) --trip I "
               "[--k K] [--eta E]\n"
               "              [--json|--geojson] [--threads N]\n"
               "  stmaker_cli pack --model C --out C2\n"
               "  stmaker_cli stats --dir D [--trips T] [--threads N]\n"
               "  stmaker_cli group --dir D [--from-hour H] [--to-hour H]\n"
               "  stmaker_cli serve (--dir D | --model C) [--threads N]\n"
               "              [--deadline_ms MS] [--max_inflight N]\n"
               "              [--max_expansions N] [--trace_log PATH]\n"
               "              [--max_line_bytes B]\n"
               "              [--port P [--bind ADDR] [--listen_threads N]\n"
               "               [--max_connections N] [--idle_timeout_ms MS]\n"
               "               [--loris_timeout_ms MS] "
               "[--drain_deadline_ms MS]]\n"
               "(--threads: worker threads for training and batch "
               "summarization; 0 = all cores, default 1, max 1024; results "
               "are identical at any thread count)\n"
               "(--model C: the single-file binary model container — see "
               "docs/FORMAT.md — that train writes from the CSVs in D, with "
               "D/trajectories.csv embedded as the serving corpus and a "
               "contraction hierarchy for `route` requests; summarize, "
               "serve and reload read the world, the corpus and the model "
               "from it and no CSV. pack loads C as serve does and writes it "
               "back out: a checked copy with the same bytes. Without "
               "--model, summarize and serve train in-process from D, and "
               "serve contracts a hierarchy after each training, reloads "
               "included)\n"
               "(--port: serve NDJSON over TCP instead of stdin; 0 picks a "
               "free port, reported as `listening on ADDR:PORT` on stderr. "
               "SIGTERM/SIGINT drain gracefully: stop accepting, finish "
               "in-flight requests, flush, then exit — 0 on a clean drain, "
               "9 if connections had to be force-closed at "
               "--drain_deadline_ms)\n"
               "(serve verbs, one JSON object per line: summarize "
               "{\"trip\":T,...}, route {\"route\":1,\"src\":A,\"dst\":B}, "
               "stats {\"stats\":1}, reload {\"reload\":1,...}, similarity "
               "{\"similar\":1,\"trip\":T,\"k\":K}, region "
               "{\"query\":1,\"bbox\":\"x0,y0,x1,y1\",\"window\":\"t0,t1\"} "
               "— see README)\n"
               "\n"
               "exit codes:\n"
               "  0  success\n"
               "  2  usage error (bad command line, e.g. a flag the command "
               "does not take or a stray word)\n"
               "  3  invalid argument (malformed input data or flag value)\n"
               "  4  not found\n"
               "  5  out of range (e.g. --trip beyond the corpus)\n"
               "  6  failed precondition (e.g. model/feature-set mismatch,\n"
               "     corrupted model checksum)\n"
               "  7  internal error\n"
               "  8  I/O error (missing or unreadable file)\n"
               "  9  deadline exceeded\n"
               "  10 cancelled\n"
               "  11 resource exhausted (admission limit or search budget)\n");
  return kExitUsage;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return ExitCodeFor(status.code());
}

/// Upper bound on --threads: far above any real machine, low enough to
/// catch a mistyped value before it spawns a few million workers.
constexpr long kMaxThreads = 1024;

/// Validates --threads: 0 selects hardware concurrency, 1..1024 pass
/// through. Negative, non-numeric, or absurd counts are errors — a typo
/// like --threads -4 or --threads 40000 should fail loudly, not be
/// silently clamped into something that happens to run.
Result<int> ThreadsFlag(const Args& args) {
  if (!args.Has("threads")) return 1;
  const std::string& text = args.options.at("threads");
  char* end = nullptr;
  long value = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument("--threads wants an integer, got '" +
                                   text + "'");
  }
  if (value < 0 || value > kMaxThreads) {
    return Status::InvalidArgument(StrFormat(
        "--threads must be in [0, %ld] (0 = all cores), got %ld", kMaxThreads,
        value));
  }
  return static_cast<int>(value == 0 ? ResolveThreadCount(0) : value);
}

/// Strictly validated integer flag: the whole value must parse (no silently
/// accepted residue like "100abc"), fit in a long, and land in
/// [min_value, max_value]. Same contract as --threads: a typo fails loudly
/// with exit 3 instead of being half-read by atol.
Result<long> IntFlag(const Args& args, const std::string& name, long fallback,
                     long min_value, long max_value) {
  if (!args.Has(name)) return fallback;
  const std::string& text = args.options.at(name);
  char* end = nullptr;
  errno = 0;
  long value = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("--" + name + " wants an integer, got '" +
                                   text + "'");
  }
  if (value < min_value || value > max_value) {
    return Status::InvalidArgument(
        StrFormat("--%s must be in [%ld, %ld], got %ld", name.c_str(),
                  min_value, max_value, value));
  }
  return value;
}

/// IntFlag's twin for real-valued flags: the whole value must parse as a
/// finite double (no "nan", "inf" or residue) in [min_value, max_value].
Result<double> DoubleFlag(const Args& args, const std::string& name,
                          double fallback, double min_value,
                          double max_value) {
  if (!args.Has(name)) return fallback;
  const std::string& text = args.options.at(name);
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value)) {
    return Status::InvalidArgument("--" + name +
                                   " wants a finite number, got '" + text +
                                   "'");
  }
  if (value < min_value || value > max_value) {
    return Status::InvalidArgument(StrFormat("--%s must be in [%g, %g], got %g",
                                             name.c_str(), min_value,
                                             max_value, value));
  }
  return value;
}

/// Ceiling for --trips: far above any corpus, low enough that a typo
/// cannot ask the generator for billions of trips.
constexpr long kMaxTrips = 1'000'000;

/// A day in milliseconds: the ceiling for every timeout-ish flag. Anything
/// longer is a typo, not a configuration.
constexpr long kMaxTimeoutMs = 86'400'000;

/// --threads N -> STMakerOptions with that ingestion/serving parallelism.
STMakerOptions MakerOptions(int threads) {
  STMakerOptions options;
  options.num_threads = threads;
  return options;
}

int RunGen(const Args& args) {
  if (!args.Has("dir")) return Usage();
  const std::string dir = args.Get("dir", ".");
  Result<long> seed =
      IntFlag(args, "seed", 42, 0, std::numeric_limits<long>::max());
  if (!seed.ok()) return Fail(seed.status());
  // The generators' own minimums: a 4 x 4 block grid and one POI site.
  Result<long> blocks = IntFlag(args, "blocks", 16, 4, 1000);
  if (!blocks.ok()) return Fail(blocks.status());
  Result<long> num_pois = IntFlag(args, "pois", 300, 1, 1'000'000);
  if (!num_pois.ok()) return Fail(num_pois.status());
  Result<long> num_trips = IntFlag(args, "trips", 800, 1, kMaxTrips);
  if (!num_trips.ok()) return Fail(num_trips.status());

  MapGeneratorOptions map_options;
  map_options.blocks_x = static_cast<int>(*blocks);
  map_options.blocks_y = map_options.blocks_x;
  map_options.seed = static_cast<uint64_t>(*seed);
  GeneratedMap city = MapGenerator(map_options).Generate();

  PoiGeneratorOptions poi_options;
  poi_options.num_sites = static_cast<int>(*num_pois);
  poi_options.seed = map_options.seed + 1;
  std::vector<RawPoi> pois = PoiGenerator(poi_options).Generate(city.network);
  LandmarkIndex landmarks = LandmarkIndex::Build(city.network, pois);

  TrajectoryGenerator generator(&city.network, &landmarks);
  std::vector<GeneratedTrip> trips = generator.GenerateCorpus(
      static_cast<size_t>(*num_trips),
      /*num_travelers=*/100, /*num_days=*/14, map_options.seed + 2);
  std::vector<RawTrajectory> raws;
  raws.reserve(trips.size());
  for (const GeneratedTrip& t : trips) raws.push_back(t.raw);

  Status st = WriteRoadNetworkCsv(dir + "/network", city.network);
  if (!st.ok()) return Fail(st);
  st = WritePoisCsv(dir + "/pois.csv", pois);
  if (!st.ok()) return Fail(st);
  st = WriteTrajectoriesCsv(dir + "/trajectories.csv", raws);
  if (!st.ok()) return Fail(st);

  std::printf("wrote %s/{network_nodes.csv,network_edges.csv,pois.csv,"
              "trajectories.csv}\n", dir.c_str());
  std::printf("city: %zu nodes, %zu edges; %zu POIs; %zu trips\n",
              city.network.NumNodes(), city.network.NumEdges(), pois.size(),
              raws.size());
  return 0;
}

struct LoadedWorld {
  RoadNetwork network;
  std::unique_ptr<LandmarkIndex> landmarks;
  std::vector<RawTrajectory> trajectories;
};

Result<LoadedWorld> LoadWorld(const std::string& dir) {
  LoadedWorld world;
  STMAKER_ASSIGN_OR_RETURN(world.network,
                           ReadRoadNetworkCsv(dir + "/network"));
  STMAKER_ASSIGN_OR_RETURN(std::vector<RawPoi> pois,
                           ReadPoisCsv(dir + "/pois.csv"));
  world.landmarks = std::make_unique<LandmarkIndex>(
      LandmarkIndex::Build(world.network, pois));
  STMAKER_ASSIGN_OR_RETURN(world.trajectories,
                           ReadTrajectoriesCsv(dir + "/trajectories.csv"));
  return world;
}

int RunTrain(const Args& args) {
  if (!args.Has("dir") || !args.Has("model")) return Usage();
  Result<int> threads = ThreadsFlag(args);
  if (!threads.ok()) return Fail(threads.status());
  Result<LoadedWorld> loaded = LoadWorld(args.Get("dir", "."));
  if (!loaded.ok()) return Fail(loaded.status());
  LoadedWorld& world = *loaded;
  STMaker maker(&world.network, world.landmarks.get(),
                FeatureRegistry::BuiltIn(), MakerOptions(*threads));
  Status st = maker.Train(world.trajectories);
  if (!st.ok()) return Fail(st);
  // Contract the road network once at train time: the container carries
  // the hierarchy, and a container load never contracts one.
  st = maker.BuildRoadHierarchy();
  if (!st.ok()) return Fail(st);
  st = maker.SaveModelContainer(args.Get("model", "model.stm"),
                                world.trajectories);
  if (!st.ok()) return Fail(st);
  std::printf("trained on %zu trajectories; model saved to %s (with routing "
              "hierarchy)\n",
              maker.num_trained(), args.Get("model", "model.stm").c_str());
  return 0;
}

/// Loads a model container exactly as `serve` does, through a
/// one-snapshot ModelManager.
Result<std::unique_ptr<ModelManager>> OpenModel(const std::string& path,
                                                int threads) {
  ModelManagerOptions options;
  options.model_prefix = path;
  options.maker = MakerOptions(threads);
  auto manager = std::make_unique<ModelManager>(options);
  STMAKER_RETURN_IF_ERROR(manager->Initialize());
  return manager;
}

// pack: loads a container through every check `serve` runs and writes it
// back out. A model that loads cleanly comes out byte-identical.
int RunPack(const Args& args) {
  if (!args.Has("model") || !args.Has("out")) return Usage();
  Result<std::unique_ptr<ModelManager>> manager =
      OpenModel(args.Get("model", "model.stm"), 1);
  if (!manager.ok()) return Fail(manager.status());
  std::shared_ptr<const ModelSnapshot> model = (*manager)->Current();
  const std::string out = args.Get("out", "copy.stm");
  Status st = model->maker->SaveModelContainer(out, model->trajectories);
  if (!st.ok()) return Fail(st);
  std::printf("packed %s (%zu nodes, %zu edges, %zu landmarks, %zu "
              "trips%s%s) into %s\n",
              args.Get("model", "model.stm").c_str(), model->network.NumNodes(),
              model->network.NumEdges(), model->landmarks->size(),
              model->trajectories.size(),
              model->maker->has_road_hierarchy() ? ", routing hierarchy" : "",
              model->maker->has_trajectory_index() ? ", trajectory index" : "",
              out.c_str());
  return 0;
}

/// OutOfRange for a --trip beyond a corpus of `size` trips.
Status TripOutOfRange(size_t trip, size_t size) {
  return Status::OutOfRange("trip " + std::to_string(trip) +
                            " out of range (corpus has " +
                            std::to_string(size) + ")");
}

/// Summarizes `raw` and prints it as text, --json, or --geojson.
int PrintSummary(const Args& args, const STMaker& maker,
                 const LandmarkIndex& landmarks, const RawTrajectory& raw) {
  Result<long> k =
      IntFlag(args, "k", 0, 0, std::numeric_limits<int>::max());
  if (!k.ok()) return Fail(k.status());
  Result<double> eta = DoubleFlag(args, "eta", 0.2, 0,
                                  std::numeric_limits<double>::infinity());
  if (!eta.ok()) return Fail(eta.status());
  SummaryOptions options;
  options.k = static_cast<int>(*k);
  options.eta = *eta;
  Result<Summary> summary = maker.Summarize(raw, options);
  if (!summary.ok()) return Fail(summary.status());

  if (args.Has("json")) {
    std::printf("%s\n", SummaryToJson(*summary, maker.registry()).c_str());
  } else if (args.Has("geojson")) {
    LocalProjection projection(LatLon{39.9, 116.4});
    std::printf("%s\n",
                SummaryToGeoJson(*summary, landmarks, projection).c_str());
  } else {
    std::printf("%s\n", summary->text.c_str());
  }
  return 0;
}

int RunSummarize(const Args& args) {
  if (!args.Has("trip") || (!args.Has("dir") && !args.Has("model"))) {
    return Usage();
  }
  Result<int> threads = ThreadsFlag(args);
  if (!threads.ok()) return Fail(threads.status());
  Result<long> trip_flag =
      IntFlag(args, "trip", 0, 0, std::numeric_limits<long>::max());
  if (!trip_flag.ok()) return Fail(trip_flag.status());
  const size_t trip = static_cast<size_t>(*trip_flag);

  if (args.Has("model")) {
    // The container supplies the world, the corpus, and the model.
    Result<std::unique_ptr<ModelManager>> manager =
        OpenModel(args.Get("model", "model.stm"), *threads);
    if (!manager.ok()) return Fail(manager.status());
    std::shared_ptr<const ModelSnapshot> model = (*manager)->Current();
    if (trip >= model->trajectories.size()) {
      return Fail(TripOutOfRange(trip, model->trajectories.size()));
    }
    return PrintSummary(args, *model->maker, *model->landmarks,
                        model->trajectories[trip]);
  }

  Result<LoadedWorld> loaded = LoadWorld(args.Get("dir", "."));
  if (!loaded.ok()) return Fail(loaded.status());
  LoadedWorld& world = *loaded;
  if (trip >= world.trajectories.size()) {
    return Fail(TripOutOfRange(trip, world.trajectories.size()));
  }
  // Train on everything except the queried trip.
  STMaker maker(&world.network, world.landmarks.get(),
                FeatureRegistry::BuiltIn(), MakerOptions(*threads));
  std::vector<RawTrajectory> history;
  history.reserve(world.trajectories.size() - 1);
  for (size_t i = 0; i < world.trajectories.size(); ++i) {
    if (i != trip) history.push_back(world.trajectories[i]);
  }
  Status st = maker.Train(history);
  if (!st.ok()) return Fail(st);
  return PrintSummary(args, maker, *world.landmarks, world.trajectories[trip]);
}

int RunStats(const Args& args) {
  if (!args.Has("dir")) return Usage();
  Result<int> threads = ThreadsFlag(args);
  if (!threads.ok()) return Fail(threads.status());
  Result<long> limit = IntFlag(args, "trips", 200, 0, kMaxTrips);
  if (!limit.ok()) return Fail(limit.status());
  Result<LoadedWorld> loaded = LoadWorld(args.Get("dir", "."));
  if (!loaded.ok()) return Fail(loaded.status());
  LoadedWorld& world = *loaded;

  STMaker maker(&world.network, world.landmarks.get(),
                FeatureRegistry::BuiltIn(), MakerOptions(*threads));
  Status st = maker.Train(world.trajectories);
  if (!st.ok()) return Fail(st);

  std::span<const RawTrajectory> batch(
      world.trajectories.data(),
      std::min(static_cast<size_t>(*limit), world.trajectories.size()));
  std::vector<Result<Summary>> results = maker.SummarizeBatch(batch);
  std::vector<Summary> summaries;
  for (Result<Summary>& summary : results) {
    if (summary.ok()) summaries.push_back(std::move(summary).value());
  }
  std::vector<double> ff =
      ComputeFeatureFrequencies(summaries, maker.registry().size());
  std::printf("feature frequencies over %zu summaries:\n", summaries.size());
  for (size_t f = 0; f < ff.size(); ++f) {
    std::printf("  %-20s %.3f\n", maker.registry().def(f).id.c_str(), ff[f]);
  }
  return 0;
}

int RunGroup(const Args& args) {
  if (!args.Has("dir")) return Usage();
  Result<double> from_h = DoubleFlag(args, "from-hour", 0, 0, 24);
  if (!from_h.ok()) return Fail(from_h.status());
  Result<double> to_h = DoubleFlag(args, "to-hour", 24, 0, 24);
  if (!to_h.ok()) return Fail(to_h.status());
  Result<LoadedWorld> loaded = LoadWorld(args.Get("dir", "."));
  if (!loaded.ok()) return Fail(loaded.status());
  LoadedWorld& world = *loaded;

  STMaker maker(&world.network, world.landmarks.get(),
                FeatureRegistry::BuiltIn());
  Status st = maker.Train(world.trajectories);
  if (!st.ok()) return Fail(st);

  std::vector<RawTrajectory> group;
  for (const RawTrajectory& raw : world.trajectories) {
    double tod_h = TimeOfDaySeconds(raw.StartTime()) / 3600.0;
    if (tod_h >= *from_h && tod_h < *to_h) group.push_back(raw);
  }
  GroupSummarizer group_summarizer(&maker);
  Result<GroupSummary> summary = group_summarizer.Summarize(group);
  if (!summary.ok()) return Fail(summary.status());
  std::printf("window %02.0f:00-%02.0f:00, %zu trips (%zu unusable)\n",
              *from_h, *to_h, summary->num_trajectories, summary->num_failed);
  std::printf("%s\n", summary->text.c_str());
  return 0;
}

// --- serve mode -------------------------------------------------------------
//
// NDJSON request/response loop, over stdin/stdout by default or over TCP
// with --port (see src/net/server.h for the epoll front-end and
// src/net/ndjson_service.h for the shared protocol brain — both transports
// produce byte-identical responses, pinned by tests/serve_tcp_test.sh).
// One flat JSON object per line; numeric fields only:
//
//   {"id": 1, "trip": 3}
//   {"id": 2, "trip": 7, "k": 2, "eta": 0.3, "deadline_ms": 250}
//
// Responses (one line each, order may differ from request order under
// --threads > 1; correlate by id):
//
//   {"id": 1, "status": "ok", "partitions": 2, "text": "..."}
//   {"id": 2, "status": "deadline_exceeded", "error": "..."}
//
// A per-request "deadline_ms" overrides --deadline_ms; a non-positive value
// means already expired (deterministic deadline_exceeded — used by tests).
// Requests beyond --max_inflight are rejected immediately with
// "resource_exhausted" instead of queueing without bound. `route` and
// `stats` requests answer synchronously (see ndjson_service.h).
//
// TCP mode (--port; 0 picks an ephemeral port, reported on stderr as
// "listening on HOST:PORT"): multiple clients, pipelined requests over
// keep-alive connections, --listen_threads epoll event loops,
// --max_connections accept-time shedding, idle/slow-loris timeouts, and
// graceful drain on SIGTERM/SIGINT — stop accepting, finish every admitted
// request within --drain_deadline_ms, flush, then exit (exit code 9 when
// stragglers had to be force-closed, 0 on a clean drain).
//
// Model lifecycle (both transports): the model is held by a ModelManager
// as an immutable versioned snapshot; SIGHUP or a
// {"reload": 1, "model_dir": "path.stm"} request swaps in a freshly loaded
// one with zero downtime (in-flight requests finish on the snapshot they
// started with), and a failed load rolls back to the serving snapshot —
// see core/model_manager.h and DESIGN.md §15.

/// The running TCP server, for the signal handler (atomic pointer loads
/// are async-signal-safe; SignalShutdown is written to be called from a
/// handler).
std::atomic<net::TcpServer*> g_tcp_server{nullptr};

void HandleShutdownSignal(int) {
  net::TcpServer* server = g_tcp_server.load(std::memory_order_acquire);
  if (server != nullptr) server->SignalShutdown();
}

/// The serving model manager, for the SIGHUP handler (NotifySighup is one
/// atomic store — async-signal-safe by design).
std::atomic<ModelManager*> g_model_manager{nullptr};

void HandleReloadSignal(int) {
  ModelManager* manager = g_model_manager.load(std::memory_order_acquire);
  if (manager != nullptr) manager->NotifySighup();
}

int RunServe(const Args& args) {
  if (!args.Has("dir") && !args.Has("model")) return Usage();
  Result<int> threads = ThreadsFlag(args);
  if (!threads.ok()) return Fail(threads.status());
  // Serving knobs are validated as strictly as --threads: garbage, parse
  // residue ("250ms"), and overflow all exit 3 instead of being half-read
  // by atol. A *negative* --deadline_ms stays legal: it means "already
  // expired" and produces a deterministic deadline_exceeded (tests use it).
  Result<long> deadline_ms =
      IntFlag(args, "deadline_ms", 0, -kMaxTimeoutMs, kMaxTimeoutMs);
  if (!deadline_ms.ok()) return Fail(deadline_ms.status());
  Result<long> max_inflight = IntFlag(args, "max_inflight", 64, 1, 1'048'576);
  if (!max_inflight.ok()) return Fail(max_inflight.status());
  Result<long> max_expansions =
      IntFlag(args, "max_expansions", 0, 0, 2'000'000'000L);
  if (!max_expansions.ok()) return Fail(max_expansions.status());
  // TCP front-end knobs (only meaningful with --port).
  Result<long> port = IntFlag(args, "port", 0, 0, 65'535);
  if (!port.ok()) return Fail(port.status());
  Result<long> listen_threads = IntFlag(args, "listen_threads", 1, 1, 64);
  if (!listen_threads.ok()) return Fail(listen_threads.status());
  Result<long> max_connections =
      IntFlag(args, "max_connections", 1024, 1, 1'000'000);
  if (!max_connections.ok()) return Fail(max_connections.status());
  Result<long> idle_timeout_ms =
      IntFlag(args, "idle_timeout_ms", 60'000, 1, kMaxTimeoutMs);
  if (!idle_timeout_ms.ok()) return Fail(idle_timeout_ms.status());
  Result<long> loris_timeout_ms =
      IntFlag(args, "loris_timeout_ms", 10'000, 1, kMaxTimeoutMs);
  if (!loris_timeout_ms.ok()) return Fail(loris_timeout_ms.status());
  Result<long> drain_deadline_ms =
      IntFlag(args, "drain_deadline_ms", 5'000, 0, kMaxTimeoutMs);
  if (!drain_deadline_ms.ok()) return Fail(drain_deadline_ms.status());
  Result<long> max_line_bytes =
      IntFlag(args, "max_line_bytes", 1L << 20, 64, 1L << 30);
  if (!max_line_bytes.ok()) return Fail(max_line_bytes.status());

  // Per-request span export (NDJSON; one line per summarize request).
  std::FILE* trace_log = nullptr;
  if (args.Has("trace_log")) {
    trace_log = std::fopen(args.Get("trace_log", "").c_str(), "w");
    if (trace_log == nullptr) {
      return Fail(Status::IoError("cannot open --trace_log file '" +
                                  args.Get("trace_log", "") + "'"));
    }
  }

  // Serve-loop counters live in the global registry (shared with
  // NdjsonService and the TCP server) so the `stats` request and the
  // shutdown report read the same numbers.
  MetricsRegistry& registry = MetricsRegistry::Global();

  // Snapshot-serving setup: the manager owns the world + model as one
  // immutable versioned bundle; SIGHUP or the reload verb swaps it with
  // zero downtime and rollback on failure (DESIGN.md §15).
  ModelManagerOptions mopts;
  mopts.data_dir = args.Get("dir", "");  // read only without --model
  if (args.Has("model")) mopts.model_prefix = args.Get("model", "model.stm");
  mopts.maker = MakerOptions(*threads);
  ModelManager manager(mopts);
  if (Status st = manager.Initialize(); !st.ok()) {
    if (trace_log != nullptr) std::fclose(trace_log);
    return Fail(st);
  }
  {
    std::shared_ptr<const ModelSnapshot> snapshot = manager.Current();
    std::fprintf(stderr,
                 "stmaker_cli: serving %zu trajectories on %d threads "
                 "(router: %s, model v%llu)\n",
                 snapshot->trajectories.size(), *threads,
                 snapshot->maker->has_road_hierarchy() ? "ch" : "dijkstra",
                 static_cast<unsigned long long>(snapshot->version));
  }
  g_model_manager.store(&manager, std::memory_order_release);
  std::signal(SIGHUP, HandleReloadSignal);

  // The protocol brain is shared with the TCP front-end and the SLO
  // bench — both feed HandleLine and relay the response lines, so serving
  // over a socket is byte-identical to serving over stdin.
  net::NdjsonServiceOptions sopts;
  sopts.threads = *threads;
  sopts.default_deadline_ms = *deadline_ms;
  sopts.max_inflight = *max_inflight;
  sopts.max_expansions = *max_expansions;
  net::NdjsonService service(&manager, sopts);
  service.set_trace_log(trace_log);

  Status drain_status = Status::OK();
  if (args.Has("port")) {
    // --- TCP mode: epoll front-end, graceful drain on SIGTERM/SIGINT ---
    net::TcpServerOptions topts;
    topts.bind_address = args.Get("bind", "127.0.0.1");
    topts.port = static_cast<uint16_t>(*port);
    topts.num_loops = static_cast<int>(*listen_threads);
    topts.max_connections = static_cast<size_t>(*max_connections);
    topts.limits.max_line_bytes = static_cast<size_t>(*max_line_bytes);
    topts.limits.idle_timeout =
        std::chrono::milliseconds(*idle_timeout_ms);
    topts.limits.loris_timeout =
        std::chrono::milliseconds(*loris_timeout_ms);
    topts.drain_deadline_ms = static_cast<int>(*drain_deadline_ms);
    net::TcpServer server(
        topts, [&service](std::string request_line,
                          const net::TcpServer::ResponseFn& respond) {
          service.HandleLine(request_line, respond);
        });
    if (Status st = server.Start(); !st.ok()) {
      if (trace_log != nullptr) std::fclose(trace_log);
      return Fail(st);
    }
    // Tests (and operators using --port 0) parse the bound port from this
    // line, so it must hit stderr before any request is served.
    std::fprintf(stderr, "stmaker_cli: listening on %s:%u (%d event loops)\n",
                 topts.bind_address.c_str(), server.port(), topts.num_loops);
    std::fflush(stderr);
    g_tcp_server.store(&server, std::memory_order_release);
    std::signal(SIGTERM, HandleShutdownSignal);
    std::signal(SIGINT, HandleShutdownSignal);
    drain_status = server.Wait();
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    g_tcp_server.store(nullptr, std::memory_order_release);
    // Reload responses outlive the event loops' request tracking (they
    // fire from the reloader thread); settle them before draining so the
    // shutdown report sees final totals.
    manager.WaitIdle();
    service.Drain();
    std::fprintf(stderr,
                 "stmaker_cli: drained in %.0f ms "
                 "(%zu connections force-closed)\n",
                 server.drain_ms(), server.forced_closes());
  } else {
    // --- stdin/stdout mode: the original NDJSON loop, now behind a
    // bounded line reader so an unterminated multi-megabyte line cannot
    // grow memory without limit.
    std::mutex out_mu;  // one response line at a time
    auto respond_stdout = [&out_mu](std::string response_line) {
      std::lock_guard<std::mutex> lock(out_mu);
      std::printf("%s\n", response_line.c_str());
      std::fflush(stdout);
    };
    NdjsonReader reader(&std::cin, static_cast<size_t>(*max_line_bytes));
    std::string line;
    for (;;) {
      Result<bool> got = reader.Next(&line);
      if (!got.ok()) {
        // Oversized or truncated line: answer like any other malformed
        // request and keep serving — the reader already re-synced.
        registry.counter("serve.requests").Increment();
        registry.counter("serve.malformed").Increment();
        respond_stdout(net::NdjsonService::ErrorResponse(-1, got.status()));
        if (got.status().code() == StatusCode::kInvalidArgument &&
            !std::cin.good()) {
          break;  // truncated final line: EOF follows
        }
        continue;
      }
      if (!*got) break;  // clean EOF
      if (line.empty()) continue;
      service.HandleLine(line, respond_stdout);
    }
    // Pending reload responses write through respond_stdout; settle them
    // while the output lock is still in scope.
    manager.WaitIdle();
    service.Drain();
  }

  std::signal(SIGHUP, SIG_DFL);
  g_model_manager.store(nullptr, std::memory_order_release);

  if (trace_log != nullptr) std::fclose(trace_log);

  // Shutdown report: every request must have been answered, and the cache
  // counters tell operators whether the LRUs are sized right. The totals
  // come from the same registry the `stats` request serves — the report is
  // just the final snapshot rendered for humans.
  std::fprintf(stderr, "stmaker_cli: served %zu requests (%zu malformed, "
               "%zu admitted, %zu rejected)\n",
               static_cast<size_t>(
                   registry.counter("serve.requests").value()),
               static_cast<size_t>(
                   registry.counter("serve.malformed").value()),
               service.pool_admitted(), service.pool_rejected());
  std::shared_ptr<const ModelSnapshot> final_model = manager.Current();
  std::fprintf(stderr,
               "stmaker_cli: model v%llu (%llu reloads ok, %llu rolled "
               "back)\n",
               static_cast<unsigned long long>(final_model->version),
               static_cast<unsigned long long>(manager.reloads_ok()),
               static_cast<unsigned long long>(manager.reload_failures()));
  std::fprintf(stderr, "stmaker_cli: calibration cache: %s\n",
               final_model->maker->CalibrationCacheStats().ToString().c_str());
  std::fprintf(stderr, "stmaker_cli: popular-route cache: %s\n",
               final_model->maker->RouteCacheStats().ToString().c_str());
  MetricsSnapshot final_snapshot = MetricsRegistry::Global().Snapshot();
  for (const auto& [name, hist] : final_snapshot.histograms) {
    if (hist.count == 0) continue;
    std::fprintf(stderr,
                 "stmaker_cli: latency %s: n=%llu p50=%.3fms p95=%.3fms "
                 "p99=%.3fms\n",
                 name.c_str(), static_cast<unsigned long long>(hist.count),
                 hist.p50(), hist.p95(), hist.p99());
  }
  // A forced drain (connections still busy at the drain deadline) exits 9
  // so orchestration can tell a clean stop from a shed one.
  if (!drain_status.ok()) return Fail(drain_status);
  return 0;
}

/// A command and the flags it reads. Any other `--flag` is a usage error
/// naming it, so a mistyped or retired flag fails instead of being ignored.
struct Command {
  const char* name;
  int (*run)(const Args&);
  std::vector<std::string> flags;
};

const std::vector<Command>& Commands() {
  static const std::vector<Command> commands = {
      {"gen", RunGen, {"dir", "seed", "blocks", "trips", "pois"}},
      {"train", RunTrain, {"dir", "model", "threads"}},
      // `pack` reads no dataset, but takes --dir like every other command.
      {"pack", RunPack, {"model", "out", "dir"}},
      {"summarize",
       RunSummarize,
       {"dir", "model", "trip", "k", "eta", "json", "geojson", "threads"}},
      {"stats", RunStats, {"dir", "trips", "threads"}},
      {"group", RunGroup, {"dir", "from-hour", "to-hour"}},
      {"serve",
       RunServe,
       {"dir", "model", "threads", "deadline_ms", "max_inflight",
        "max_expansions", "trace_log", "max_line_bytes", "port", "bind",
        "listen_threads", "max_connections", "idle_timeout_ms",
        "loris_timeout_ms", "drain_deadline_ms"}},
  };
  return commands;
}

/// Reads `command`'s flags from argv[2..]. Every word is a `--flag` the
/// command reads, followed by its value unless the flag is a switch
/// (`--json`, `--geojson`). Anything else — a flag the command does not
/// read, a missing value, a stray word — is an error naming it.
Result<Args> ParseArgs(const Command& command, int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected argument '" + token + "'");
    }
    const std::string flag = token.substr(2);
    if (std::find(command.flags.begin(), command.flags.end(), flag) ==
        command.flags.end()) {
      return Status::InvalidArgument(
          StrFormat("%s does not take --%s", command.name, flag.c_str()));
    }
    if (flag == "json" || flag == "geojson") {
      args.options[flag] = "true";
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.options[flag] = argv[++i];
    } else {
      return Status::InvalidArgument("--" + flag + " wants a value");
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc >= 2 ? argv[1] : "";
  for (const Command& command : Commands()) {
    if (name != command.name) continue;
    Result<Args> args = ParseArgs(command, argc, argv);
    if (!args.ok()) {
      std::fprintf(stderr, "error: %s\n", args.status().message().c_str());
      return Usage();
    }
    return command.run(*args);
  }
  return Usage();
}
