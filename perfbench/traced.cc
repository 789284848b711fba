#include "traced.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <mutex>
#include <unordered_map>

#include "checks.h"
#include "common/metrics.h"
#include "core/feature_extractor.h"
#include "core/irregularity.h"
#include "core/model_manager.h"
#include "core/partitioner.h"
#include "core/similarity.h"
#include "io/trajectory_io.h"
#include "net/ndjson_service.h"
#include "net/server.h"
#include "roadnet/map_matcher.h"
#include "system.h"
#include "traj/sanitize.h"

namespace perfbench {

namespace {

/// Server-side time of one request: handler entry to its respond().
struct ServiceSample {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t reply_bytes = 0;
};

/// Written from the event loop and worker threads; read after the server
/// has drained.
class ServiceLog {
 public:
  void Add(uint64_t request, const ServiceSample& sample) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_[request] = sample;
  }
  const ServiceSample* Find(uint64_t request) const {
    auto it = samples_.find(request);
    return it == samples_.end() ? nullptr : &it->second;
  }

 private:
  std::mutex mu_;
  std::unordered_map<uint64_t, ServiceSample> samples_;
};

/// The replay's span recorder (single thread).
class SpanLog {
 public:
  int Begin(const char* name, int parent, uint64_t request) {
    Span span;
    span.name = name;
    span.parent = parent;
    span.request = request;
    spans_.push_back(std::move(span));
    spans_.back().start_ns = NowNs();
    return static_cast<int>(spans_.size() - 1);
  }
  double End(int index) {
    Span& span = spans_[static_cast<size_t>(index)];
    span.end_ns = NowNs();
    return (span.end_ns - span.start_ns) * 1e-3;
  }
  std::vector<Span>& spans() { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Per-request values, by metric name.
using Series = std::unordered_map<std::string, std::vector<double>>;

double MedianOf(const Series& series, const std::string& name) {
  auto it = series.find(name);
  return it == series.end() ? 0.0 : Median(it->second);
}

double SumOf(const Series& series, const std::string& name) {
  auto it = series.find(name);
  if (it == series.end()) return 0;
  double sum = 0;
  for (double v : it->second) sum += v;
  return sum;
}

constexpr std::array<Verb, 4> kReadVerbs = {Verb::kSummarize, Verb::kSimilar,
                                            Verb::kQuery, Verb::kRoute};

/// Replay sample: more requests per verb than the output checks take.
KeepPolicy ReplayKeepPolicy(uint64_t seed) {
  KeepPolicy keep;
  keep.seed = seed;
  keep.cap = {128, 128, 128, 256, 0};
  return keep;
}

/// Short single-connection probe of a verb the workload does not send, so
/// every traced run reports every layer.
constexpr double kProbeS = 0.5;
constexpr int kReloadReplays = 3;
/// Summaries replayed (untimed) into the twin model before timing, so its
/// calibration and popular-route caches hold what the served model's do.
constexpr size_t kTwinWarmup = 2048;

/// Whether the workload's stream sends `verb` (reloads are not in a mix).
bool Sends(Workload workload, Verb verb) {
  return verb != Verb::kReload &&
         WorkloadMix(workload).share[static_cast<size_t>(verb)] > 0;
}

}  // namespace

bool RunTraced(const std::string& model_path, const std::string& data_dir,
               Workload workload, const LoadedModel& twin,
               const WorldFacts& facts, uint64_t seed, double seconds,
               const WindowStats& untraced, TracedResult* out,
               std::string* error) {
  namespace sm = stmaker;
  sm::ModelManagerOptions mopts;
  mopts.data_dir = data_dir;
  mopts.model_prefix = model_path;
  mopts.maker.num_threads = 2;
  sm::ModelManager manager(mopts);
  if (sm::Status st = manager.Initialize(); !st.ok()) {
    *error = "in-process model: " + st.ToString();
    return false;
  }
  sm::net::NdjsonServiceOptions sopts;
  sopts.threads = 2;
  sm::net::NdjsonService service(&manager, sopts);
  ServiceLog service_log;
  sm::net::TcpServerOptions topts;
  topts.num_loops = 1;
  sm::net::TcpServer server(
      topts, [&service, &service_log](
                 std::string line,
                 const sm::net::TcpServer::ResponseFn& respond) {
        const int64_t start = NowNs();
        // Every benchmark request line starts with {"id": N.
        const uint64_t id = std::strtoull(line.c_str() + 7, nullptr, 10);
        service.HandleLine(line, [respond, start, id,
                                  &service_log](std::string reply) {
          service_log.Add(id, {start, NowNs(),
                               static_cast<uint32_t>(reply.size())});
          respond(std::move(reply));
        });
      });
  if (sm::Status st = server.Start(); !st.ok()) {
    *error = "in-process server: " + st.ToString();
    return false;
  }

  // --- traced window --------------------------------------------------
  struct CacheMark {
    uint64_t version = 0;
    sm::CacheStats calibration;
    sm::CacheStats routes;
  };
  auto mark = [&manager] {
    auto snap = manager.Current();
    return CacheMark{snap->version, snap->maker->CalibrationCacheStats(),
                     snap->maker->RouteCacheStats()};
  };
  CacheMark before;
  WindowStats traced;
  if (!MeasureWindow(server.port(), -1, workload, facts, seed, seconds,
                     ReplayKeepPolicy(seed), [&] { before = mark(); },
                     &traced, error)) {
    return false;
  }
  out->tally = traced.tally;

  std::array<PhaseResult, 4> probes;
  for (Verb verb : kReadVerbs) {
    if (Sends(workload, verb)) continue;
    ClosedLoop loop;
    if (!loop.Connect(server.port(), 1, false)) {
      *error = "cannot connect to the in-process server";
      return false;
    }
    const size_t v = static_cast<size_t>(verb);
    RequestStream stream(&facts, seed ^ (0x70726f6265ULL + v),
                         SingleVerbMix(verb), (1ULL << 41) + (v << 32));
    probes[v] = loop.Run(stream, kProbeS, nullptr, ReplayKeepPolicy(seed));
    for (const Record& r : probes[v].records) out->tally.Add(r.outcome);
  }
  // Cache counters cover the window and the probes; across a swap the
  // caches start empty, so they count from the last swap.
  CacheMark after = mark();
  if (after.version != before.version) before = CacheMark{};
  server.SignalShutdown();
  server.Wait();
  manager.WaitIdle();
  service.Drain();

  std::vector<Metric>& m = out->metrics;
  auto add = [&m](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };

  // --- net: window requests, client span with the service span as child
  std::array<std::vector<double>, 4> client_ms;
  std::vector<double> service_us, transport_us, reply_bytes;
  auto client_latencies = [&](const PhaseResult& phase) {
    for (const Record& r : phase.records) {
      if (r.outcome != Outcome::kOk || r.verb == Verb::kReload) continue;
      client_ms[static_cast<size_t>(r.verb)].push_back(r.latency_ms());
    }
  };
  client_latencies(traced.phase);
  for (const PhaseResult& p : probes) client_latencies(p);
  for (const Record& r : traced.phase.records) {
    if (r.outcome != Outcome::kOk || r.verb == Verb::kReload) continue;
    const ServiceSample* s = service_log.Find(r.id);
    if (s == nullptr) continue;
    std::vector<Span> spans(2);
    spans[0] = {"client", r.send_ns, r.recv_ns, -1, r.id};
    spans[1] = {"net.service", s->start_ns, s->end_ns, 0, r.id};
    service_us.push_back((s->end_ns - s->start_ns) * 1e-3);
    transport_us.push_back(SelfTimeNs(spans, 0) * 1e-3);
    reply_bytes.push_back(s->reply_bytes);
  }
  if (service_us.empty()) {
    *error = "the traced window recorded no service spans";
    return false;
  }

  // --- replay ---------------------------------------------------------
  std::vector<std::pair<Request, std::string>> replay = traced.phase.kept;
  std::vector<Record> summarize_history;
  for (const Record& r : traced.phase.records) {
    if (r.verb == Verb::kSummarize) summarize_history.push_back(r);
  }
  for (Verb verb : kReadVerbs) {
    const PhaseResult& p = probes[static_cast<size_t>(verb)];
    replay.insert(replay.end(), p.kept.begin(), p.kept.end());
    for (const Record& r : p.records) {
      if (r.verb == Verb::kSummarize) summarize_history.push_back(r);
    }
  }
  // What to check: a seeded shuffle of the replay sample, within the output
  // checks' caps.
  std::vector<const std::pair<Request, std::string>*> shuffled;
  for (const auto& entry : replay) shuffled.push_back(&entry);
  Rng draws(seed ^ 0x636865636bULL);
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[draws.Below(i)]);
  }
  const KeepPolicy check_caps = DefaultKeepPolicy(seed);
  std::array<size_t, kNumVerbs> checked{};
  for (const auto* entry : shuffled) {
    const size_t v = static_cast<size_t>(entry->first.verb);
    if (checked[v]++ < check_caps.cap[v]) out->kept.push_back(*entry);
  }

  auto snap = manager.Current();
  const sm::STMaker& served = *snap->maker;
  const std::vector<sm::RawTrajectory>& corpus = snap->trajectories;
  const sm::STMaker& parts = *twin.maker;
  const sm::STMakerOptions opts = mopts.maker;
  const size_t warm_from = summarize_history.size() > kTwinWarmup
                               ? summarize_history.size() - kTwinWarmup
                               : 0;
  for (size_t i = warm_from; i < summarize_history.size(); ++i) {
    (void)parts.Summarize(twin.corpus[summarize_history[i].trip]);
  }
  sm::FeatureExtractor extractor(&twin.network, twin.landmarks.get(),
                                 &parts.registry(), opts.extraction);
  sm::MapMatcher matcher(&twin.network, opts.extraction.matcher);
  sm::IrregularityAnalyzer analyzer(&parts.registry(), &parts.popular_routes(),
                                    parts.feature_map());
  sm::Partitioner partitioner;
  const std::vector<double> weights = served.registry().Weights();
  sm::Counter& ch_searches =
      sm::MetricsRegistry::Global().counter("router.ch.searches");
  sm::Counter& ch_expanded =
      sm::MetricsRegistry::Global().counter("router.ch.nodes_expanded");
  uint64_t searches = 0;
  uint64_t expanded = 0;

  SpanLog log;
  Series series;
  std::vector<double> window_direct_us, window_service_us;
  for (const auto& [request, reply] : replay) {
    // Reloads are replayed on their own below.
    if (request.verb == Verb::kReload || ClassifyReply(reply) != Outcome::kOk) {
      continue;
    }
    const uint64_t id = request.id;
    int parse = log.Begin("net.parse", -1, id);
    (void)sm::net::NdjsonService::ParseFlatJson(request.line);
    const double parse_us = log.End(parse);
    double direct_us = 0;
    switch (request.verb) {
      case Verb::kSummarize: {
        const sm::RawTrajectory& raw = corpus[request.trip];
        int total = log.Begin("core.summarize", -1, id);
        sm::Result<sm::Summary> summary = served.Summarize(raw);
        direct_us = log.End(total);
        int root = log.Begin("replay.summarize", -1, id);
        int s = log.Begin("traj.sanitize", root, id);
        auto sanitized = sm::SanitizeTrajectory(raw, opts.sanitize);
        const double sanitize_us = log.End(s);
        if (!summary.ok() || !sanitized.ok()) break;
        int c = log.Begin("traj.calibrate", root, id);
        auto calibrated = parts.Calibrate(*sanitized);
        const double calibrate_us = log.End(c);
        if (!calibrated.ok()) break;
        int e = log.Begin("core.extract", root, id);
        auto features = extractor.Extract(*calibrated);
        const double extract_us = log.End(e);
        if (!features.ok()) break;
        std::vector<sm::Vec2> fixes;
        for (const sm::RawSample& f : calibrated->raw.samples) {
          fixes.push_back(f.pos);
        }
        int mm = log.Begin("roadnet.map_match", root, id);
        (void)matcher.Match(fixes);
        const double match_us = log.End(mm);
        // Normalisation and similarities: untimed glue, as in Summarize,
        // so they land in core.unattributed_us.
        const sm::SymbolicTrajectory& symbolic = calibrated->symbolic;
        const size_t segments = symbolic.NumSegments();
        auto normalized = sm::NormalizeSegmentFeatures(*features);
        std::vector<double> similarities, significance;
        for (size_t i = 0; i + 1 < segments; ++i) {
          similarities.push_back(
              sm::SegmentSimilarity(normalized[i], normalized[i + 1], weights));
          significance.push_back(
              twin.landmarks->landmark(symbolic.samples[i + 1].landmark)
                  .significance);
        }
        sm::PartitionOptions popt;
        popt.ca = sm::SummaryOptions().ca;
        popt.k = 0;
        int p = log.Begin("core.partition", root, id);
        auto partition =
            partitioner.Partition(similarities, significance, popt);
        const double partition_us = log.End(p);
        if (!partition.ok()) break;
        double select_us = 0;
        for (const auto& [begin, end] : partition->partitions) {
          int q = log.Begin("core.select", root, id);
          (void)analyzer.IrregularRates(symbolic, *features, begin, end);
          select_us += log.End(q);
        }
        log.End(root);
        series["core.summarize_us"].push_back(direct_us);
        series["traj.sanitize_us"].push_back(sanitize_us);
        series["traj.calibrate_us"].push_back(calibrate_us);
        series["core.extract_us"].push_back(extract_us);
        series["roadnet.map_match_us"].push_back(match_us);
        series["core.partition_us"].push_back(partition_us);
        series["core.select_us"].push_back(select_us);
        series["core.segments"].push_back(static_cast<double>(segments));
        series["core.partitions"].push_back(
            static_cast<double>(partition->partitions.size()));
        break;
      }
      case Verb::kSimilar: {
        int total = log.Begin("index.similar", -1, id);
        auto matches = served.SimilarTrips(corpus, request.trip, kSimilarK);
        direct_us = log.End(total);
        const sm::TrajectoryIndex* index = served.trip_index();
        if (!matches.ok() || index == nullptr) break;
        const sm::TripDescriptor& query = index->descriptors()[request.trip];
        int topk = log.Begin("index.topk", -1, id);
        (void)index->SimilarTopK(query, kSimilarK, weights, nullptr);
        series["index.topk_us"].push_back(log.End(topk));
        series["index.similar_us"].push_back(direct_us);
        series["index.similar_candidates"].push_back(
            static_cast<double>(index->SimilarCandidates(query).size()));
        series["index.similar_returned"].push_back(
            static_cast<double>(matches->size()));
        break;
      }
      case Verb::kQuery: {
        int total = log.Begin("index.query", -1, id);
        auto trips = served.QueryRegion(corpus, request.box, request.window);
        direct_us = log.End(total);
        const sm::TrajectoryIndex* index = served.trip_index();
        if (!trips.ok() || index == nullptr) break;
        int cand = log.Begin("index.region_candidates", -1, id);
        auto candidates = index->RegionCandidates(
            request.box, request.window.has_value(),
            request.window ? request.window->first : 0,
            request.window ? request.window->second : 0, nullptr);
        series["index.region_candidates_us"].push_back(log.End(cand));
        if (!candidates.ok()) break;
        series["index.query_us"].push_back(direct_us);
        series["index.region_candidates"].push_back(
            static_cast<double>(candidates->size()));
        series["index.region_returned"].push_back(
            static_cast<double>(trips->size()));
        break;
      }
      case Verb::kRoute: {
        const RoutePair& pair = facts.routes[request.route];
        const uint64_t s0 = ch_searches.value();
        const uint64_t e0 = ch_expanded.value();
        int total = log.Begin("roadnet.route", -1, id);
        (void)served.RoadRoute(pair.src, pair.dst);
        direct_us = log.End(total);
        searches += ch_searches.value() - s0;
        expanded += ch_expanded.value() - e0;
        series["roadnet.route_us"].push_back(direct_us);
        break;
      }
      case Verb::kReload:
        break;
    }
    const ServiceSample* s = service_log.Find(id);
    if (Sends(workload, request.verb) && s != nullptr && direct_us > 0) {
      series["net.parse_us"].push_back(parse_us);
      window_direct_us.push_back(direct_us);
      window_service_us.push_back((s->end_ns - s->start_ns) * 1e-3);
    }
  }
  snap.reset();  // the reload replay swaps snapshots

  // --- reload replay: ModelManager::Reload, then each load step directly
  for (int i = 0; i < kReloadReplays; ++i) {
    const uint64_t id = (1ULL << 42) + static_cast<uint64_t>(i);
    int total = log.Begin("model.reload", -1, id);
    sm::Status reloaded = manager.Reload(model_path);
    const double reload_ms = log.End(total) * 1e-3;
    out->tally.Add(reloaded.ok() ? Outcome::kOk : Outcome::kNotOk);
    if (!reloaded.ok()) {
      *error = "in-process reload: " + reloaded.ToString();
      return false;
    }
    {
      auto fresh = manager.Current();
      int first = log.Begin("model.postswap_first", -1, id);
      (void)fresh->maker->Summarize(
          fresh->trajectories[facts.num_trips > 0
                                  ? static_cast<size_t>(i) % facts.num_trips
                                  : 0]);
      series["model.postswap_first_ms"].push_back(log.End(first) * 1e-3);
    }
    int root = log.Begin("replay.reload", -1, id);
    int o = log.Begin("io.open", root, id);
    auto container = sm::MappedContainer::Open(model_path);
    series["io.open_ms"].push_back(log.End(o) * 1e-3);
    if (!container.ok()) break;
    int n = log.Begin("io.network", root, id);
    auto network = sm::LoadNetworkFromContainer(**container);
    series["io.network_ms"].push_back(log.End(n) * 1e-3);
    if (!network.ok()) break;
    int l = log.Begin("io.landmarks", root, id);
    auto landmarks = sm::LoadLandmarksFromContainer(**container, *network);
    series["io.landmarks_ms"].push_back(log.End(l) * 1e-3);
    if (!landmarks.ok()) break;
    int c = log.Begin("io.corpus_parse", root, id);
    auto trips = sm::ReadTrajectoriesCsv(data_dir + "/trajectories.csv");
    series["io.corpus_parse_ms"].push_back(log.End(c) * 1e-3);
    int ml = log.Begin("core.model_load", root, id);
    sm::STMaker loaded(&*network, &*landmarks, sm::FeatureRegistry::BuiltIn(),
                       opts);
    (void)loaded.LoadModelContainer(**container);
    series["core.model_load_ms"].push_back(log.End(ml) * 1e-3);
    log.End(root);
    series["model.reload_ms"].push_back(reload_ms);
  }

  // --- metrics ----------------------------------------------------------
  add("net.parse_us", MedianOf(series, "net.parse_us"), "us");
  add("net.service_us", Median(service_us), "us");
  add("net.admit_us", Median(window_service_us) - Median(window_direct_us),
      "us");
  add("net.transport_us", Median(transport_us), "us");
  add("net.reply_bytes", Median(reply_bytes), "B");
  add("net.p99_ms", traced.p99_ms, "ms");
  add("net.p99_beyond", static_cast<double>(traced.beyond_p99), "count");
  for (Verb verb : kReadVerbs) {
    const std::string name = std::string("verb.") + VerbName(verb) + "_ms";
    m.push_back({name, Median(client_ms[static_cast<size_t>(verb)]), "ms"});
  }

  const double summarize_us = MedianOf(series, "core.summarize_us");
  std::vector<double> stage_us;
  for (const char* stage : {"traj.sanitize_us", "traj.calibrate_us",
                            "core.extract_us", "core.partition_us",
                            "core.select_us"}) {
    stage_us.push_back(MedianOf(series, stage));
  }
  add("core.summarize_us", summarize_us, "us");
  add("traj.sanitize_us", stage_us[0], "us");
  add("traj.calibrate_us", stage_us[1], "us");
  add("core.extract_us", stage_us[2], "us");
  add("roadnet.map_match_us", MedianOf(series, "roadnet.map_match_us"), "us");
  add("core.partition_us", stage_us[3], "us");
  add("core.select_us", stage_us[4], "us");
  add("core.unattributed_us", Residual(summarize_us, stage_us), "us");
  add("core.segments", MedianOf(series, "core.segments"), "count");
  add("core.partitions", MedianOf(series, "core.partitions"), "count");
  const uint64_t calib_lookups =
      after.calibration.lookups() - before.calibration.lookups();
  const uint64_t route_lookups =
      after.routes.lookups() - before.routes.lookups();
  add("traj.calib_lookups", static_cast<double>(calib_lookups), "count");
  add("traj.calib_hit_ratio",
      calib_lookups == 0 ? 0.0
                         : static_cast<double>(after.calibration.hits -
                                               before.calibration.hits) /
                               static_cast<double>(calib_lookups),
      "ratio");
  add("core.route_cache_lookups", static_cast<double>(route_lookups), "count");
  add("core.route_cache_hit_ratio",
      route_lookups == 0
          ? 0.0
          : static_cast<double>(after.routes.hits - before.routes.hits) /
                static_cast<double>(route_lookups),
      "ratio");

  const double similar_us = MedianOf(series, "index.similar_us");
  const double topk_us = MedianOf(series, "index.topk_us");
  add("index.similar_us", similar_us, "us");
  add("index.topk_us", topk_us, "us");
  add("index.similar_unattributed_us", Residual(similar_us, {topk_us}), "us");
  add("index.similar_candidates", MedianOf(series, "index.similar_candidates"),
      "count");
  const double similar_cands = SumOf(series, "index.similar_candidates");
  add("index.similar_yield",
      similar_cands > 0
          ? SumOf(series, "index.similar_returned") / similar_cands
          : 0.0,
      "ratio");
  const double query_us = MedianOf(series, "index.query_us");
  const double region_us = MedianOf(series, "index.region_candidates_us");
  add("index.query_us", query_us, "us");
  add("index.region_candidates_us", region_us, "us");
  add("index.query_unattributed_us", Residual(query_us, {region_us}), "us");
  add("index.region_candidates", MedianOf(series, "index.region_candidates"),
      "count");
  const double region_cands = SumOf(series, "index.region_candidates");
  add("index.region_yield",
      region_cands > 0 ? SumOf(series, "index.region_returned") / region_cands
                       : 0.0,
      "ratio");
  add("roadnet.route_us", MedianOf(series, "roadnet.route_us"), "us");
  add("roadnet.nodes_expanded",
      searches > 0 ? static_cast<double>(expanded) /
                         static_cast<double>(searches)
                   : 0.0,
      "count");

  const double reload_ms = MedianOf(series, "model.reload_ms");
  std::vector<double> load_ms;
  for (const char* step : {"io.open_ms", "io.network_ms", "io.landmarks_ms",
                           "io.corpus_parse_ms", "core.model_load_ms"}) {
    load_ms.push_back(MedianOf(series, step));
  }
  add("model.reload_ms", reload_ms, "ms");
  add("io.open_ms", load_ms[0], "ms");
  add("io.network_ms", load_ms[1], "ms");
  add("io.landmarks_ms", load_ms[2], "ms");
  add("io.corpus_parse_ms", load_ms[3], "ms");
  add("core.model_load_ms", load_ms[4], "ms");
  add("model.unattributed_ms", Residual(reload_ms, load_ms), "ms");
  add("model.postswap_first_ms", MedianOf(series, "model.postswap_first_ms"),
      "ms");

  add("trace.overhead_p50_ms", traced.p50_ms - untraced.p50_ms, "ms");
  add("trace.overhead_rps", traced.throughput_rps - untraced.throughput_rps,
      "req/s");

  out->spans = std::move(log.spans());
  std::unordered_map<uint64_t, const Record*> by_id;
  for (const Record& r : traced.phase.records) by_id[r.id] = &r;
  for (const auto& entry : traced.phase.kept) {
    const ServiceSample* s = service_log.Find(entry.first.id);
    auto r = by_id.find(entry.first.id);
    if (s == nullptr || r == by_id.end()) continue;
    const int client = static_cast<int>(out->spans.size());
    out->spans.push_back(
        {"client", r->second->send_ns, r->second->recv_ns, -1, r->first});
    out->spans.push_back(
        {"net.service", s->start_ns, s->end_ns, client, r->first});
  }
  return true;
}

}  // namespace perfbench
