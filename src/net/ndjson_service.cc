#include "net/ndjson_service.h"

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <utility>

#include "common/strings.h"
#include "common/trace.h"

namespace stmaker::net {

namespace {

/// Anchored at static-init time, so `process.uptime_ms` measures from
/// (effectively) process start rather than first stats probe.
const std::chrono::steady_clock::time_point g_process_start =
    std::chrono::steady_clock::now();

/// Parses exactly `count` comma-separated doubles ("a,b,c") into `out`.
/// Rejects trailing characters, so a malformed bbox/window string fails
/// loudly instead of truncating.
bool ParseDoubleList(const std::string& text, size_t count, double* out) {
  const char* p = text.c_str();
  for (size_t i = 0; i < count; ++i) {
    char* end = nullptr;
    out[i] = std::strtod(p, &end);
    if (end == p) return false;
    // strtod accepts "nan"/"inf"/overflowing exponents; a bbox corner or
    // window endpoint must be a real coordinate, and downstream grid math
    // assumes finiteness.
    if (!std::isfinite(out[i])) return false;
    p = end;
    if (i + 1 < count) {
      if (*p != ',') return false;
      ++p;
    }
  }
  return *p == '\0';
}

/// Saturating double→long long for client-supplied numeric fields: the
/// raw cast is UB outside the target range, and strtod happily produces
/// 1e300 from the wire. Non-finite values are rejected at parse time
/// (ParseFlatJson); the NaN branch is defense in depth.
long long ClampLL(double v, long long lo, long long hi) {
  if (std::isnan(v)) return 0;
  if (v <= static_cast<double>(lo)) return lo;
  if (v >= static_cast<double>(hi)) return hi;
  return static_cast<long long>(v);
}

/// Deadlines are clamped well inside the chrono range so converting to the
/// steady-clock duration (nanoseconds on this platform) and adding to
/// now() cannot overflow. ±11.5 days is far beyond any sane request
/// deadline.
constexpr long long kMaxDeadlineMs = 1'000'000'000;

/// The serve protocol's fields and the JSON type each one wants. HandleLine
/// checks every request against this table before dispatch, so a known
/// field sent with the wrong type is rejected, never read as absent.
/// Fields not listed here are ignored.
enum class FieldType { kNumber, kString };
struct ProtocolField {
  const char* name;
  FieldType type;
};
constexpr ProtocolField kProtocolFields[] = {
    {"id", FieldType::kNumber},          {"trip", FieldType::kNumber},
    {"k", FieldType::kNumber},           {"eta", FieldType::kNumber},
    {"deadline_ms", FieldType::kNumber}, {"max_expansions", FieldType::kNumber},
    {"src", FieldType::kNumber},         {"dst", FieldType::kNumber},
    {"stats", FieldType::kNumber},       {"route", FieldType::kNumber},
    {"reload", FieldType::kNumber},      {"similar", FieldType::kNumber},
    {"query", FieldType::kNumber},       {"model_dir", FieldType::kString},
    {"bbox", FieldType::kString},        {"window", FieldType::kString},
};

/// InvalidArgument naming the first table field (in table order) that the
/// request sent with the other JSON type.
Status CheckFieldTypes(const NdjsonService::FlatJson& fields) {
  for (const ProtocolField& field : kProtocolFields) {
    if (field.type == FieldType::kNumber &&
        fields.strings.count(field.name) != 0) {
      return Status::InvalidArgument(
          StrFormat("field '%s' wants a numeric value", field.name));
    }
    if (field.type == FieldType::kString &&
        fields.numbers.count(field.name) != 0) {
      return Status::InvalidArgument(
          StrFormat("field '%s' wants a string", field.name));
    }
  }
  return Status::OK();
}

}  // namespace

NdjsonService::NdjsonService(ModelManager* manager,
                             const NdjsonServiceOptions& options)
    : manager_(manager),
      options_(options),
      registry_(MetricsRegistry::Global()),
      c_requests_(registry_.counter("serve.requests")),
      c_malformed_(registry_.counter("serve.malformed")),
      c_stats_requests_(registry_.counter("serve.stats_requests")),
      c_route_requests_(registry_.counter("serve.route_requests")),
      c_reload_requests_(registry_.counter("serve.reload_requests")),
      c_similar_requests_(registry_.counter("serve.similar_requests")),
      c_query_requests_(registry_.counter("serve.query_requests")),
      c_watchdog_cancelled_(registry_.counter("serve.watchdog_cancelled")),
      pool_(options.threads) {
  // Watchdog: cancels admitted requests still running past their deadline
  // and logs the overrun. The library's own deadline checks normally fire
  // first; the watchdog is the backstop for code between check points.
  watchdog_ = std::thread([this] { WatchdogMain(); });
}

NdjsonService::~NdjsonService() {
  Drain();
  shutting_down_.store(true, std::memory_order_relaxed);
  if (watchdog_.joinable()) watchdog_.join();
}

void NdjsonService::Drain() { pool_.Wait(); }

void NdjsonService::WatchdogMain() {
  while (!shutting_down_.load(std::memory_order_relaxed)) {
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      auto now = RequestContext::Clock::now();
      for (auto& [token, req] : inflight_) {
        if (now >= req.deadline && !req.cancel.cancelled()) {
          double over_ms =
              std::chrono::duration<double, std::milli>(now - req.deadline)
                  .count();
          std::fprintf(stderr,
                       "stmaker_cli: watchdog: request %ld is %.1f ms over "
                       "deadline, cancelling\n",
                       req.id, over_ms);
          req.cancel.Cancel();
          c_watchdog_cancelled_.Increment();
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// Mirrors the maker's LRU cache stats into gauges so a `stats` snapshot
// carries them alongside the registry-native counters.
void NdjsonService::MirrorCacheGauges(const STMaker& maker) {
  CacheStats cal = maker.CalibrationCacheStats();
  CacheStats route = maker.RouteCacheStats();
  registry_.gauge("calibration.cache.evictions")
      .Set(static_cast<int64_t>(cal.evictions));
  registry_.gauge("popular_route.cache.evictions")
      .Set(static_cast<int64_t>(route.evictions));
}

std::string NdjsonService::JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (unsigned char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string NdjsonService::WireStatusName(StatusCode code) {
  std::string name = StatusCodeName(code);  // "DeadlineExceeded"
  std::string out;
  for (size_t i = 0; i < name.size(); ++i) {
    if (std::isupper(static_cast<unsigned char>(name[i]))) {
      if (i > 0) out += '_';
      out += static_cast<char>(
          std::tolower(static_cast<unsigned char>(name[i])));
    } else {
      out += name[i];
    }
  }
  return out;
}

Result<NdjsonService::FlatJson> NdjsonService::ParseFlatJson(
    const std::string& line) {
  FlatJson fields;
  size_t i = 0;
  auto skip_ws = [&] {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
  };
  skip_ws();
  if (i >= line.size() || line[i] != '{') {
    return Status::InvalidArgument("request is not a JSON object");
  }
  ++i;
  skip_ws();
  if (i < line.size() && line[i] == '}') {
    ++i;
  } else {
    while (true) {
      skip_ws();
      if (i >= line.size() || line[i] != '"') {
        return Status::InvalidArgument("expected a quoted field name");
      }
      size_t key_end = line.find('"', i + 1);
      if (key_end == std::string::npos) {
        return Status::InvalidArgument("unterminated field name");
      }
      std::string key = line.substr(i + 1, key_end - i - 1);
      i = key_end + 1;
      skip_ws();
      if (i >= line.size() || line[i] != ':') {
        return Status::InvalidArgument("expected ':' after field name");
      }
      ++i;
      skip_ws();
      if (i < line.size() && line[i] == '"') {
        ++i;
        std::string value;
        while (i < line.size() && line[i] != '"') {
          if (line[i] == '\\') {
            if (i + 1 >= line.size()) {
              return Status::InvalidArgument("unterminated escape in field '" +
                                             key + "'");
            }
            switch (line[i + 1]) {
              case '"': value += '"'; break;
              case '\\': value += '\\'; break;
              case '/': value += '/'; break;
              case 'n': value += '\n'; break;
              case 'r': value += '\r'; break;
              case 't': value += '\t'; break;
              default:
                return Status::InvalidArgument(
                    "unsupported escape in field '" + key + "'");
            }
            i += 2;
          } else {
            value += line[i];
            ++i;
          }
        }
        if (i >= line.size()) {
          return Status::InvalidArgument("unterminated string value in field '" +
                                         key + "'");
        }
        ++i;
        fields.strings[key] = std::move(value);
      } else {
        char* end = nullptr;
        double value = std::strtod(line.c_str() + i, &end);
        if (end == line.c_str() + i) {
          return Status::InvalidArgument("field '" + key +
                                         "' wants a number or string value");
        }
        // strtod is laxer than JSON: it accepts "nan", "inf", and turns
        // overflowing exponents into infinities. Handlers cast these
        // fields to integers (trip, k, deadline_ms, ...), where a
        // non-finite double is UB and NaN slips past range checks — so
        // they are rejected here, at the protocol boundary.
        if (!std::isfinite(value)) {
          return Status::InvalidArgument("field '" + key +
                                         "' is not a finite number");
        }
        fields.numbers[key] = value;
        i = static_cast<size_t>(end - line.c_str());
      }
      skip_ws();
      if (i < line.size() && line[i] == ',') {
        ++i;
        continue;
      }
      if (i < line.size() && line[i] == '}') {
        ++i;
        break;
      }
      return Status::InvalidArgument("expected ',' or '}' in object");
    }
  }
  skip_ws();
  if (i != line.size()) {
    return Status::InvalidArgument("trailing characters after object");
  }
  return fields;
}

std::string NdjsonService::ErrorResponse(long id, const Status& status) {
  return StrFormat("{\"id\": %ld, \"status\": \"%s\", \"error\": \"%s\"}", id,
                   WireStatusName(status.code()).c_str(),
                   JsonEscape(status.message()).c_str());
}

void NdjsonService::HandleStats(long id, const ModelSnapshot& model,
                                const ResponseFn& respond) {
  // Answered synchronously on the transport thread: a stats probe must
  // succeed even when the pool is saturated (it doubles as the
  // readiness/health check in the serve tests).
  c_stats_requests_.Increment();
  MirrorCacheGauges(*model.maker);
  registry_.gauge("process.uptime_ms")
      .Set(static_cast<int64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - g_process_start)
              .count()));
  std::string snapshot = registry_.Snapshot().ToJson();
  respond(StrFormat("{\"id\": %ld, \"status\": \"ok\", \"stats\": %s, "
                    "\"model_version\": %llu}",
                    id, snapshot.c_str(),
                    static_cast<unsigned long long>(model.version)));
}

void NdjsonService::HandleReload(long id, const FlatJson& fields,
                                 ResponseFn respond) {
  c_reload_requests_.Increment();
  std::string prefix;
  auto it = fields.strings.find("model_dir");
  if (it != fields.strings.end()) prefix = it->second;
  // The response fires from the reloader thread once this reload actually
  // ran (FIFO, never interleaved with another) — so "ok" means the swap
  // happened and `model_version` is the version now serving. The callback
  // must stay valid past this service's lifetime (the manager cancels
  // leftovers on shutdown), so it captures only the id and the
  // transport's ResponseFn — never `this`.
  manager_->RequestReload(
      std::move(prefix),
      [id, respond = std::move(respond)](const Status& status,
                                         uint64_t version) {
        if (status.ok()) {
          respond(StrFormat("{\"id\": %ld, \"status\": \"ok\", \"reloaded\": "
                            "1, \"model_version\": %llu}",
                            id, static_cast<unsigned long long>(version)));
        } else {
          respond(ErrorResponse(id, status));
        }
      });
}

void NdjsonService::HandleRoute(long id, const ModelSnapshot& model,
                                const std::map<std::string, double>& fields,
                                const ResponseFn& respond) {
  // Answered synchronously on the transport thread: a point query on the
  // routing backend is microseconds under the hierarchy, and keeping it
  // out of the pool means routing probes work even when summarization
  // has the workers saturated.
  c_route_requests_.Increment();
  auto field = [&](const std::string& key, double fallback) {
    auto it = fields.find(key);
    return it == fields.end() ? fallback : it->second;
  };
  if (fields.count("src") == 0 || fields.count("dst") == 0) {
    respond(ErrorResponse(
        id, Status::InvalidArgument(
                "route request lacks 'src' and/or 'dst' fields")));
    return;
  }
  RequestContext route_ctx;
  double route_deadline_ms =
      field("deadline_ms", static_cast<double>(options_.default_deadline_ms));
  if (route_deadline_ms != 0) {
    route_ctx.deadline =
        RequestContext::Clock::now() +
        std::chrono::milliseconds(
            ClampLL(route_deadline_ms, -kMaxDeadlineMs, kMaxDeadlineMs));
  }
  route_ctx.max_node_expansions = static_cast<size_t>(ClampLL(
      field("max_expansions", static_cast<double>(options_.max_expansions)), 0,
      std::numeric_limits<long long>::max()));
  Result<Path> path = model.maker->RoadRoute(
      static_cast<NodeId>(ClampLL(field("src", -1),
                                  std::numeric_limits<long long>::min(),
                                  std::numeric_limits<long long>::max())),
      static_cast<NodeId>(ClampLL(field("dst", -1),
                                  std::numeric_limits<long long>::min(),
                                  std::numeric_limits<long long>::max())),
      &route_ctx);
  if (!path.ok()) {
    respond(ErrorResponse(id, path.status()));
    return;
  }
  respond(StrFormat("{\"id\": %ld, \"status\": \"ok\", \"cost\": %.3f, "
                    "\"hops\": %zu, \"model_version\": %llu}",
                    id, path->cost, path->edges.size(),
                    static_cast<unsigned long long>(model.version)));
}

void NdjsonService::HandleSummarize(long id, Snapshot model,
                                    const std::map<std::string, double>& fields,
                                    ResponseFn respond) {
  auto field = [&](const std::string& key, double fallback) {
    auto it = fields.find(key);
    return it == fields.end() ? fallback : it->second;
  };
  double trip_value = field("trip", 0);
  if (trip_value < 0 || trip_value >= model->trajectories.size()) {
    respond(ErrorResponse(
        id, Status::OutOfRange(StrFormat("trip %.0f out of range (corpus has "
                                         "%zu)",
                                         trip_value,
                                         model->trajectories.size()))));
    return;
  }
  size_t trip = static_cast<size_t>(trip_value);

  SummaryOptions options;
  options.k = static_cast<int>(ClampLL(field("k", 0),
                                       std::numeric_limits<int>::min(),
                                       std::numeric_limits<int>::max()));
  options.eta = field("eta", 0.2);

  // When a trace log is attached every admitted request carries its own
  // Trace; the span tree is appended (one NDJSON line, under trace_mu_ so
  // lines never interleave) after the response is sent. Tracing only
  // observes — the response bytes are identical either way.
  std::shared_ptr<Trace> trace;
  if (trace_log_ != nullptr) trace = std::make_shared<Trace>();
  // `model` rides into the task by value: the pinned snapshot stays alive
  // until this request responds, no matter how many swaps land meanwhile.
  SubmitPooled(
      id, fields, respond, trace.get(),
      [this, id, trip, options, trace, respond,
       model = std::move(model)](const RequestContext& ctx) {
        Result<Summary> summary =
            model->maker->Summarize(model->trajectories[trip], options, &ctx);
        if (summary.ok()) {
          respond(StrFormat("{\"id\": %ld, \"status\": \"ok\", "
                            "\"partitions\": %zu, \"text\": \"%s\", "
                            "\"model_version\": %llu}",
                            id, summary->partitions.size(),
                            JsonEscape(summary->text).c_str(),
                            static_cast<unsigned long long>(model->version)));
        } else {
          respond(ErrorResponse(id, summary.status()));
        }
        if (trace != nullptr) {
          std::string json = trace->ToJson();
          std::lock_guard<std::mutex> lock(trace_mu_);
          std::fprintf(trace_log_, "{\"id\": %ld, \"trace\": %s}\n", id,
                       json.c_str());
          std::fflush(trace_log_);
        }
      });
}

void NdjsonService::SubmitPooled(
    long id, const std::map<std::string, double>& fields,
    const ResponseFn& respond, Trace* trace,
    std::function<void(const RequestContext&)> body) {
  auto field = [&](const std::string& key, double fallback) {
    auto it = fields.find(key);
    return it == fields.end() ? fallback : it->second;
  };
  // The deadline starts at admission, so queueing time counts against
  // it — a request that waited out its budget in the queue fails fast
  // instead of running anyway.
  RequestContext ctx;
  double deadline_ms =
      field("deadline_ms", static_cast<double>(options_.default_deadline_ms));
  if (deadline_ms != 0) {
    ctx.deadline = RequestContext::Clock::now() +
                   std::chrono::milliseconds(ClampLL(deadline_ms,
                                                     -kMaxDeadlineMs,
                                                     kMaxDeadlineMs));
  }
  ctx.trace = trace;
  // A deadline already expired at admission fails right here, before
  // the request can take a pool slot or race the watchdog — this keeps
  // non-positive deadline_ms a *deterministic* deadline_exceeded.
  if (Status at_admission = ctx.Check(); !at_admission.ok()) {
    respond(ErrorResponse(id, at_admission));
    return;
  }
  uint64_t token;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    token = next_token_++;
    InflightRequest req;
    req.id = id;
    req.deadline = ctx.has_deadline()
                       ? ctx.deadline
                       : RequestContext::Clock::time_point::max();
    inflight_.emplace(token, req);
    ctx.cancel = inflight_[token].cancel.token();
  }
  // `body` owns its own respond copy; this function only answers the
  // admission failures itself. `respond` is not moved into the task: when
  // TrySubmit rejects, the task is destroyed before the rejection branch
  // below still needs to answer the client.
  bool admitted = pool_.TrySubmit(
      [this, ctx, token, body = std::move(body)] {
        body(ctx);
        std::lock_guard<std::mutex> lock(inflight_mu_);
        inflight_.erase(token);
      },
      static_cast<size_t>(options_.max_inflight));
  if (!admitted) {
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      inflight_.erase(token);
    }
    respond(ErrorResponse(
        id, Status::ResourceExhausted(
                StrFormat("server at capacity (%ld requests in flight)",
                          options_.max_inflight))));
  }
}

void NdjsonService::HandleSimilar(long id, Snapshot model,
                                  const std::map<std::string, double>& fields,
                                  ResponseFn respond) {
  c_similar_requests_.Increment();
  auto field = [&](const std::string& key, double fallback) {
    auto it = fields.find(key);
    return it == fields.end() ? fallback : it->second;
  };
  if (fields.count("trip") == 0) {
    respond(ErrorResponse(
        id, Status::InvalidArgument("similar request lacks a 'trip' field")));
    return;
  }
  double trip_value = field("trip", 0);
  if (trip_value < 0 || trip_value >= model->trajectories.size()) {
    respond(ErrorResponse(
        id, Status::OutOfRange(StrFormat("trip %.0f out of range (corpus has "
                                         "%zu)",
                                         trip_value,
                                         model->trajectories.size()))));
    return;
  }
  size_t trip = static_cast<size_t>(trip_value);
  size_t k = static_cast<size_t>(
      ClampLL(field("k", 5), 0, std::numeric_limits<long long>::max()));
  SubmitPooled(
      id, fields, respond, /*trace=*/nullptr,
      [id, trip, k, respond, model = std::move(model)](
          const RequestContext& ctx) {
        Result<std::vector<TrajectoryIndex::Match>> matches =
            model->maker->SimilarTrips(model->trajectories, trip, k, &ctx);
        if (!matches.ok()) {
          respond(ErrorResponse(id, matches.status()));
          return;
        }
        std::string items;
        for (const TrajectoryIndex::Match& m : *matches) {
          if (!items.empty()) items += ", ";
          items += StrFormat("{\"trip\": %u, \"score\": %.6f}", m.trip,
                             m.score);
        }
        respond(StrFormat("{\"id\": %ld, \"status\": \"ok\", \"trip\": %zu, "
                          "\"results\": [%s], \"model_version\": %llu}",
                          id, trip, items.c_str(),
                          static_cast<unsigned long long>(model->version)));
      });
}

void NdjsonService::HandleQuery(long id, Snapshot model,
                                const FlatJson& fields, ResponseFn respond) {
  c_query_requests_.Increment();
  auto bbox_it = fields.strings.find("bbox");
  if (bbox_it == fields.strings.end()) {
    respond(ErrorResponse(
        id, Status::InvalidArgument(
                "query request lacks a 'bbox' field (\"x0,y0,x1,y1\")")));
    return;
  }
  double corner[4];
  if (!ParseDoubleList(bbox_it->second, 4, corner)) {
    respond(ErrorResponse(
        id, Status::InvalidArgument("bbox wants \"x0,y0,x1,y1\", got \"" +
                                    bbox_it->second + "\"")));
    return;
  }
  // Extend() normalizes, so the two corners may come in any order.
  BoundingBox box;
  box.Extend(Vec2{corner[0], corner[1]});
  box.Extend(Vec2{corner[2], corner[3]});
  std::optional<std::pair<double, double>> window;
  auto window_it = fields.strings.find("window");
  if (window_it != fields.strings.end()) {
    double t[2];
    if (!ParseDoubleList(window_it->second, 2, t)) {
      respond(ErrorResponse(
          id, Status::InvalidArgument("window wants \"t0,t1\", got \"" +
                                      window_it->second + "\"")));
      return;
    }
    window = std::make_pair(t[0], t[1]);
  }
  SubmitPooled(
      id, fields.numbers, respond, /*trace=*/nullptr,
      [id, box, window, respond, model = std::move(model)](
          const RequestContext& ctx) {
        Result<std::vector<uint32_t>> trips =
            model->maker->QueryRegion(model->trajectories, box, window, &ctx);
        if (!trips.ok()) {
          respond(ErrorResponse(id, trips.status()));
          return;
        }
        std::string items;
        for (uint32_t t : *trips) {
          if (!items.empty()) items += ", ";
          items += StrFormat("%u", t);
        }
        respond(StrFormat("{\"id\": %ld, \"status\": \"ok\", \"count\": "
                          "%zu, \"trips\": [%s], \"model_version\": %llu}",
                          id, trips->size(), items.c_str(),
                          static_cast<unsigned long long>(model->version)));
      });
}

void NdjsonService::HandleLine(const std::string& line, ResponseFn respond) {
  c_requests_.Increment();
  Result<FlatJson> parsed = ParseFlatJson(line);
  if (!parsed.ok()) {
    c_malformed_.Increment();
    respond(ErrorResponse(-1, parsed.status()));
    return;
  }
  const FlatJson& fields = *parsed;
  const std::map<std::string, double>& numbers = fields.numbers;
  auto it = numbers.find("id");
  long id = it == numbers.end()
                ? -1
                : static_cast<long>(ClampLL(it->second,
                                            std::numeric_limits<long>::min(),
                                            std::numeric_limits<long>::max()));
  if (Status types = CheckFieldTypes(fields); !types.ok()) {
    c_malformed_.Increment();
    respond(ErrorResponse(id, types));
    return;
  }
  if (numbers.count("reload") != 0) {
    HandleReload(id, fields, std::move(respond));
    return;
  }
  // Every non-admin request pins its model exactly once, here, and keeps
  // that snapshot for its whole lifetime.
  Snapshot model = manager_->Current();
  if (numbers.count("stats") != 0) {
    HandleStats(id, *model, respond);
    return;
  }
  if (numbers.count("route") != 0) {
    HandleRoute(id, *model, numbers, respond);
    return;
  }
  // The retrieval verbs also carry a 'trip' field, so they dispatch
  // before the bare-'trip' summarize fallthrough.
  if (numbers.count("similar") != 0) {
    HandleSimilar(id, std::move(model), numbers, std::move(respond));
    return;
  }
  if (numbers.count("query") != 0) {
    HandleQuery(id, std::move(model), fields, std::move(respond));
    return;
  }
  if (numbers.count("trip") == 0) {
    respond(ErrorResponse(
        id, Status::InvalidArgument("request lacks a 'trip' field")));
    return;
  }
  HandleSummarize(id, std::move(model), numbers, std::move(respond));
}

}  // namespace stmaker::net
