#ifndef STMAKER_NET_NDJSON_SERVICE_H_
#define STMAKER_NET_NDJSON_SERVICE_H_

/// \file
/// \brief Transport-independent NDJSON request processor for serve mode.
///
/// NdjsonService is the protocol brain shared by every serve front-end:
/// the stdin/stdout loop and the epoll TCP server (net/server.h) both feed
/// request lines into HandleLine() and get byte-identical response lines
/// back — the golden-over-TCP test pins this. One service instance owns
/// the worker pool, the bounded-admission gate (`max_inflight`),
/// per-request deadlines measured from admission, and the watchdog thread
/// that cancels requests running past their deadline (DESIGN.md §10, §14).
///
/// Request protocol (one flat JSON object per line; the fields and their
/// JSON types are one table, checked before dispatch):
///   {"id": 1, "trip": 3, "k": 2, "eta": 0.3, "deadline_ms": 250}
///       -> summarize (async, via the pool)
///   {"id": 5, "route": 1, "src": 12, "dst": 977, "max_expansions": 10000}
///       -> road route (sync)
///   {"id": 7, "stats": 1}                         -> metrics snapshot (sync)
///   {"id": 9, "reload": 1, "model_dir": "path/model.stm"}  -> model reload
///       (async; the response fires when the reload actually ran)
///   {"id": 11, "similar": 1, "trip": 3, "k": 5, "deadline_ms": 250}
///       -> top-k similar historical trips (async, via the pool): index
///          candidate generation + exact Eq. 3 cosine re-rank, ties by
///          ascending trip id (DESIGN.md §16)
///   {"id": 13, "query": 1, "bbox": "x0,y0,x1,y1", "window": "t0,t1"}
///       -> region/time-window retrieval (async): ascending ids of trips
///          with a fix inside the box during the (optional) window
///
/// Responses carry the request id and a wire status
/// ("ok"/"deadline_exceeded"/"resource_exhausted"/...); overload is shed
/// deterministically at admission with "resource_exhausted". A known field
/// sent with the wrong JSON type is "invalid_argument" naming the field;
/// unknown fields are ignored.
///
/// Model lifecycle: the service serves a ModelManager. It pins the current
/// ModelSnapshot once per request at admission and carries that shared_ptr
/// through the request's whole lifetime — a concurrent snapshot swap can
/// never leave a request reading a half-loaded or mixed-version model, and
/// every "ok" response echoes the `model_version` it was served from. A
/// fixed model is a manager with one snapshot.

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/context.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/status.h"
#include "core/model_manager.h"
#include "core/stmaker.h"

namespace stmaker::net {

/// Serving knobs, mirroring the `stmaker_cli serve` flags.
struct NdjsonServiceOptions {
  /// Worker threads for the pooled verbs (summarize, similar, query).
  int threads = 1;
  /// Default per-request deadline (ms) when the request carries none;
  /// 0 = none, negative = deterministically already expired.
  long default_deadline_ms = 0;
  /// Bounded admission: requests beyond this many in flight are rejected
  /// with resource_exhausted instead of queueing without bound.
  long max_inflight = 64;
  /// Default node-expansion budget for route searches (0 = unlimited).
  long max_expansions = 0;
};

/// See the file comment. Thread-safe: HandleLine may be called from many
/// transport threads at once.
class NdjsonService {
 public:
  /// Delivers one response line (no trailing newline). May be invoked on
  /// the calling thread (stats/route/errors) or later on a worker thread
  /// (summaries) — transports must tolerate both.
  using ResponseFn = std::function<void(std::string line)>;

  /// Every request pins `manager->Current()` at admission and the
  /// `reload` admin verb is live. `manager` must be Initialize()d already
  /// and must outlive the service's in-flight requests; reload callbacks
  /// the manager may still fire after this service is gone touch only the
  /// transport's ResponseFn (safe — see HandleReload).
  NdjsonService(ModelManager* manager, const NdjsonServiceOptions& options);

  /// Drains and stops the watchdog.
  ~NdjsonService();

  NdjsonService(const NdjsonService&) = delete;
  NdjsonService& operator=(const NdjsonService&) = delete;

  /// Processes one request line; `respond` fires exactly once.
  void HandleLine(const std::string& line, ResponseFn respond);

  /// Blocks until every admitted request has finished and responded.
  void Drain();

  /// Appends one NDJSON span tree per summarize request to `file` (not
  /// owned; pass nullptr to disable). Call before serving traffic.
  void set_trace_log(std::FILE* file) { trace_log_ = file; }

  /// Admission totals from the worker pool (for the shutdown report).
  size_t pool_admitted() const { return pool_.admitted(); }
  size_t pool_rejected() const { return pool_.rejected(); }

  // --- wire-format helpers (shared with transports and tests) ---------------

  /// JSON string escaping for response lines (control chars, quote,
  /// backslash).
  static std::string JsonEscape(const std::string& text);

  /// Wire name of a status category ("deadline_exceeded", "ok", ...).
  static std::string WireStatusName(StatusCode code);

  /// One parsed request line, split by value type. The serve protocol is
  /// flat: numbers for the query fields, strings for `model_dir`, `bbox`
  /// and `window`.
  struct FlatJson {
    std::map<std::string, double> numbers;
    std::map<std::string, std::string> strings;
  };

  /// Parses one request line: a flat JSON object whose values are numbers
  /// or strings (with the usual backslash escapes). A hand-rolled scanner
  /// keeps the serving path dependency-free.
  static Result<FlatJson> ParseFlatJson(const std::string& line);

  /// Renders the uniform error/status response line.
  static std::string ErrorResponse(long id, const Status& status);

 private:
  /// One admitted request being tracked by the watchdog.
  struct InflightRequest {
    long id = 0;
    RequestContext::Clock::time_point deadline;
    CancelSource cancel;
  };

  /// The snapshot one request is served from, pinned once at admission.
  /// Holding it keeps the whole bundle alive for the request's lifetime —
  /// the pin that makes the swap safe.
  using Snapshot = std::shared_ptr<const ModelSnapshot>;

  void WatchdogMain();
  void MirrorCacheGauges(const STMaker& maker);
  void HandleStats(long id, const ModelSnapshot& model,
                   const ResponseFn& respond);
  void HandleRoute(long id, const ModelSnapshot& model,
                   const std::map<std::string, double>& fields,
                   const ResponseFn& respond);
  void HandleSummarize(long id, Snapshot model,
                       const std::map<std::string, double>& fields,
                       ResponseFn respond);
  void HandleSimilar(long id, Snapshot model,
                     const std::map<std::string, double>& fields,
                     ResponseFn respond);
  void HandleQuery(long id, Snapshot model, const FlatJson& fields,
                   ResponseFn respond);
  void HandleReload(long id, const FlatJson& fields, ResponseFn respond);

  /// The one admission path for the pooled verbs (summarize, similar,
  /// query): builds the request context from the wire fields (deadline
  /// from admission, `trace` attached), registers the request with the
  /// watchdog, and submits `body` under the `max_inflight` gate, answering
  /// deadline_exceeded/resource_exhausted itself. `body` runs on a worker
  /// with the admitted context and must send exactly one response.
  void SubmitPooled(long id, const std::map<std::string, double>& fields,
                    const ResponseFn& respond, Trace* trace,
                    std::function<void(const RequestContext&)> body);

  ModelManager* manager_;
  NdjsonServiceOptions options_;
  std::FILE* trace_log_ = nullptr;
  std::mutex trace_mu_;  ///< trace-log lines never interleave

  MetricsRegistry& registry_;
  Counter& c_requests_;
  Counter& c_malformed_;
  Counter& c_stats_requests_;
  Counter& c_route_requests_;
  Counter& c_reload_requests_;
  Counter& c_similar_requests_;
  Counter& c_query_requests_;
  Counter& c_watchdog_cancelled_;

  ThreadPool pool_;

  std::mutex inflight_mu_;
  std::map<uint64_t, InflightRequest> inflight_;
  uint64_t next_token_ = 0;
  std::atomic<bool> shutting_down_{false};
  std::thread watchdog_;
};

}  // namespace stmaker::net

#endif  // STMAKER_NET_NDJSON_SERVICE_H_
