// Seeded request streams for the three workloads and the single-threaded
// closed-loop NDJSON driver that replays them over TCP.
#ifndef PERFBENCH_DRIVER_H_
#define PERFBENCH_DRIVER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "arith.h"
#include "geo/bounding_box.h"
#include "roadnet/road_network.h"

namespace perfbench {

enum class Verb { kSummarize = 0, kSimilar, kQuery, kRoute, kReload };
constexpr size_t kNumVerbs = 5;
const char* VerbName(Verb verb);

enum class Workload { kSummarize, kRetrieve, kReload };
std::optional<Workload> ParseWorkload(std::string_view name);

/// splitmix64: every random draw of the benchmark comes from one of these,
/// seeded from the --seed argument.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// A node pair Dijkstra reaches, with its Dijkstra cost (the route check).
struct RoutePair {
  stmaker::NodeId src = 0;
  stmaker::NodeId dst = 0;
  double cost = 0;
};

/// What request generation needs to know about the generated world.
struct WorldFacts {
  size_t num_trips = 0;
  stmaker::BoundingBox extent;  ///< over every corpus fix
  double t_min = 0;
  double t_max = 0;
  std::vector<RoutePair> routes;
  std::string model_path;  ///< the container `reload` points at
};

struct Request {
  uint64_t id = 0;
  Verb verb = Verb::kSummarize;
  std::string line;
  uint32_t trip = 0;  ///< summarize, similar
  stmaker::BoundingBox box;  ///< query
  std::optional<std::pair<double, double>> window;  ///< query
  size_t route = 0;  ///< index into WorldFacts::routes
};

/// Verb shares of a stream, and the trips it draws from.
struct Mix {
  std::array<double, 4> share{};  ///< summarize, similar, query, route
  size_t hot_trips = 0;           ///< 0 = uniform over the whole corpus
};
Mix WorkloadMix(Workload workload);
/// A stream of one verb only (probes of verbs a workload does not send).
Mix SingleVerbMix(Verb verb);

constexpr double kQueryBoxShare = 0.08;       ///< box side / extent side
constexpr double kQueryWindowS = 6 * 3600.0;  ///< every other query
constexpr int kSimilarK = 5;

/// A deterministic request sequence: the same seed, facts and mix give the
/// same requests in the same order. Ids start at `first_id`.
class RequestStream {
 public:
  RequestStream(const WorldFacts* facts, uint64_t seed, Mix mix,
                uint64_t first_id);
  Request Next();
  /// The reload admin request (for the reload connection).
  Request NextReload();

 private:
  uint32_t DrawTrip();

  const WorldFacts* facts_;
  Rng rng_;
  Mix mix_;
  uint64_t next_id_;
  uint64_t queries_ = 0;
  std::vector<uint32_t> hot_;
};

/// One request sent during a phase and how it ended.
struct Record {
  uint64_t id = 0;
  Verb verb = Verb::kSummarize;
  uint32_t trip = 0;  ///< summarize, similar
  int64_t send_ns = 0;
  int64_t recv_ns = 0;  ///< 0 when the reply never arrived
  Outcome outcome = Outcome::kMissing;
  uint32_t reply_bytes = 0;
  uint64_t model_version = 0;  ///< echoed by an ok reply
  double latency_ms() const { return (recv_ns - send_ns) * 1e-6; }
};

/// Which ok replies to keep for the output checks and the replay: a seeded
/// reservoir of up to `cap[verb]` replies for each verb and model version,
/// so the sample spans the whole phase and every snapshot that served it.
struct KeepPolicy {
  uint64_t seed = 0;
  std::array<size_t, kNumVerbs> cap{};
};

struct PhaseResult {
  std::vector<Record> records;
  /// request, reply; grouped by verb, then model version
  std::vector<std::pair<Request, std::string>> kept;
  int64_t start_ns = 0;
  int64_t end_ns = 0;  ///< last reply received
};

/// When the admin connection sends its reload requests: `offset_s` into
/// the phase, then every kReloadPeriodS.
struct ReloadSchedule {
  double offset_s = 0;
};
constexpr double kReloadPeriodS = 2.0;

/// The closed-loop driver: one thread, keep-alive connections, each sending
/// its next request only after the previous reply arrived.
class ClosedLoop {
 public:
  ClosedLoop() = default;
  ~ClosedLoop();
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// `workers` request connections plus, with `admin`, one reload
  /// connection.
  bool Connect(uint16_t port, int workers, bool admin);

  /// Sends from `stream` on every worker connection until `seconds` have
  /// passed (and, with `reload`, reload requests on the admin connection),
  /// then waits for the outstanding replies; replies still missing 30 s
  /// later count as missing. `on_second` (may be empty) runs at every whole
  /// second of the phase (1, 2, ... s after its start) while it sends.
  PhaseResult Run(RequestStream& stream, double seconds,
                  const ReloadSchedule* reload, const KeepPolicy& keep,
                  const std::function<void()>& on_second = {});

 private:
  struct Conn {
    int fd = -1;
    bool admin = false;
    bool busy = false;
    Request request;
    size_t record = 0;
    std::string in;
  };
  bool Send(Conn& conn, Request request, PhaseResult& result);

  std::vector<Conn> conns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_H_
