// Deterministic chaos harness for the stmaker serve front-end.
//
// One run = one seed. The seed fully determines the *schedule*: which
// failpoints are armed in the server (and with what skip/fail windows),
// the SIGHUP flood cadence, and the chaos client's request script (route
// probes, stats probes, reloads to good/corrupt/missing models, malformed
// lines, and deadline storms) — all interleaved with open-loop loadgen
// traffic. Wall-clock interleavings still vary run to run; the point is
// that the *invariants* must hold under every interleaving the schedule
// can produce, and a failing seed replays the same schedule:
//
//   1. the server process never crashes (no death by signal);
//   2. every request the harness got a reply for is one well-formed JSON
//      object with a wire status, and no request is answered twice;
//   3. when no transport faults are armed, every request is answered
//      exactly once (with transport faults the server is entitled to kill
//      connections, dropping in-flight replies — the harness then forgives
//      exactly the requests outstanding on the dead connection);
//   4. `model_version` in every ok response is a version the server
//      actually published (1 <= v <= the final model.version gauge) —
//      a torn snapshot swap would surface as an impossible version or a
//      mangled response line;
//   5. after the storm, SIGTERM drains cleanly: exit code 0.
//
// usage:
//   chaos --cli PATH --dir DATADIR --model C [--bad_model C2]
//         [--seed N] [--duration_s S] [--qps R] [--trips T]
//         [--no-failpoints]
//
// Exit 0 = all invariants held; 1 = an invariant failed (a repro command
// line is printed); 3 = bad flags; 8 = could not start or reach the
// server.

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/strings.h"
#include "net/loadgen.h"

namespace stmaker {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  chaos --cli PATH --dir DATADIR --model C\n"
      "        [--bad_model C2] [--seed N] [--duration_s S] [--qps R]\n"
      "        [--trips T] [--no-failpoints]\n"
      "(seeded chaos run against `stmaker_cli serve`; see the file comment\n"
      " for the invariants. A failing run prints its repro command.)\n");
  return 2;
}

struct Flags {
  std::map<std::string, std::string> values;
  bool Has(const std::string& name) const { return values.count(name) != 0; }
  std::string Get(const std::string& name, const std::string& fallback) const {
    auto it = values.find(name);
    return it == values.end() ? fallback : it->second;
  }
};

Result<long> IntFlag(const Flags& flags, const std::string& name,
                     long fallback, long min_value, long max_value) {
  if (!flags.Has(name)) return fallback;
  const std::string& text = flags.values.at(name);
  char* end = nullptr;
  errno = 0;
  long value = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("--" + name + " wants an integer, got '" +
                                   text + "'");
  }
  if (value < min_value || value > max_value) {
    return Status::InvalidArgument(StrFormat("--%s must be in [%ld, %ld], got "
                                             "%ld",
                                             name.c_str(), min_value,
                                             max_value, value));
  }
  return value;
}

Result<double> DoubleFlag(const Flags& flags, const std::string& name,
                          double fallback, double min_value,
                          double max_value) {
  if (!flags.Has(name)) return fallback;
  const std::string& text = flags.values.at(name);
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      !(value >= min_value && value <= max_value)) {
    return Status::InvalidArgument(StrFormat("--%s must be a number in "
                                             "[%g, %g]",
                                             name.c_str(), min_value,
                                             max_value));
  }
  return value;
}

// --- the seeded schedule ----------------------------------------------------

/// What one seed decided to do. Everything here is derived from the seed
/// alone, so printing the seed *is* printing the schedule.
struct Schedule {
  std::string failpoint_spec;  ///< STMAKER_FAILPOINTS for the server
  bool net_faults = false;     ///< transport faults armed -> connection
                               ///< deaths are legitimate
  int sighup_count = 0;
  int sighup_interval_ms = 0;
  /// Chaos-client script: one op per entry.
  enum class Op {
    kRoute,
    kStats,
    kSummarize,
    kDeadlineStorm,  ///< summarize with an already-expired deadline
    kMalformed,
    kReloadInPlace,
    kReloadGood,
    kReloadBad,
  };
  std::vector<Op> script;
};

Schedule MakeSchedule(uint64_t seed, bool with_failpoints) {
  std::mt19937_64 rng(seed);
  Schedule schedule;

  if (with_failpoints) {
    // Candidate faults and the phase they land in. Skip counts let the
    // server's startup traffic through so every run reaches "listening" —
    // the faults then land on reloads and traffic. Fail counts are finite
    // so the final stats probe and the SIGTERM drain run fault-free: the
    // run must end deterministically clean.
    struct Candidate {
      const char* name;
      int min_skip;
      bool is_net;
    };
    const Candidate kCandidates[] = {
        {"model/reload", 0, false},  // fail a whole reload attempt outright
        {"route/stall", 10, false},
        // mmap refusal on a container (re)load: must degrade to the heap
        // fallback (container.map_fallbacks), never to a torn snapshot.
        {"container/map", 0, false},
        {"net/read", 0, true},
        {"net/write", 0, true},
    };
    int picks = 1 + static_cast<int>(rng() % 3);  // 1..3 faults per run
    std::set<size_t> chosen;
    for (int i = 0; i < picks; ++i) {
      chosen.insert(rng() % std::size(kCandidates));
    }
    for (size_t index : chosen) {
      const Candidate& candidate = kCandidates[index];
      int skip = candidate.min_skip + static_cast<int>(rng() % 40);
      int count = 1 + static_cast<int>(rng() % 3);
      if (!schedule.failpoint_spec.empty()) schedule.failpoint_spec += ";";
      schedule.failpoint_spec +=
          StrFormat("%s=%d:%d", candidate.name, skip, count);
      schedule.net_faults = schedule.net_faults || candidate.is_net;
    }
  }

  schedule.sighup_count = 3 + static_cast<int>(rng() % 8);       // 3..10
  schedule.sighup_interval_ms = 20 + static_cast<int>(rng() % 100);

  int ops = 120 + static_cast<int>(rng() % 80);  // 120..199 scripted ops
  for (int i = 0; i < ops; ++i) {
    switch (rng() % 10) {
      case 0: schedule.script.push_back(Schedule::Op::kStats); break;
      case 1:
      case 2: schedule.script.push_back(Schedule::Op::kRoute); break;
      case 3: schedule.script.push_back(Schedule::Op::kMalformed); break;
      case 4: schedule.script.push_back(Schedule::Op::kDeadlineStorm); break;
      case 5: schedule.script.push_back(Schedule::Op::kReloadInPlace); break;
      case 6: schedule.script.push_back(Schedule::Op::kReloadGood); break;
      case 7: schedule.script.push_back(Schedule::Op::kReloadBad); break;
      default: schedule.script.push_back(Schedule::Op::kSummarize); break;
    }
  }
  return schedule;
}

// --- server under test ------------------------------------------------------

/// The serve process, fork/exec'd with the schedule's failpoints in its
/// environment and stderr captured (the startup line carries the port).
struct Server {
  pid_t pid = -1;
  uint16_t port = 0;
  std::string stderr_path;
};

Result<Server> StartServer(const std::string& cli, const std::string& dir,
                           const std::string& model,
                           const std::string& failpoint_spec,
                           const std::string& stderr_path) {
  Server server;
  server.stderr_path = stderr_path;
  pid_t pid = ::fork();
  if (pid < 0) {
    return Status::IoError(StrFormat("fork: %s", std::strerror(errno)));
  }
  if (pid == 0) {
    // Child: arm the schedule's failpoints, silence stdout, capture stderr.
    if (!failpoint_spec.empty()) {
      ::setenv("STMAKER_FAILPOINTS", failpoint_spec.c_str(), 1);
    } else {
      ::unsetenv("STMAKER_FAILPOINTS");
    }
    int err_fd = ::open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                        0644);
    int null_fd = ::open("/dev/null", O_RDWR);
    if (err_fd < 0 || null_fd < 0) ::_exit(127);
    ::dup2(null_fd, STDIN_FILENO);
    ::dup2(null_fd, STDOUT_FILENO);
    ::dup2(err_fd, STDERR_FILENO);
    ::execlp(cli.c_str(), cli.c_str(), "serve", "--dir", dir.c_str(),
             "--model", model.c_str(), "--port", "0", "--threads", "2",
             (char*)nullptr);
    ::_exit(127);
  }
  server.pid = pid;

  // The startup line must appear before any request is served; poll for it.
  for (int attempt = 0; attempt < 600; ++attempt) {
    std::FILE* file = std::fopen(stderr_path.c_str(), "r");
    if (file != nullptr) {
      char line[512];
      while (std::fgets(line, sizeof line, file) != nullptr) {
        const char* at = std::strstr(line, "listening on 127.0.0.1:");
        if (at != nullptr) {
          server.port = static_cast<uint16_t>(
              std::atoi(at + std::strlen("listening on 127.0.0.1:")));
        }
      }
      std::fclose(file);
    }
    if (server.port != 0) return server;
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, WNOHANG) == pid) {
      return Status::IoError(
          StrFormat("server exited before listening (status %d); stderr at "
                    "%s",
                    wstatus, stderr_path.c_str()));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  return Status::IoError("server never printed its listening line");
}

// --- chaos client -----------------------------------------------------------

/// One line-buffered blocking TCP connection with a reader thread. Tracks
/// which request ids are outstanding; when the connection dies (legal only
/// under transport faults) the outstanding set is forgiven, not failed.
class ChaosConnection {
 public:
  explicit ChaosConnection(uint16_t port) : port_(port) {}

  ~ChaosConnection() { Close(); }

  bool Connect() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    dead_.store(false);
    reader_ = std::thread([this] { ReaderMain(); });
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
    if (reader_.joinable()) reader_.join();
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool dead() const { return dead_.load(); }

  /// Sends one request line. Returns false when the connection is gone.
  bool Send(const std::string& line) {
    std::string framed = line + "\n";
    size_t sent = 0;
    while (sent < framed.size()) {
      ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Complete response lines received so far (moved out).
  std::vector<std::string> TakeLines() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.swap(lines_);
    return out;
  }

 private:
  void ReaderMain() {
    std::string pending;
    char buffer[4096];
    for (;;) {
      ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      pending.append(buffer, static_cast<size_t>(n));
      size_t start = 0;
      for (;;) {
        size_t nl = pending.find('\n', start);
        if (nl == std::string::npos) break;
        std::lock_guard<std::mutex> lock(mu_);
        lines_.push_back(pending.substr(start, nl - start));
        start = nl + 1;
      }
      pending.erase(0, start);
    }
    dead_.store(true);
  }

  uint16_t port_;
  int fd_ = -1;
  std::thread reader_;
  std::mutex mu_;
  std::vector<std::string> lines_;
  std::atomic<bool> dead_{true};
};

/// Pulls `"key": <integer>` out of a response line. Returns false when the
/// key is absent.
bool ExtractLong(const std::string& line, const std::string& key,
                 long long* value) {
  std::string needle = "\"" + key + "\":";
  size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  at += needle.size();
  while (at < line.size() &&
         std::isspace(static_cast<unsigned char>(line[at]))) {
    ++at;
  }
  char* end = nullptr;
  long long parsed = std::strtoll(line.c_str() + at, &end, 10);
  if (end == line.c_str() + at) return false;
  *value = parsed;
  return true;
}

/// A response line is well-formed when it is one brace-delimited object
/// carrying a "status" string — the wire contract every reply must meet.
bool WellFormed(const std::string& line) {
  if (line.empty() || line.front() != '{' || line.back() != '}') return false;
  return line.find("\"status\": \"") != std::string::npos;
}

struct ChaosClientResult {
  bool ok = true;
  std::vector<std::string> failures;
  /// Every model_version observed in an ok response.
  std::vector<long long> versions_seen;
  size_t replies = 0;
  size_t forgiven = 0;

  void Fail(std::string why) {
    ok = false;
    if (failures.size() < 10) failures.push_back(std::move(why));
  }
};

/// Runs the scripted op mix against the server, validating every reply.
/// `expected` maps id -> replies seen so far (must end at exactly 1);
/// malformed lines are tracked by count (they all answer with id -1).
ChaosClientResult RunChaosClient(const Schedule& schedule, uint16_t port,
                                 const std::string& model,
                                 const std::string& bad_model, long trips,
                                 uint64_t seed) {
  ChaosClientResult result;
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  ChaosConnection conn(port);
  if (!conn.Connect()) {
    result.Fail("chaos client could not connect");
    return result;
  }

  std::map<long, int> replies_by_id;
  std::set<long> outstanding;
  size_t malformed_sent = 0;
  size_t malformed_answered = 0;
  long next_id = 1000;

  auto drain_lines = [&](bool connection_died) {
    for (const std::string& line : conn.TakeLines()) {
      ++result.replies;
      if (!WellFormed(line)) {
        result.Fail("malformed reply: " + line.substr(0, 200));
        continue;
      }
      long long id = 0;
      if (!ExtractLong(line, "id", &id)) {
        result.Fail("reply without id: " + line.substr(0, 200));
        continue;
      }
      if (id == -1) {
        ++malformed_answered;
      } else {
        ++replies_by_id[static_cast<long>(id)];
        outstanding.erase(static_cast<long>(id));
      }
      long long version = 0;
      if (ExtractLong(line, "model_version", &version)) {
        result.versions_seen.push_back(version);
      }
    }
    if (connection_died) {
      // Replies in flight on a killed connection are legitimately lost.
      result.forgiven += outstanding.size();
      outstanding.clear();
    }
  };

  for (Schedule::Op op : schedule.script) {
    if (conn.dead()) {
      drain_lines(/*connection_died=*/true);
      if (!schedule.net_faults) {
        result.Fail("connection died with no transport faults armed");
        break;
      }
      conn.Close();
      if (!conn.Connect()) {
        result.Fail("chaos client could not reconnect");
        break;
      }
    }
    long id = next_id++;
    std::string line;
    switch (op) {
      case Schedule::Op::kRoute:
        line = StrFormat("{\"id\": %ld, \"route\": 1, \"src\": %llu, "
                         "\"dst\": %llu}",
                         id, static_cast<unsigned long long>(rng() % 40),
                         static_cast<unsigned long long>(rng() % 40));
        break;
      case Schedule::Op::kStats:
        line = StrFormat("{\"id\": %ld, \"stats\": 1}", id);
        break;
      case Schedule::Op::kSummarize:
        line = StrFormat("{\"id\": %ld, \"trip\": %llu}", id,
                         static_cast<unsigned long long>(
                             rng() % static_cast<uint64_t>(trips)));
        break;
      case Schedule::Op::kDeadlineStorm:
        line = StrFormat("{\"id\": %ld, \"trip\": %llu, \"deadline_ms\": -1}",
                         id,
                         static_cast<unsigned long long>(
                             rng() % static_cast<uint64_t>(trips)));
        break;
      case Schedule::Op::kMalformed: {
        static const char* kGarbage[] = {
            "this is not json",
            "{\"id\": 5, \"trip\": }",
            "{\"id\": \"unterminated",
            "{}trailing",
            "{\"id\": 1, \"model_dir\": \"bad\\q\"}",
        };
        line = kGarbage[rng() % std::size(kGarbage)];
        ++malformed_sent;
        break;
      }
      case Schedule::Op::kReloadInPlace:
        line = StrFormat("{\"id\": %ld, \"reload\": 1}", id);
        break;
      case Schedule::Op::kReloadGood:
        line = StrFormat("{\"id\": %ld, \"reload\": 1, \"model_dir\": "
                         "\"%s\"}",
                         id, model.c_str());
        break;
      case Schedule::Op::kReloadBad:
        line = StrFormat("{\"id\": %ld, \"reload\": 1, \"model_dir\": "
                         "\"%s\"}",
                         id, bad_model.c_str());
        break;
    }
    if (op != Schedule::Op::kMalformed) outstanding.insert(id);
    if (!conn.Send(line)) {
      outstanding.erase(id);
      if (op == Schedule::Op::kMalformed) --malformed_sent;
      continue;  // the dead() branch above handles the fallout next loop
    }
    drain_lines(/*connection_died=*/false);
    std::this_thread::sleep_for(std::chrono::milliseconds(rng() % 8));
  }

  // Wait out stragglers: reloads answer from the reloader thread and a
  // deep queue takes several 50 ms ticks to drain.
  auto wait_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!outstanding.empty() &&
         std::chrono::steady_clock::now() < wait_deadline) {
    if (conn.dead()) {
      drain_lines(/*connection_died=*/true);
      break;
    }
    drain_lines(/*connection_died=*/false);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  drain_lines(conn.dead());
  conn.Close();

  for (const auto& [id, count] : replies_by_id) {
    if (count != 1) {
      result.Fail(StrFormat("request %ld answered %d times", id, count));
    }
  }
  if (!outstanding.empty()) {
    result.Fail(StrFormat("%zu requests never answered (first id %ld)",
                          outstanding.size(), *outstanding.begin()));
  }
  if (malformed_answered != malformed_sent) {
    result.Fail(StrFormat("sent %zu malformed lines, got %zu id:-1 replies",
                          malformed_sent, malformed_answered));
  }
  return result;
}

// --- the run ----------------------------------------------------------------

int Run(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return Usage();
    std::string key = arg.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags.values[key] = argv[++i];
    } else {
      flags.values[key] = "true";
    }
  }
  if (!flags.Has("cli") || !flags.Has("dir") || !flags.Has("model")) {
    return Usage();
  }
  Result<long> seed_flag = IntFlag(flags, "seed", 1, 0, 1L << 40);
  if (!seed_flag.ok()) {
    std::fprintf(stderr, "chaos: %s\n", seed_flag.status().ToString().c_str());
    return 3;
  }
  Result<double> duration = DoubleFlag(flags, "duration_s", 3.0, 0.1, 600.0);
  Result<double> qps = DoubleFlag(flags, "qps", 120.0, 1.0, 1'000'000.0);
  Result<long> trips = IntFlag(flags, "trips", 20, 1, 1'000'000'000L);
  if (!duration.ok() || !qps.ok() || !trips.ok()) {
    std::fprintf(stderr, "chaos: bad --duration_s/--qps/--trips\n");
    return 3;
  }
  const uint64_t seed = static_cast<uint64_t>(*seed_flag);
  const std::string cli = flags.Get("cli", "");
  const std::string dir = flags.Get("dir", ".");
  const std::string model = flags.Get("model", "model");
  const std::string bad_model = flags.Get("bad_model", dir + "/no-such-model");
  const bool with_failpoints = !flags.Has("no-failpoints");

  Schedule schedule = MakeSchedule(seed, with_failpoints);
  std::string repro = StrFormat(
      "chaos --cli %s --dir %s --model %s --bad_model %s --seed %llu%s",
      cli.c_str(), dir.c_str(), model.c_str(), bad_model.c_str(),
      static_cast<unsigned long long>(seed),
      with_failpoints ? "" : " --no-failpoints");
  std::fprintf(stderr, "chaos: seed %llu: failpoints [%s], %d SIGHUPs @ "
               "%d ms, %zu scripted ops\n",
               static_cast<unsigned long long>(seed),
               schedule.failpoint_spec.c_str(), schedule.sighup_count,
               schedule.sighup_interval_ms, schedule.script.size());

  std::string stderr_path =
      StrFormat("%s/chaos_server_%llu.stderr", dir.c_str(),
                static_cast<unsigned long long>(seed));
  Result<Server> started =
      StartServer(cli, dir, model, schedule.failpoint_spec, stderr_path);
  if (!started.ok()) {
    std::fprintf(stderr, "chaos: %s\n", started.status().ToString().c_str());
    return 8;
  }
  Server server = *started;

  // Leg 1: open-loop summarize traffic for the whole storm.
  net::LoadgenOptions lopts;
  lopts.port = server.port;
  lopts.connections = 2;
  lopts.rate_qps = *qps;
  lopts.duration_s = *duration;
  lopts.seed = seed;
  lopts.num_trips = static_cast<size_t>(*trips);
  Result<net::LoadgenReport> loadgen_report = Status::Internal("not run");
  std::thread loadgen_thread([&] {
    loadgen_report = net::RunOpenLoopLoad(lopts);
  });

  // Leg 2: SIGHUP flood (reload storms coalesce in the manager).
  std::thread sighup_thread([&] {
    for (int i = 0; i < schedule.sighup_count; ++i) {
      ::kill(server.pid, SIGHUP);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(schedule.sighup_interval_ms));
    }
  });

  // Leg 3: the scripted chaos client.
  ChaosClientResult client = RunChaosClient(schedule, server.port, model,
                                            bad_model, *trips, seed);

  sighup_thread.join();
  loadgen_thread.join();

  // Final stats probe (fresh connection, after the storm): the published
  // version history the model_version invariant is checked against.
  long long final_version = 0;
  long long reload_failures = -1;
  {
    ChaosConnection probe(server.port);
    if (probe.Connect() &&
        probe.Send("{\"id\": 999999, \"stats\": 1}")) {
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (std::chrono::steady_clock::now() < deadline) {
        for (const std::string& line : probe.TakeLines()) {
          ExtractLong(line, "model_version", &final_version);
          ExtractLong(line, "model.reload_failures", &reload_failures);
        }
        if (final_version != 0) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    probe.Close();
    if (final_version == 0) {
      client.Fail("post-storm stats probe went unanswered");
    }
  }

  // SIGTERM: the drain must finish cleanly no matter what the storm did.
  ::kill(server.pid, SIGTERM);
  int wstatus = 0;
  bool exited = false;
  for (int i = 0; i < 300; ++i) {
    if (::waitpid(server.pid, &wstatus, WNOHANG) == server.pid) {
      exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (!exited) {
    ::kill(server.pid, SIGKILL);
    ::waitpid(server.pid, nullptr, 0);
    client.Fail("server did not exit within 30 s of SIGTERM");
  } else if (WIFSIGNALED(wstatus)) {
    client.Fail(StrFormat("server crashed with signal %d",
                          WTERMSIG(wstatus)));
  } else if (WEXITSTATUS(wstatus) != 0) {
    client.Fail(StrFormat("drain exited %d, want 0", WEXITSTATUS(wstatus)));
  }

  // Invariant 4: every model_version an ok response carried must be a
  // version the server published (allocation is monotonic and the gauge
  // holds the newest published one).
  for (long long version : client.versions_seen) {
    if (version < 1 || (final_version > 0 && version > final_version)) {
      client.Fail(StrFormat("torn model_version %lld (final published %lld)",
                            version, final_version));
      break;
    }
  }

  // Loadgen leg: with no transport faults every request must be answered.
  if (loadgen_report.ok()) {
    if (!schedule.net_faults && loadgen_report->unanswered != 0) {
      client.Fail(StrFormat("loadgen: %zu requests unanswered with no "
                            "transport faults armed",
                            loadgen_report->unanswered));
    }
    std::fprintf(stderr, "chaos: loadgen %zu sent / %zu answered / %zu ok, "
                 "client %zu replies (%zu forgiven), final model v%lld, "
                 "%lld reloads rolled back\n",
                 loadgen_report->sent, loadgen_report->received,
                 loadgen_report->ok, client.replies, client.forgiven,
                 final_version, reload_failures);
  } else {
    client.Fail("loadgen leg failed: " +
                loadgen_report.status().ToString());
  }

  if (!client.ok) {
    std::fprintf(stderr, "chaos: FAIL (seed %llu)\n",
                 static_cast<unsigned long long>(seed));
    for (const std::string& why : client.failures) {
      std::fprintf(stderr, "chaos:   - %s\n", why.c_str());
    }
    std::fprintf(stderr, "chaos: reproduce with:\n  %s\n", repro.c_str());
    std::fprintf(stderr, "chaos: server stderr kept at %s\n",
                 server.stderr_path.c_str());
    return 1;
  }
  std::remove(server.stderr_path.c_str());
  std::fprintf(stderr, "chaos: PASS (seed %llu)\n",
               static_cast<unsigned long long>(seed));
  return 0;
}

}  // namespace
}  // namespace stmaker

int main(int argc, char** argv) { return stmaker::Run(argc, argv); }
