// Tests for the epoll TCP front-end (src/net): request/response framing,
// pipelining, asynchronous handlers, accept-time overload rejection,
// line-length and write-buffer caps, idle and slow-loris reaping, graceful
// drain (both the clean path and the forced-close deadline), fault
// injection on accept/read/write, and the open-loop loadgen. Everything
// runs against loopback sockets with a lightweight handler — the protocol
// brain has its own parity test (serve_tcp_test.sh) against a real corpus.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "net/loadgen.h"
#include "net/ndjson_service.h"
#include "net/server.h"

namespace stmaker::net {
namespace {

// --- Minimal blocking test client. ------------------------------------------

class TestClient {
 public:
  explicit TestClient(uint16_t port, int recv_timeout_ms = 5'000) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval tv{};
    tv.tv_sec = recv_timeout_ms / 1'000;
    tv.tv_usec = (recv_timeout_ms % 1'000) * 1'000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof addr) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  bool Send(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  void HalfClose() { ::shutdown(fd_, SHUT_WR); }

  /// Reads one newline-terminated line; empty string on EOF/timeout.
  std::string ReadLine() {
    for (;;) {
      size_t pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        std::string line = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        return line;
      }
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Drains to EOF (or timeout), returning every complete line seen.
  std::vector<std::string> ReadAllLines() {
    std::vector<std::string> lines;
    for (;;) {
      std::string line = ReadLine();
      if (line.empty()) break;
      lines.push_back(std::move(line));
    }
    return lines;
  }

  /// True when the peer has closed (recv returns 0 rather than timing out).
  bool AtEof() {
    char chunk[256];
    ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<size_t>(n));
      return false;
    }
    return n == 0;
  }

  /// True when the peer closed or reset the connection (a drain that beats
  /// the handshake produces RST, not FIN).
  bool ClosedOrReset() {
    char chunk[256];
    ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<size_t>(n));
      return false;
    }
    return n == 0 || errno == ECONNRESET;
  }

  /// Abortive close: SO_LINGER with zero timeout makes close() send RST,
  /// so the server sees a hard connection error, not a clean EOF.
  void AbortiveClose() {
    linger hard{};
    hard.l_onoff = 1;
    hard.l_linger = 0;
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof hard);
    ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

TcpServerOptions QuickOptions() {
  TcpServerOptions options;
  options.port = 0;  // ephemeral
  options.drain_deadline_ms = 2'000;
  return options;
}

// --- Framing and dispatch. --------------------------------------------------

TEST(TcpServerTest, EchoRoundTripAndPipelining) {
  TcpServer server(QuickOptions(),
                   [](std::string line, const TcpServer::ResponseFn& respond) {
                     respond("echo:" + line);
                   });
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.Send("one\n"));
  EXPECT_EQ(client.ReadLine(), "echo:one");

  // Pipelined burst in one segment; answers come back in order because the
  // handler responds synchronously on the loop thread.
  ASSERT_TRUE(client.Send("a\nb\nc\n"));
  EXPECT_EQ(client.ReadLine(), "echo:a");
  EXPECT_EQ(client.ReadLine(), "echo:b");
  EXPECT_EQ(client.ReadLine(), "echo:c");

  // A request split across writes is reassembled.
  ASSERT_TRUE(client.Send("par"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(client.Send("tial\n"));
  EXPECT_EQ(client.ReadLine(), "echo:partial");

  client.HalfClose();
  EXPECT_TRUE(client.AtEof());
  server.SignalShutdown();
  EXPECT_TRUE(server.Wait().ok());
}

TEST(TcpServerTest, AsynchronousResponsesReachTheRightConnection) {
  // Handler answers from a detached worker after a delay — the response
  // must be routed back through the loop's post queue.
  std::mutex mu;
  std::vector<std::thread> workers;
  TcpServer server(
      QuickOptions(),
      [&](std::string line, const TcpServer::ResponseFn& respond) {
        std::lock_guard<std::mutex> lock(mu);
        workers.emplace_back([line, respond] {
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
          respond("later:" + line);
        });
      });
  ASSERT_TRUE(server.Start().ok());
  TestClient alpha(server.port());
  TestClient beta(server.port());
  ASSERT_TRUE(alpha.connected());
  ASSERT_TRUE(beta.connected());
  ASSERT_TRUE(alpha.Send("from-alpha\n"));
  ASSERT_TRUE(beta.Send("from-beta\n"));
  EXPECT_EQ(alpha.ReadLine(), "later:from-alpha");
  EXPECT_EQ(beta.ReadLine(), "later:from-beta");
  for (std::thread& t : workers) t.join();
  server.SignalShutdown();
  EXPECT_TRUE(server.Wait().ok());
}

TEST(TcpServerTest, MultipleLoopsServeConcurrentClients) {
  TcpServerOptions options = QuickOptions();
  options.num_loops = 4;
  TcpServer server(options,
                   [](std::string line, const TcpServer::ResponseFn& respond) {
                     respond("ok:" + line);
                   });
  ASSERT_TRUE(server.Start().ok());
  std::vector<std::unique_ptr<TestClient>> clients;
  for (int i = 0; i < 16; ++i) {
    clients.push_back(std::make_unique<TestClient>(server.port()));
    ASSERT_TRUE(clients.back()->connected());
  }
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(clients[i]->Send("c" + std::to_string(i) + "\n"));
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(clients[i]->ReadLine(), "ok:c" + std::to_string(i));
  }
  clients.clear();
  server.SignalShutdown();
  EXPECT_TRUE(server.Wait().ok());
}

// --- Overload protection and resource caps. ---------------------------------

TEST(TcpServerTest, MaxConnectionsRejectsTheExcessClientAtAccept) {
  TcpServerOptions options = QuickOptions();
  options.max_connections = 1;
  TcpServer server(options,
                   [](std::string line, const TcpServer::ResponseFn& respond) {
                     respond("held:" + line);
                   });
  ASSERT_TRUE(server.Start().ok());
  TestClient holder(server.port());
  ASSERT_TRUE(holder.connected());
  ASSERT_TRUE(holder.Send("x\n"));
  EXPECT_EQ(holder.ReadLine(), "held:x");  // slot provably taken

  TestClient excess(server.port());
  ASSERT_TRUE(excess.connected());  // accepted, then told to go away
  std::string rejection = excess.ReadLine();
  EXPECT_NE(rejection.find("\"status\": \"resource_exhausted\""),
            std::string::npos)
      << rejection;
  EXPECT_TRUE(excess.AtEof());

  // The holder's slot frees on close; a new client then gets in. The close
  // is processed on the loop thread, so probe until the count catches up
  // (each unsuccessful probe closes before the next attempt).
  holder.HalfClose();
  EXPECT_TRUE(holder.AtEof());
  bool admitted = false;
  for (int attempt = 0; attempt < 100 && !admitted; ++attempt) {
    TestClient probe(server.port());
    if (!probe.connected()) break;
    if (!probe.Send("y\n")) break;
    admitted = probe.ReadLine() == "held:y";
    if (!admitted) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(admitted);
  server.SignalShutdown();
  EXPECT_TRUE(server.Wait().ok());
}

TEST(TcpServerTest, OversizedLineGetsOneErrorRecordThenClose) {
  TcpServerOptions options = QuickOptions();
  options.limits.max_line_bytes = 64;
  std::atomic<int> handled{0};
  TcpServer server(options,
                   [&](std::string line, const TcpServer::ResponseFn& respond) {
                     handled.fetch_add(1);
                     respond("ok:" + line);
                   });
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // A good request pipelined ahead of the oversized one still answers.
  ASSERT_TRUE(client.Send("good\n"));
  ASSERT_TRUE(client.Send(std::string(500, 'x') + "\n"));
  EXPECT_EQ(client.ReadLine(), "ok:good");
  std::string error_line = client.ReadLine();
  EXPECT_NE(error_line.find("\"status\": \"invalid_argument\""),
            std::string::npos)
      << error_line;
  EXPECT_TRUE(client.AtEof());
  EXPECT_EQ(handled.load(), 1);  // the oversized line never reached the handler
  server.SignalShutdown();
  EXPECT_TRUE(server.Wait().ok());
}

// --- Timeouts. ---------------------------------------------------------------

TEST(TcpServerTest, IdleConnectionsAreReaped) {
  TcpServerOptions options = QuickOptions();
  options.limits.idle_timeout = std::chrono::milliseconds(100);
  TcpServer idle_server(options,
                        [](std::string line,
                           const TcpServer::ResponseFn& respond) {
                          respond("ok:" + line);
                        });
  ASSERT_TRUE(idle_server.Start().ok());
  TestClient client(idle_server.port(), /*recv_timeout_ms=*/3'000);
  ASSERT_TRUE(client.connected());
  auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(client.AtEof());  // blocks until the reaper closes us
  auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_LT(waited, std::chrono::milliseconds(2'500));
  idle_server.SignalShutdown();
  EXPECT_TRUE(idle_server.Wait().ok());
}

TEST(TcpServerTest, SlowLorisPartialLineIsReaped) {
  TcpServerOptions options = QuickOptions();
  options.limits.loris_timeout = std::chrono::milliseconds(100);
  options.limits.idle_timeout = std::chrono::milliseconds(60'000);
  TcpServer server(options,
                   [](std::string line, const TcpServer::ResponseFn& respond) {
                     respond("ok:" + line);
                   });
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port(), /*recv_timeout_ms=*/3'000);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("drip"));  // no newline, ever
  EXPECT_TRUE(client.AtEof());
  server.SignalShutdown();
  EXPECT_TRUE(server.Wait().ok());
}

// --- Graceful drain. ---------------------------------------------------------

TEST(TcpServerTest, DrainFinishesInFlightRequestsBeforeClosing) {
  // The handler parks requests until released — shutdown arrives while a
  // request is genuinely in flight, and the drain must deliver its answer.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::vector<std::thread> workers;
  TcpServer server(
      QuickOptions(),
      [&](std::string line, const TcpServer::ResponseFn& respond) {
        std::lock_guard<std::mutex> lock(mu);
        workers.emplace_back([&mu, &cv, &release, line, respond] {
          std::unique_lock<std::mutex> wait_lock(mu);
          cv.wait(wait_lock, [&release] { return release; });
          wait_lock.unlock();
          respond("answered:" + line);
        });
      });
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("inflight\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let it dispatch

  server.SignalShutdown();
  // New connections are refused once draining (refused outright, or
  // reset/closed without service if they won the race with the close).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  TestClient late(server.port(), /*recv_timeout_ms=*/1'000);
  EXPECT_TRUE(!late.connected() || late.ClosedOrReset());

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_EQ(client.ReadLine(), "answered:inflight");
  EXPECT_TRUE(client.AtEof());
  EXPECT_TRUE(server.Wait().ok());
  EXPECT_EQ(server.forced_closes(), 0u);
  for (std::thread& t : workers) t.join();
}

TEST(TcpServerTest, DrainDeadlineForceClosesStragglers) {
  TcpServerOptions options = QuickOptions();
  options.drain_deadline_ms = 150;
  TcpServer server(options,
                   [](std::string, const TcpServer::ResponseFn&) {
                     // Never responds: the request stays in flight forever.
                   });
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port(), /*recv_timeout_ms=*/3'000);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("black-hole\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.SignalShutdown();
  Status drained = server.Wait();
  EXPECT_EQ(drained.code(), StatusCode::kDeadlineExceeded) << drained.ToString();
  EXPECT_GE(server.forced_closes(), 1u);
  EXPECT_GE(server.drain_ms(), 100.0);
  EXPECT_TRUE(client.AtEof());
}

TEST(TcpServerTest, LateResponsesAfterCloseAreDroppedNotDelivered) {
  // Capture the respond callback, close the connection, then respond: the
  // delivery must be counted as dropped, not crash or write a stale fd.
  std::mutex mu;
  std::vector<TcpServer::ResponseFn> captured;
  TcpServer server(QuickOptions(),
                   [&](std::string, const TcpServer::ResponseFn& respond) {
                     std::lock_guard<std::mutex> lock(mu);
                     captured.push_back(respond);
                   });
  ASSERT_TRUE(server.Start().ok());
  uint64_t dropped_before =
      MetricsRegistry::Global().counter("net.responses_dropped").value();
  {
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.Send("never-answered\n"));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // RST the connection: the server takes a hard error close while the
    // request is still unanswered.
    client.AbortiveClose();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(captured.size(), 1u);
    captured[0]("too late");
  }
  // Drain flushes the post queue; the drop is counted by then.
  server.SignalShutdown();
  EXPECT_TRUE(server.Wait().ok());
  EXPECT_GE(MetricsRegistry::Global().counter("net.responses_dropped").value(),
            dropped_before + 1);
}

// --- Fault injection (only meaningful with -DSTMAKER_FAILPOINTS=ON). --------

TEST(TcpServerFailpointTest, InjectedReadFaultClosesOnlyThatConnection) {
  if (!FailpointsCompiledIn()) GTEST_SKIP() << "failpoints not compiled in";
  TcpServer server(QuickOptions(),
                   [](std::string line, const TcpServer::ResponseFn& respond) {
                     respond("ok:" + line);
                   });
  ASSERT_TRUE(server.Start().ok());
  uint64_t faults_before =
      MetricsRegistry::Global().counter("net.read_faults").value();
  ArmFailpoint("net/read", /*skip=*/0, /*count=*/1);
  TestClient victim(server.port());
  ASSERT_TRUE(victim.connected());
  ASSERT_TRUE(victim.Send("doomed\n"));
  // The fault closes the connection with "doomed\n" still unread, so the
  // kernel resets it — the client may see ECONNRESET instead of EOF.
  EXPECT_TRUE(victim.ClosedOrReset());
  DisarmFailpoint("net/read");
  EXPECT_GE(MetricsRegistry::Global().counter("net.read_faults").value(),
            faults_before + 1);
  // The server survives and serves the next client.
  TestClient healthy(server.port());
  ASSERT_TRUE(healthy.connected());
  ASSERT_TRUE(healthy.Send("alive\n"));
  EXPECT_EQ(healthy.ReadLine(), "ok:alive");
  server.SignalShutdown();
  EXPECT_TRUE(server.Wait().ok());
}

TEST(TcpServerFailpointTest, InjectedAcceptFaultDropsTheClientNotTheServer) {
  if (!FailpointsCompiledIn()) GTEST_SKIP() << "failpoints not compiled in";
  TcpServer server(QuickOptions(),
                   [](std::string line, const TcpServer::ResponseFn& respond) {
                     respond("ok:" + line);
                   });
  ASSERT_TRUE(server.Start().ok());
  uint64_t faults_before =
      MetricsRegistry::Global().counter("net.accept_faults").value();
  ArmFailpoint("net/accept", /*skip=*/0, /*count=*/1);
  TestClient dropped(server.port());
  // connect() may succeed (the kernel completes the handshake) but the
  // server closes immediately without serving.
  if (dropped.connected()) {
    dropped.Send("hello\n");
    // Closed unserved with "hello\n" unread -> reset, not clean EOF.
    EXPECT_TRUE(dropped.ClosedOrReset());
  }
  DisarmFailpoint("net/accept");
  EXPECT_GE(MetricsRegistry::Global().counter("net.accept_faults").value(),
            faults_before + 1);
  TestClient healthy(server.port());
  ASSERT_TRUE(healthy.connected());
  ASSERT_TRUE(healthy.Send("alive\n"));
  EXPECT_EQ(healthy.ReadLine(), "ok:alive");
  server.SignalShutdown();
  EXPECT_TRUE(server.Wait().ok());
}

// --- NdjsonService wire helpers (no sockets). --------------------------------

TEST(NdjsonServiceTest, ParseFlatJsonAcceptsTheProtocolShape) {
  auto parsed = NdjsonService::ParseFlatJson(
      "{\"id\": 7, \"trip\": 3, \"eta\": 0.25}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->numbers["id"], 7);
  EXPECT_DOUBLE_EQ(parsed->numbers["trip"], 3);
  EXPECT_DOUBLE_EQ(parsed->numbers["eta"], 0.25);
  EXPECT_TRUE(parsed->strings.empty());
  EXPECT_FALSE(NdjsonService::ParseFlatJson("not json").ok());
  EXPECT_FALSE(NdjsonService::ParseFlatJson("{\"id\": }").ok());
}

TEST(NdjsonServiceTest, ParseFlatJsonCarriesStringFields) {
  // String values ("model_dir", "bbox", "window") and numbers land in
  // separate maps; HandleLine checks each known field against its type.
  auto parsed = NdjsonService::ParseFlatJson(
      "{\"id\": 3, \"reload\": 1, \"model_dir\": \"/data/model_v2\"}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->numbers["id"], 3);
  EXPECT_DOUBLE_EQ(parsed->numbers["reload"], 1);
  EXPECT_EQ(parsed->strings["model_dir"], "/data/model_v2");
  EXPECT_EQ(parsed->strings.count("id"), 0u);
  EXPECT_EQ(parsed->numbers.count("model_dir"), 0u);
}

TEST(NdjsonServiceTest, ParseFlatJsonStringEscapes) {
  auto parsed = NdjsonService::ParseFlatJson(
      "{\"path\": \"a\\\\b \\\"q\\\" \\n\\t\\r \\/\"}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->strings["path"], "a\\b \"q\" \n\t\r /");
  // Unsupported escape, unterminated string, and a bare string where a
  // value belongs are all typed parse errors, not silent truncation.
  EXPECT_FALSE(NdjsonService::ParseFlatJson("{\"p\": \"bad \\u0041\"}").ok());
  EXPECT_FALSE(NdjsonService::ParseFlatJson("{\"p\": \"no close").ok());
  EXPECT_FALSE(NdjsonService::ParseFlatJson("{\"p\": }").ok());
}

TEST(NdjsonServiceTest, ParseFlatJsonRejectsNonFiniteNumbers) {
  // strtod is laxer than JSON: "nan", "inf", and overflowing exponents all
  // parse. Handlers cast numeric fields to integers, where a non-finite
  // double is UB and NaN slips past every range check (both `< 0` and
  // `>= size` are false) — so the parser must refuse them at the boundary.
  EXPECT_FALSE(NdjsonService::ParseFlatJson("{\"trip\": nan}").ok());
  EXPECT_FALSE(NdjsonService::ParseFlatJson("{\"trip\": inf}").ok());
  EXPECT_FALSE(NdjsonService::ParseFlatJson("{\"deadline_ms\": -inf}").ok());
  EXPECT_FALSE(NdjsonService::ParseFlatJson("{\"k\": 1e999}").ok());
  auto parsed = NdjsonService::ParseFlatJson("{\"trip\": nan}");
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  // Large-but-finite values still parse; the handlers clamp them.
  EXPECT_TRUE(NdjsonService::ParseFlatJson("{\"k\": 1e300}").ok());
}

TEST(NdjsonServiceTest, ErrorResponseCarriesWireStatusAndEscapedMessage) {
  std::string line = NdjsonService::ErrorResponse(
      42, Status::InvalidArgument("bad \"quoted\" thing"));
  EXPECT_EQ(line,
            "{\"id\": 42, \"status\": \"invalid_argument\", "
            "\"error\": \"bad \\\"quoted\\\" thing\"}");
  EXPECT_EQ(NdjsonService::WireStatusName(StatusCode::kDeadlineExceeded),
            "deadline_exceeded");
  EXPECT_EQ(NdjsonService::WireStatusName(StatusCode::kResourceExhausted),
            "resource_exhausted");
}

// --- Loadgen against a trivial in-process server. ----------------------------

TEST(LoadgenTest, OpenLoopRunAnswersEveryRequest) {
  // Handler speaks just enough of the protocol for the loadgen: echoes the
  // id back with an ok status (and answers the readiness stats probe).
  TcpServer server(
      QuickOptions(),
      [](std::string line, const TcpServer::ResponseFn& respond) {
        auto parsed = NdjsonService::ParseFlatJson(line);
        long id = -1;
        if (parsed.ok() && parsed->numbers.count("id") != 0) {
          id = static_cast<long>(parsed->numbers["id"]);
        }
        respond("{\"id\": " + std::to_string(id) + ", \"status\": \"ok\"}");
      });
  ASSERT_TRUE(server.Start().ok());
  LoadgenOptions options;
  options.port = server.port();
  options.connections = 2;
  options.rate_qps = 200;
  options.duration_s = 0.5;
  options.num_trips = 4;
  Result<LoadgenReport> report = RunOpenLoopLoad(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->sent, 0u);
  EXPECT_EQ(report->received, report->sent);
  EXPECT_EQ(report->ok, report->sent);
  EXPECT_EQ(report->unanswered, 0u);
  EXPECT_GE(report->p99_ms, report->p50_ms);
  EXPECT_GE(report->max_ms, report->p99_ms);
  // Both report renderings mention the core counts.
  EXPECT_NE(report->ToString().find("sent"), std::string::npos);
  EXPECT_NE(report->ToJson().find("\"p99_ms\""), std::string::npos);
  server.SignalShutdown();
  EXPECT_TRUE(server.Wait().ok());
}

TEST(LoadgenTest, UnreachableServerFailsCleanly) {
  LoadgenOptions options;
  options.port = 1;  // nothing listens on port 1 for this uid
  options.connections = 1;
  options.rate_qps = 10;
  options.duration_s = 0.1;
  options.wait_ready = false;
  Result<LoadgenReport> report = RunOpenLoopLoad(options);
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace stmaker::net
