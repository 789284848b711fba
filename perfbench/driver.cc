#include "driver.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <map>
#include <numeric>

#include "net/ndjson_service.h"
#include "system.h"

namespace perfbench {

const char* VerbName(Verb verb) {
  switch (verb) {
    case Verb::kSummarize:
      return "summarize";
    case Verb::kSimilar:
      return "similar";
    case Verb::kQuery:
      return "query";
    case Verb::kRoute:
      return "route";
    case Verb::kReload:
      return "reload";
  }
  return "?";
}

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "summarize") return Workload::kSummarize;
  if (name == "retrieve") return Workload::kRetrieve;
  if (name == "reload") return Workload::kReload;
  return std::nullopt;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Mix WorkloadMix(Workload workload) {
  Mix mix;
  switch (workload) {
    case Workload::kSummarize:
      mix.share = {1, 0, 0, 0};
      break;
    case Workload::kRetrieve:
      mix.share = {0, 0.4, 0.4, 0.2};
      break;
    case Workload::kReload:
      // 200 trips fit the 256-entry calibration LRU.
      mix.share = {1, 0, 0, 0};
      mix.hot_trips = 200;
      break;
  }
  return mix;
}

Mix SingleVerbMix(Verb verb) {
  Mix mix;
  mix.share.at(static_cast<size_t>(verb)) = 1;
  return mix;
}

RequestStream::RequestStream(const WorldFacts* facts, uint64_t seed, Mix mix,
                             uint64_t first_id)
    : facts_(facts), rng_(seed), mix_(mix), next_id_(first_id) {
  if (mix_.hot_trips > 0) {
    // A seeded partial shuffle picks the hot set.
    std::vector<uint32_t> all(facts_->num_trips);
    std::iota(all.begin(), all.end(), 0u);
    const size_t n = std::min(mix_.hot_trips, all.size());
    for (size_t i = 0; i < n; ++i) {
      std::swap(all[i], all[i + rng_.Below(all.size() - i)]);
    }
    hot_.assign(all.begin(), all.begin() + static_cast<long>(n));
  }
}

uint32_t RequestStream::DrawTrip() {
  if (!hot_.empty()) return hot_[rng_.Below(hot_.size())];
  return static_cast<uint32_t>(rng_.Below(facts_->num_trips));
}

Request RequestStream::Next() {
  Request r;
  r.id = next_id_++;
  double u = rng_.Unit();
  size_t verb = 0;
  while (verb + 1 < mix_.share.size() && u >= mix_.share[verb]) {
    u -= mix_.share[verb];
    ++verb;
  }
  // Skip zero-share verbs the rounding walk may land on.
  while (mix_.share[verb] == 0) verb = (verb + 1) % mix_.share.size();
  r.verb = static_cast<Verb>(verb);
  char buf[512];
  switch (r.verb) {
    case Verb::kSummarize:
      r.trip = DrawTrip();
      std::snprintf(buf, sizeof(buf), "{\"id\": %llu, \"trip\": %u}",
                    static_cast<unsigned long long>(r.id), r.trip);
      break;
    case Verb::kSimilar:
      r.trip = DrawTrip();
      std::snprintf(buf, sizeof(buf),
                    "{\"id\": %llu, \"similar\": 1, \"trip\": %u, \"k\": %d}",
                    static_cast<unsigned long long>(r.id), r.trip, kSimilarK);
      break;
    case Verb::kQuery: {
      const stmaker::BoundingBox& e = facts_->extent;
      const double w = e.Width() * kQueryBoxShare;
      const double h = e.Height() * kQueryBoxShare;
      // %.17g round-trips, so the server parses exactly these doubles.
      char box[160];
      const double x0 = e.min.x + rng_.Unit() * (e.Width() - w);
      const double y0 = e.min.y + rng_.Unit() * (e.Height() - h);
      std::snprintf(box, sizeof(box), "%.17g,%.17g,%.17g,%.17g", x0, y0,
                    x0 + w, y0 + h);
      double c[4];
      std::sscanf(box, "%lf,%lf,%lf,%lf", &c[0], &c[1], &c[2], &c[3]);
      r.box.Extend({c[0], c[1]});
      r.box.Extend({c[2], c[3]});
      if (queries_++ % 2 == 1) {
        const double span = std::max(0.0, facts_->t_max - facts_->t_min -
                                              kQueryWindowS);
        const double t0 = facts_->t_min + rng_.Unit() * span;
        char window[80];
        std::snprintf(window, sizeof(window), "%.17g,%.17g", t0,
                      t0 + kQueryWindowS);
        double t[2];
        std::sscanf(window, "%lf,%lf", &t[0], &t[1]);
        r.window = std::make_pair(t[0], t[1]);
        std::snprintf(buf, sizeof(buf),
                      "{\"id\": %llu, \"query\": 1, \"bbox\": \"%s\", "
                      "\"window\": \"%s\"}",
                      static_cast<unsigned long long>(r.id), box, window);
      } else {
        std::snprintf(buf, sizeof(buf),
                      "{\"id\": %llu, \"query\": 1, \"bbox\": \"%s\"}",
                      static_cast<unsigned long long>(r.id), box);
      }
      break;
    }
    case Verb::kRoute: {
      r.route = rng_.Below(facts_->routes.size());
      const RoutePair& p = facts_->routes[r.route];
      std::snprintf(buf, sizeof(buf),
                    "{\"id\": %llu, \"route\": 1, \"src\": %lld, "
                    "\"dst\": %lld}",
                    static_cast<unsigned long long>(r.id),
                    static_cast<long long>(p.src),
                    static_cast<long long>(p.dst));
      break;
    }
    case Verb::kReload:
      break;
  }
  r.line = buf;
  return r;
}

Request RequestStream::NextReload() {
  Request r;
  r.id = next_id_++;
  r.verb = Verb::kReload;
  r.line = "{\"id\": " + std::to_string(r.id) +
           ", \"reload\": 1, \"model_dir\": \"" +
           stmaker::net::NdjsonService::JsonEscape(facts_->model_path) +
           "\"}";
  return r;
}

ClosedLoop::~ClosedLoop() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) close(c.fd);
  }
}

bool ClosedLoop::Connect(uint16_t port, int workers, bool admin) {
  for (int i = 0; i < workers + (admin ? 1 : 0); ++i) {
    Conn conn;
    conn.fd = ConnectLoopback(port);
    conn.admin = i == workers;
    if (conn.fd < 0) return false;
    conns_.push_back(std::move(conn));
  }
  return true;
}

bool ClosedLoop::Send(Conn& conn, Request request, PhaseResult& result) {
  std::string out = request.line + "\n";
  Record record;
  record.id = request.id;
  record.verb = request.verb;
  record.trip = request.trip;
  record.send_ns = NowNs();
  size_t sent = 0;
  while (sent < out.size()) {
    ssize_t n =
        send(conn.fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0 && errno == EINTR) continue;
    if (n <= 0) {
      result.records.push_back(record);  // counts as missing
      close(conn.fd);
      conn.fd = -1;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  conn.busy = true;
  conn.request = std::move(request);
  conn.record = result.records.size();
  result.records.push_back(record);
  return true;
}

PhaseResult ClosedLoop::Run(RequestStream& stream, double seconds,
                            const ReloadSchedule* reload,
                            const KeepPolicy& keep,
                            const std::function<void()>& on_second) {
  constexpr int64_t kDrainNs = 30'000'000'000;
  PhaseResult result;
  struct Reservoir {
    uint64_t seen = 0;
    std::vector<std::pair<Request, std::string>> items;
  };
  std::map<std::pair<size_t, uint64_t>, Reservoir> reservoirs;
  Rng draws(keep.seed);
  result.start_ns = NowNs();
  const int64_t stop_ns =
      result.start_ns + static_cast<int64_t>(seconds * 1e9);
  const int64_t drain_ns = stop_ns + kDrainNs;
  int64_t next_reload_ns =
      reload ? result.start_ns + static_cast<int64_t>(reload->offset_s * 1e9)
             : 0;
  Conn* admin = nullptr;
  for (Conn& c : conns_) {
    c.in.clear();
    if (c.admin) {
      admin = &c;
    } else if (c.fd >= 0) {
      Send(c, stream.Next(), result);
    }
  }
  std::vector<pollfd> fds;
  std::vector<Conn*> polled;
  char buf[1 << 16];
  int64_t next_second_ns = result.start_ns + 1'000'000'000;
  for (;;) {
    int64_t now = NowNs();
    if (on_second && now >= next_second_ns && next_second_ns <= stop_ns) {
      on_second();
      next_second_ns += 1'000'000'000;
    }
    if (reload && admin && admin->fd >= 0 && !admin->busy &&
        now >= next_reload_ns && now < stop_ns) {
      Send(*admin, stream.NextReload(), result);
      next_reload_ns += static_cast<int64_t>(kReloadPeriodS * 1e9);
    }
    fds.clear();
    polled.clear();
    for (Conn& c : conns_) {
      if (c.fd >= 0 && c.busy) {
        fds.push_back({c.fd, POLLIN, 0});
        polled.push_back(&c);
      }
    }
    if (fds.empty() && now >= stop_ns) break;
    if (now >= drain_ns) break;  // whatever is still busy stays missing
    int64_t wake_ns = now >= stop_ns ? drain_ns : stop_ns;
    if (reload && admin && !admin->busy && next_reload_ns < wake_ns) {
      wake_ns = std::max(next_reload_ns, now);
    }
    if (on_second && next_second_ns <= stop_ns && next_second_ns < wake_ns) {
      wake_ns = std::max(next_second_ns, now);
    }
    const int timeout_ms = static_cast<int>((wake_ns - now) / 1'000'000) + 1;
    if (fds.empty()) {
      poll(nullptr, 0, timeout_ms);
      continue;
    }
    int ready = poll(fds.data(), fds.size(), timeout_ms);
    if (ready <= 0) continue;
    for (size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = *polled[i];
      ssize_t n = recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
      if (n <= 0) {  // peer closed: the outstanding request stays missing
        close(c.fd);
        c.fd = -1;
        c.busy = false;
        continue;
      }
      const int64_t recv_ns = NowNs();
      c.in.append(buf, static_cast<size_t>(n));
      size_t nl = c.in.find('\n');
      if (nl == std::string::npos) continue;
      // Closed loop: one request in flight per connection, so this line
      // is its reply.
      std::string reply = c.in.substr(0, nl);
      c.in.erase(0, nl + 1);
      Record& record = result.records[c.record];
      record.recv_ns = recv_ns;
      record.reply_bytes = static_cast<uint32_t>(reply.size());
      const std::string id_key =
          "\"id\": " + std::to_string(c.request.id) + ",";
      record.outcome = reply.compare(1, id_key.size(), id_key) == 0
                           ? ClassifyReply(reply)
                           : Outcome::kNotOk;
      if (record.outcome == Outcome::kOk) {
        record.model_version = ModelVersionOf(reply);
      }
      result.end_ns = std::max(result.end_ns, recv_ns);
      c.busy = false;
      const size_t v = static_cast<size_t>(c.request.verb);
      if (record.outcome == Outcome::kOk && keep.cap[v] > 0) {
        Reservoir& r = reservoirs[{v, record.model_version}];
        if (std::optional<size_t> slot =
                ReservoirSlot(++r.seen, keep.cap[v], draws.Next())) {
          if (*slot == r.items.size()) r.items.emplace_back();
          r.items[*slot] = {c.request, std::move(reply)};
        }
      }
      if (!c.admin && recv_ns < stop_ns) Send(c, stream.Next(), result);
    }
  }
  for (Conn& c : conns_) c.busy = false;
  for (auto& [key, r] : reservoirs) {
    for (auto& item : r.items) result.kept.push_back(std::move(item));
  }
  return result;
}

}  // namespace perfbench
