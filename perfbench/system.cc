#include "system.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

namespace {

/// fork + exec with the child's output appended to `log_path` and a
/// SIGKILL on parent death, so no server outlives a crashed benchmark.
pid_t Spawn(const std::vector<std::string>& argv, const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  const pid_t parent = getpid();
  pid_t pid = fork();
  if (pid != 0) return pid;
  // Child: only async-signal-safe calls until exec.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != parent) _exit(127);
  int null_fd = open("/dev/null", O_RDONLY);
  int log_fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (null_fd < 0 || log_fd < 0) _exit(127);
  dup2(null_fd, 0);
  dup2(log_fd, 1);
  dup2(log_fd, 2);
  execv(args[0], args.data());
  _exit(127);
}

int ExitCode(int status) {
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace

int RunToCompletion(const std::vector<std::string>& argv,
                    const std::string& log_path) {
  pid_t pid = Spawn(argv, log_path);
  if (pid < 0) return -1;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return ExitCode(status);
}

bool ChildProcess::Start(const std::vector<std::string>& argv,
                         const std::string& log_path) {
  Stop();
  pid_ = Spawn(argv, log_path);
  return pid_ > 0;
}

void ChildProcess::Stop() {
  if (pid_ <= 0) return;
  kill(pid_, SIGTERM);
  int status = 0;
  const int64_t deadline = NowNs() + 10'000'000'000;
  for (;;) {
    pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_ || (done < 0 && errno != EINTR)) break;
    if (NowNs() > deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
}

bool ChildProcess::Running() {
  if (pid_ <= 0) return false;
  int status = 0;
  if (waitpid(pid_, &status, WNOHANG) == 0) return true;
  pid_ = -1;
  return false;
}

std::optional<ProcessSample> SampleProcess(pid_t pid) {
  const std::string base = "/proc/" + std::to_string(pid);
  std::optional<std::string> stat = ReadFile(base + "/stat");
  std::optional<std::string> status = ReadFile(base + "/status");
  if (!stat || !status) return std::nullopt;
  std::optional<uint64_t> ticks = ParseProcStatCpuTicks(*stat);
  std::optional<uint64_t> hwm = ParseStatusField(*status, "VmHWM");
  if (!ticks || !hwm) return std::nullopt;
  ProcessSample sample;
  sample.cpu_ticks = *ticks;
  sample.vm_hwm_kb = *hwm;
  // /proc/<pid>/status counts the main thread only; sum every thread.
  if (DIR* dir = opendir((base + "/task").c_str())) {
    while (dirent* entry = readdir(dir)) {
      if (entry->d_name[0] == '.') continue;
      std::optional<std::string> task =
          ReadFile(base + "/task/" + entry->d_name + "/status");
      if (!task) continue;
      sample.nonvoluntary_ctxt +=
          ParseStatusField(*task, "nonvoluntary_ctxt_switches").value_or(0);
    }
    closedir(dir);
  }
  return sample;
}

std::optional<HostCpu> SampleHost() {
  std::optional<std::string> stat = ReadFile("/proc/stat");
  if (!stat) return std::nullopt;
  return ParseProcStatHostCpu(*stat);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

int ConnectLoopback(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::optional<std::string> RoundTrip(int fd, const std::string& line,
                                     int timeout_ms) {
  std::string out = line + "\n";
  size_t sent = 0;
  while (sent < out.size()) {
    ssize_t n = send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return std::nullopt;
    sent += static_cast<size_t>(n);
  }
  std::string in;
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1'000'000;
  char buf[65536];
  for (;;) {
    size_t nl = in.find('\n');
    if (nl != std::string::npos) return in.substr(0, nl);
    int left_ms = static_cast<int>((deadline - NowNs()) / 1'000'000);
    if (left_ms <= 0) return std::nullopt;
    pollfd pfd{fd, POLLIN, 0};
    if (poll(&pfd, 1, left_ms) <= 0) continue;
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return std::nullopt;
    in.append(buf, static_cast<size_t>(n));
  }
}

bool ServerProcess::Start(const std::vector<std::string>& argv,
                          const std::string& log, int timeout_ms) {
  std::remove(log.c_str());
  if (!child_.Start(argv, log)) return false;
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1'000'000;
  constexpr std::string_view kListening = "listening on 127.0.0.1:";
  port_ = 0;
  while (port_ == 0) {
    if (NowNs() > deadline || !child_.Running()) {
      return false;
    }
    std::string text = ReadFile(log).value_or("");
    size_t at = text.find(kListening);
    if (at != std::string::npos &&
        text.find('\n', at) != std::string::npos) {
      port_ = static_cast<uint16_t>(
          std::strtoul(text.c_str() + at + kListening.size(), nullptr, 10));
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // Ready = the first ok reply to a stats request.
  while (NowNs() < deadline) {
    int fd = ConnectLoopback(port_);
    if (fd >= 0) {
      std::optional<std::string> reply =
          RoundTrip(fd, "{\"id\": 0, \"stats\": 1}", timeout_ms);
      close(fd);
      if (reply && ClassifyReply(*reply) == Outcome::kOk) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

}  // namespace perfbench
