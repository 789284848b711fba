// Operating-system plumbing for the benchmark: a monotonic clock, child
// processes, the serving process under test, and /proc readings.
#ifndef PERFBENCH_SYSTEM_H_
#define PERFBENCH_SYSTEM_H_

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arith.h"

namespace perfbench {

/// steady_clock nanoseconds.
int64_t NowNs();

std::optional<std::string> ReadFile(const std::string& path);

/// Runs `argv` to completion with stdout and stderr appended to
/// `log_path`; returns the exit code (-1 when it did not exit normally).
int RunToCompletion(const std::vector<std::string>& argv,
                    const std::string& log_path);

/// A child process that is killed if the benchmark dies and terminated
/// (SIGTERM, then SIGKILL) and reaped when this object goes away.
class ChildProcess {
 public:
  ChildProcess() = default;
  ~ChildProcess() { Stop(); }
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  bool Start(const std::vector<std::string>& argv,
             const std::string& log_path);
  /// SIGTERM, wait up to 10 s for a graceful exit, then SIGKILL; always
  /// reaps.
  void Stop();
  /// False once the child has exited (and has been reaped).
  bool Running();
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

/// Resource readings of one process, taken at a point in time.
struct ProcessSample {
  uint64_t cpu_ticks = 0;          ///< utime + stime, all threads
  uint64_t nonvoluntary_ctxt = 0;  ///< summed over live threads
  uint64_t vm_hwm_kb = 0;
};
std::optional<ProcessSample> SampleProcess(pid_t pid);

std::optional<HostCpu> SampleHost();

/// CPU time of the calling thread, in seconds.
double ThreadCpuSeconds();

/// Connects a TCP socket to 127.0.0.1:port with TCP_NODELAY; -1 on error.
int ConnectLoopback(uint16_t port);

/// Sends one line (a newline is appended) and waits up to `timeout_ms` for
/// one reply line; nullopt on error or timeout. For probes outside the
/// measured window.
std::optional<std::string> RoundTrip(int fd, const std::string& line,
                                     int timeout_ms);

/// `stmaker_cli serve --port 0` under test: started from the CLI, ready
/// once it answered its first ok `stats` request.
class ServerProcess {
 public:
  /// Launches the server and blocks until it is ready (or `timeout_ms`).
  bool Start(const std::vector<std::string>& argv, const std::string& log,
             int timeout_ms);
  void Stop() { child_.Stop(); }
  pid_t pid() const { return child_.pid(); }
  uint16_t port() const { return port_; }

 private:
  ChildProcess child_;
  uint16_t port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SYSTEM_H_
