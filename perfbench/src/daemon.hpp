// The daemon under test and the host it runs on: spawning fhc_serve on a
// Unix socket, reading its STATS counters and /proc accounting, and the
// host-noise probe printed beside every result.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// A child fhc_serve process serving one model on a Unix socket with
/// default flags. quit() is the clean shutdown; the destructor sends
/// SIGKILL to a daemon still running and reaps it, so no path leaves one
/// behind.
class Daemon {
 public:
  /// Spawns `serve_binary MODEL --unix SOCKET`, its output appended to
  /// `log_path`, and blocks until the first PING reply. Throws
  /// std::runtime_error when it does not come up.
  Daemon(const std::string& serve_binary, const std::string& model_path,
         const std::string& socket_path, const std::string& log_path);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Seconds from exec to the first PING reply.
  double setup_seconds() const noexcept { return setup_seconds_; }

  /// The STATS reply as key -> value.
  std::map<std::string, double> stats() const;

  /// User + system CPU seconds the daemon has used so far (all threads),
  /// read from its process CPU-time clock (nanosecond resolution).
  double cpu_seconds() const;

  /// Peak resident set size (VmHWM) in MiB.
  double peak_rss_mb() const;

  /// Sends QUIT and waits for a clean exit. Throws when the daemon does
  /// not exit with status 0.
  void quit();

 private:
  void kill_and_reap() noexcept;

  std::string socket_path_;
  pid_t pid_ = -1;
  double setup_seconds_ = 0.0;
};

/// Connects to a Unix socket path; returns the fd or -1.
int connect_unix(const std::string& path);

/// Cumulative host CPU time split from /proc/stat (clock ticks).
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
HostTicks read_host_ticks();

/// Percent of host CPU time stolen by the hypervisor between two samples.
double steal_percent(const HostTicks& before, const HostTicks& after);

/// Overshoot (ms) of each of `samples` idle 1 ms sleep_until calls.
std::vector<double> oversleep_ms(int samples);

}  // namespace perfbench
