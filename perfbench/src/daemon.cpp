#include "daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "net/client.hpp"
#include "net/protocol.hpp"

using namespace fhc;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// One request/reply exchange on a fresh connection.
net::Response exchange(const std::string& socket_path, const std::string& frame) {
  net::Endpoint endpoint;
  endpoint.unix_path = socket_path;
  net::BlockingClient client;
  std::string error = client.connect(endpoint);
  net::Response response;
  if (error.empty() && !client.send_bytes(frame)) error = "send failed";
  if (error.empty()) client.read_response(response, &error);
  if (!error.empty()) throw std::runtime_error("daemon exchange: " + error);
  return response;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  return fd;
}

Daemon::Daemon(const std::string& serve_binary, const std::string& model_path,
               const std::string& socket_path, const std::string& log_path)
    : socket_path_(socket_path) {
  std::filesystem::remove(socket_path_);
  // Everything the child needs is prepared here: between fork and exec a
  // multithreaded parent's child may only make async-signal-safe calls.
  std::vector<char*> argv{const_cast<char*>(serve_binary.c_str()),
                          const_cast<char*>(model_path.c_str()),
                          const_cast<char*>("--unix"),
                          const_cast<char*>(socket_path_.c_str()), nullptr};
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // The daemon dies with the benchmark, whatever ends it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    // The daemon's own messages go to a log; stdout carries only results.
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  const Clock::time_point start = Clock::now();
  const Clock::time_point give_up = start + std::chrono::seconds(20);
  std::string ping;
  net::encode_ping(ping);
  for (;;) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("fhc_serve exited during start-up");
    }
    const int fd = connect_unix(socket_path_);
    if (fd >= 0) {
      ::close(fd);
      break;
    }
    if (Clock::now() > give_up) {
      kill_and_reap();
      throw std::runtime_error("fhc_serve did not open its socket");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  try {
    if (exchange(socket_path_, ping).op != net::Opcode::kOk) {
      throw std::runtime_error("PING was not answered OK");
    }
  } catch (...) {
    kill_and_reap();
    throw;
  }
  setup_seconds_ = std::chrono::duration<double>(Clock::now() - start).count();
}

Daemon::~Daemon() { kill_and_reap(); }

void Daemon::kill_and_reap() noexcept {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  std::error_code ignored;
  std::filesystem::remove(socket_path_, ignored);
}

std::map<std::string, double> Daemon::stats() const {
  std::string frame;
  net::encode_stats(frame);
  const net::Response response = exchange(socket_path_, frame);
  if (response.op != net::Opcode::kStatsText) throw std::runtime_error("STATS failed");
  std::map<std::string, double> out;
  std::istringstream fields(response.text);
  std::string field;
  while (fields >> field) {
    const std::size_t eq = field.find('=');
    if (eq != std::string::npos) out[field.substr(0, eq)] = std::stod(field.substr(eq + 1));
  }
  return out;
}

double Daemon::cpu_seconds() const {
  clockid_t clock = 0;
  timespec now{};
  if (::clock_getcpuclockid(pid_, &clock) != 0 || ::clock_gettime(clock, &now) != 0) {
    throw std::runtime_error("cannot read the daemon's CPU clock");
  }
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

double Daemon::peak_rss_mb() const {
  std::istringstream status(read_text("/proc/" + std::to_string(pid_) + "/status"));
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM for the daemon");
}

void Daemon::quit() {
  std::string frame;
  net::encode_quit(frame);
  exchange(socket_path_, frame);
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(20);
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (Clock::now() > give_up) {
      kill_and_reap();
      throw std::runtime_error("fhc_serve did not exit after QUIT");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("fhc_serve exited uncleanly after QUIT");
  }
}

HostTicks read_host_ticks() {
  std::istringstream in(read_text("/proc/stat"));
  std::string cpu;
  in >> cpu;  // the aggregate "cpu" line comes first
  HostTicks ticks;
  std::uint64_t value = 0;
  for (int i = 0; i < 8 && in >> value; ++i) {
    ticks.total += value;
    if (i == 7) ticks.steal = value;
  }
  return ticks;
}

double steal_percent(const HostTicks& before, const HostTicks& after) {
  const std::uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

std::vector<double> oversleep_ms(int samples) {
  std::vector<double> over;
  over.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    const Clock::time_point due = Clock::now() + std::chrono::milliseconds(1);
    std::this_thread::sleep_until(due);
    over.push_back(std::chrono::duration<double, std::milli>(Clock::now() - due).count());
  }
  return over;
}

}  // namespace perfbench
