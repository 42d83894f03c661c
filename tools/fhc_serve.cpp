// fhc-serve: resident classification daemon.
//
//   fhc_serve MODEL (--unix PATH | --tcp [HOST:]PORT)... [options]
//
// Loads the model once and serves it over the framed binary protocol in
// src/net/protocol.hpp — pipelined CLASSIFY_DIGESTS / CLASSIFY_PATH /
// STATS / RELOAD / PING / QUIT over an epoll event loop, with admission
// control (BUSY frames instead of unbounded queues). Each new sample is
// scored as soon as it arrives, as one task on the service's worker
// pool; repeats are answered from the prediction cache or share the
// scoring already in flight for them. One daemon serves thousands of
// connections; SIGINT/SIGTERM and the QUIT frame drain gracefully. At
// least one of --unix and --tcp is required; a Slurm prolog asks the
// node's daemon with `fhc_classify SOCKET FILE`.
//
// MODEL may be the text format or the binary format (`fhc_train
// --binary`); the loader sniffs the magic. Binary models are mmap'd and
// the forest is attached zero-copy, so a RELOAD skips the text re-parse
// entirely — the recommended format for production daemons.
//
// Exit codes: 0 clean shutdown, 1 model load / bind error, 2 usage error.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/classifier.hpp"
#include "net/server.hpp"
#include "service/command_handler.hpp"
#include "service/service.hpp"
#include "util/fault_inject.hpp"

using namespace fhc;

namespace {

/// Parses a non-negative integer argument; false on junk or negatives.
bool parse_size(const char* text, std::size_t& out) {
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || value < 0) return false;
  out = static_cast<std::size_t>(value);
  return true;
}

/// "[HOST:]PORT" -> host/port; false on junk.
bool parse_tcp_spec(const std::string& spec, std::string& host, int& port) {
  const std::size_t colon = spec.rfind(':');
  const std::string port_text =
      colon == std::string::npos ? spec : spec.substr(colon + 1);
  char* end = nullptr;
  const long value = std::strtol(port_text.c_str(), &end, 10);
  if (end == port_text.c_str() || *end != '\0' || value < 0 || value > 65535) {
    return false;
  }
  if (colon != std::string::npos) host = spec.substr(0, colon);
  port = static_cast<int>(value);
  return true;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: fhc_serve MODEL (--unix PATH | --tcp [HOST:]PORT)... [options]\n"
      "listeners (at least one; both may combine):\n"
      "  --unix PATH           framed binary protocol on a Unix socket\n"
      "  --tcp [HOST:]PORT     framed binary protocol on TCP (default host\n"
      "                        127.0.0.1; port 0 = ephemeral, printed on stderr)\n"
      "options:\n"
      "  --cache N             prediction and extraction cache capacity (default 4096)\n"
      "  --max-queue N         scoring tasks waiting for a worker; over -> BUSY\n"
      "                        (default 1024, 0 = unbounded)\n"
      "  --unknown-threshold T open-set floor: predictions under max-prob T\n"
      "                        are flagged unknown (overrides the model's\n"
      "                        calibrated threshold; survives RELOAD)\n"
      "  --max-connections N   concurrent sockets; over -> BUSY+close (1024)\n"
      "  --max-inflight N      classify requests in flight server-wide (4096)\n"
      "  --pipeline-depth N    replies in flight per connection; over -> BUSY (64)\n"
      "  --max-queue-delay-ms N  shed queued work older than N ms with\n"
      "                        DEADLINE_EXCEEDED before scoring (0 = off)\n"
      "  --idle-timeout-ms N   evict sockets idle for N ms (0 = off)\n"
      "  --read-timeout-ms N   evict sockets stuck mid-frame for N ms (0 = off;\n"
      "                        catches slow-loris tricklers)\n"
      "fault injection: set FHC_FAULT (e.g. \"read:nth=3;accept:p=0.01\") and\n"
      "FHC_FAULT_SEED to schedule deterministic syscall faults in this daemon\n"
      "(the chaos harness drives the shipped binary this way).\n"
      "socket wire format: see README \"Socket server\" (u32le-framed binary).\n");
  return 2;
}

net::SocketServer* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->stop();  // async-signal-safe
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string model_path = argv[1];

  service::ServiceConfig service_config;
  service_config.max_queue = 1024;
  net::ServerConfig server_config;
  bool have_unknown_threshold = false;
  double unknown_threshold = 0.0;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    if (arg == "--unix") {
      const char* path = value();
      if (path == nullptr) return usage();
      server_config.unix_path = path;
    } else if (arg == "--tcp") {
      const char* spec = value();
      if (spec == nullptr ||
          !parse_tcp_spec(spec, server_config.tcp_host, server_config.tcp_port)) {
        std::fprintf(stderr, "fhc_serve: bad --tcp spec\n");
        return usage();
      }
    } else if (arg == "--cache") {
      const char* text = value();
      if (text == nullptr || !parse_size(text, service_config.cache_capacity)) {
        return usage();
      }
    } else if (arg == "--max-queue") {
      const char* text = value();
      if (text == nullptr || !parse_size(text, service_config.max_queue)) {
        return usage();
      }
    } else if (arg == "--unknown-threshold") {
      const char* text = value();
      char* end = nullptr;
      unknown_threshold = text != nullptr ? std::strtod(text, &end) : 0.0;
      if (text == nullptr || end == text || *end != '\0' ||
          !(unknown_threshold >= 0.0 && unknown_threshold <= 1.0)) {
        std::fprintf(stderr,
                     "fhc_serve: --unknown-threshold must be in [0,1]\n");
        return usage();
      }
      have_unknown_threshold = true;
    } else if (arg == "--max-connections") {
      const char* text = value();
      if (text == nullptr || !parse_size(text, server_config.max_connections)) {
        return usage();
      }
    } else if (arg == "--max-inflight") {
      const char* text = value();
      if (text == nullptr || !parse_size(text, server_config.max_inflight)) {
        return usage();
      }
    } else if (arg == "--pipeline-depth") {
      const char* text = value();
      if (text == nullptr || !parse_size(text, server_config.max_pipeline)) {
        return usage();
      }
    } else if (arg == "--max-queue-delay-ms") {
      const char* text = value();
      std::size_t delay = 0;
      if (text == nullptr || !parse_size(text, delay)) return usage();
      service_config.max_queue_delay = std::chrono::milliseconds(delay);
    } else if (arg == "--idle-timeout-ms") {
      const char* text = value();
      std::size_t timeout = 0;
      if (text == nullptr || !parse_size(text, timeout)) return usage();
      server_config.idle_timeout_ms = static_cast<int>(timeout);
    } else if (arg == "--read-timeout-ms") {
      const char* text = value();
      std::size_t timeout = 0;
      if (text == nullptr || !parse_size(text, timeout)) return usage();
      server_config.read_progress_timeout_ms = static_cast<int>(timeout);
    } else {
      std::fprintf(stderr, "fhc_serve: unknown option '%s'\n", arg.c_str());
      return usage();
    }
  }
  if (server_config.unix_path.empty() && server_config.tcp_port < 0) {
    std::fprintf(stderr, "fhc_serve: needs --unix or --tcp\n");
    return usage();
  }

#ifdef SIGPIPE
  // A client that vanishes before its reply must not kill the node's
  // resident daemon.
  std::signal(SIGPIPE, SIG_IGN);
#endif

  // Chaos harness hook: FHC_FAULT schedules deterministic syscall faults
  // in the shipped binary (ci_chaos_smoke.sh drives this).
  {
    std::string fault_error;
    if (util::FaultInjector::instance().arm_from_env(fault_error)) {
      std::fprintf(stderr, "fhc_serve: fault injection armed (FHC_FAULT=%s)\n",
                   std::getenv("FHC_FAULT"));
    } else if (!fault_error.empty()) {
      std::fprintf(stderr, "fhc_serve: bad FHC_FAULT: %s\n", fault_error.c_str());
      return 2;
    }
  }

  std::unique_ptr<service::ClassificationService> svc;
  try {
    core::FuzzyHashClassifier model =
        core::FuzzyHashClassifier::load_file(model_path);
    if (have_unknown_threshold) model.set_unknown_threshold(unknown_threshold);
    svc = std::make_unique<service::ClassificationService>(std::move(model),
                                                           service_config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fhc_serve: %s\n", e.what());
    return 1;
  }
  service::CommandHandler handler(*svc);
  // RELOAD must re-apply the deployment knob to the fresh model.
  if (have_unknown_threshold) {
    handler.set_unknown_threshold_override(unknown_threshold);
  }

  std::unique_ptr<net::SocketServer> server;
  try {
    server = std::make_unique<net::SocketServer>(handler, server_config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fhc_serve: %s\n", e.what());
    return 1;
  }
  if (!server->unix_socket_path().empty()) {
    std::fprintf(stderr, "fhc_serve: listening on unix:%s\n",
                 server->unix_socket_path().c_str());
  }
  if (server->tcp_port() >= 0) {
    std::fprintf(stderr, "fhc_serve: listening on tcp:%s:%d\n",
                 server_config.tcp_host.c_str(), server->tcp_port());
  }
  std::fprintf(stderr, "fhc_serve: model %s loaded, ready\n", model_path.c_str());

  g_server = server.get();
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  server->run();  // returns after graceful drain (QUIT frame or signal)
  g_server = nullptr;
  std::fprintf(stderr, "fhc_serve: drained, bye\n");
  return 0;
}
