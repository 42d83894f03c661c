// fhc-chaos: deterministic fault-injection sweep against a live daemon.
//
//   fhc_chaos MODEL FILE[@TRACE]... [options]
//
// Boots one in-process daemon (service + command handler + SocketServer
// on a private Unix socket) from MODEL, computes the serial-path
// prediction for every FILE, then sweeps fail-the-Nth-call schedules
// over the injectable syscall sites (util/fault_inject.hpp): for every
// (site, N) pair it arms the injector, drives a retrying load run
// through real sockets, disarms, and verifies with a clean client that
// the daemon still answers every request bit-identically to the serial
// path. The three chaos invariants, checked on every cell of the sweep:
//
//   1. the daemon never crashes (the sweep is in-process: a crash kills
//      the tool, which is the failure signal);
//   2. replies stay strictly ordered per connection (run_load fails on
//      any reply without a pending request);
//   3. after recovery, predictions are bit-identical to serial predict.
//
// options:
//   --sites LIST    comma-separated sites to sweep (default
//                   read,write,accept,epoll_wait,eventfd,alloc — the
//                   socket-path sites; mmap/fsync/rename need a RELOAD
//                   and are covered by --reload)
//   --nth-max K     sweep N = 1..K per site (default 4)
//   --requests N    frames per load run (default 32)
//   --connections C load connections (default 2)
//   --retries R     client retry budget per run (default 8)
//   --seed S        injector seed (default 1)
//   --reload PATH   also sweep mmap/fsync/rename by issuing RELOAD PATH
//                   under fault; the daemon must answer ERROR (or OK
//                   once the fault is spent) and keep serving
//
// Exit codes: 0 all sweeps clean, 1 invariant violated, 2 usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/classifier.hpp"
#include "core/features.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/trace.hpp"
#include "service/command_handler.hpp"
#include "service/service.hpp"
#include "util/fault_inject.hpp"

using namespace fhc;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: fhc_chaos MODEL FILE[@TRACE]... [options]\n"
      "  --sites LIST     comma-separated fault sites (default\n"
      "                   read,write,accept,epoll_wait,eventfd,alloc)\n"
      "  --nth-max K      sweep fail-the-Nth for N=1..K (default 4)\n"
      "  --requests N     frames per load run (default 32)\n"
      "  --connections C  load connections (default 2)\n"
      "  --retries R      client retry budget (default 8)\n"
      "  --seed S         injector seed (default 1)\n"
      "  --reload PATH    sweep mmap/fsync/rename via RELOAD PATH\n");
  return 2;
}

bool parse_size(const char* text, std::size_t& out) {
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || value < 0) return false;
  out = static_cast<std::size_t>(value);
  return true;
}

std::optional<util::FaultSite> site_by_name(const std::string& name) {
  for (std::size_t i = 0; i < util::kFaultSiteCount; ++i) {
    const auto site = static_cast<util::FaultSite>(i);
    if (name == util::fault_site_name(site)) return site;
  }
  return std::nullopt;
}

/// One FILE[@TRACE] hashed to a frame plus its serial-path expectation.
struct Case {
  std::string spec;
  std::string frame;
  core::Prediction expected;
};

bool build_case(const core::FuzzyHashClassifier& model, const std::string& spec,
                Case& out, std::string& error) {
  try {
    const core::FeatureHashes sample =
        runtime::extract_path_spec(runtime::split_path_spec(spec));
    out.spec = spec;
    out.expected = model.predict(sample);
    std::vector<std::string> digests;
    digests.reserve(sample.channel_count());
    for (std::size_t i = 0; i < sample.channel_count(); ++i) {
      digests.push_back(sample.channel(i).to_string());
    }
    net::encode_classify_digests(out.frame, digests);
    return true;
  } catch (const std::exception& e) {
    error = spec + ": " + e.what();
    return false;
  }
}

/// Clean-client check: every case must answer bit-identically to serial.
bool verify_serial_identity(const net::Endpoint& endpoint,
                            const std::vector<Case>& cases,
                            std::string& error) {
  net::BlockingClient client;
  client.set_recv_timeout(5000);
  const std::string connect_error = client.connect(endpoint, /*retries=*/100);
  if (!connect_error.empty()) {
    error = "verify connect: " + connect_error;
    return false;
  }
  for (const Case& c : cases) {
    if (!client.send_bytes(c.frame)) {
      error = "verify send failed for " + c.spec;
      return false;
    }
    net::Response response;
    std::string read_error;
    if (!client.read_response(response, &read_error)) {
      error = "verify read failed for " + c.spec + ": " + read_error;
      return false;
    }
    if (response.op != net::Opcode::kPrediction ||
        response.label != c.expected.label ||
        response.is_unknown != c.expected.is_unknown ||
        std::memcmp(&response.confidence, &c.expected.confidence,
                    sizeof(double)) != 0) {
      error = "verify mismatch for " + c.spec + ": got op=0x" +
              std::to_string(static_cast<unsigned>(response.op)) + " label=" +
              std::to_string(response.label) + ", want label=" +
              std::to_string(c.expected.label) + " (bit-identical)";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string model_path = argv[1];

  std::vector<std::string> site_names = {"read",   "write",   "accept",
                                         "epoll_wait", "eventfd", "alloc"};
  std::size_t nth_max = 4;
  std::size_t requests = 32;
  std::size_t connections = 2;
  std::size_t retries = 8;
  std::size_t seed = 1;
  std::string reload_path;
  std::vector<std::string> specs;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    if (arg == "--sites") {
      const char* list = value();
      if (list == nullptr) return usage();
      site_names.clear();
      std::string token;
      for (const char* p = list;; ++p) {
        if (*p == ',' || *p == '\0') {
          if (!token.empty()) site_names.push_back(token);
          token.clear();
          if (*p == '\0') break;
        } else {
          token.push_back(*p);
        }
      }
    } else if (arg == "--nth-max") {
      const char* text = value();
      if (text == nullptr || !parse_size(text, nth_max) || nth_max == 0) {
        return usage();
      }
    } else if (arg == "--requests") {
      const char* text = value();
      if (text == nullptr || !parse_size(text, requests) || requests == 0) {
        return usage();
      }
    } else if (arg == "--connections") {
      const char* text = value();
      if (text == nullptr || !parse_size(text, connections) || connections == 0) {
        return usage();
      }
    } else if (arg == "--retries") {
      const char* text = value();
      if (text == nullptr || !parse_size(text, retries)) return usage();
    } else if (arg == "--seed") {
      const char* text = value();
      if (text == nullptr || !parse_size(text, seed)) return usage();
    } else if (arg == "--reload") {
      const char* path = value();
      if (path == nullptr) return usage();
      reload_path = path;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "fhc_chaos: unknown option '%s'\n", arg.c_str());
      return usage();
    } else {
      specs.push_back(arg);
    }
  }
  if (specs.empty()) {
    std::fprintf(stderr, "fhc_chaos: need at least one FILE\n");
    return usage();
  }

  // Two independent loads: one moves into the service, one stays as the
  // serial-path oracle.
  std::unique_ptr<service::ClassificationService> svc;
  core::FuzzyHashClassifier oracle;
  try {
    oracle = core::FuzzyHashClassifier::load_file(model_path);
    core::FuzzyHashClassifier serving =
        core::FuzzyHashClassifier::load_file(model_path);
    svc = std::make_unique<service::ClassificationService>(
        std::move(serving), service::ServiceConfig{});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fhc_chaos: %s\n", e.what());
    return 1;
  }

  std::vector<Case> cases;
  for (const std::string& spec : specs) {
    Case c;
    std::string error;
    if (!build_case(oracle, spec, c, error)) {
      std::fprintf(stderr, "fhc_chaos: %s\n", error.c_str());
      return 1;
    }
    cases.push_back(std::move(c));
  }

  service::CommandHandler handler(*svc);
  net::ServerConfig server_config;
  server_config.unix_path =
      "/tmp/fhc_chaos_" + std::to_string(::getpid()) + ".sock";
  // Modest timeouts so the timeout check runs during the fault sweep too.
  server_config.idle_timeout_ms = 2000;
  server_config.read_progress_timeout_ms = 2000;
  net::SocketServer server(handler, server_config);
  server.start();

  net::Endpoint endpoint;
  endpoint.unix_path = server.unix_socket_path();

  std::vector<std::string> frames;
  for (const Case& c : cases) frames.push_back(c.frame);

  util::FaultInjector& injector = util::FaultInjector::instance();
  std::size_t violations = 0;
  std::printf("%-12s %4s %9s %10s %8s %8s  %s\n", "site", "N", "injected",
              "replies", "retries", "reconn", "verdict");

  const auto sweep_cell = [&](util::FaultSite site, std::size_t nth) {
    util::FaultPlan plan;
    plan.seed = seed;
    util::FaultRule rule;
    rule.site = site;
    rule.nth = nth;
    plan.rules.push_back(rule);
    injector.arm(std::move(plan));

    net::LoadOptions options;
    options.endpoint = endpoint;
    options.connections = connections;
    options.pipeline = 4;
    options.requests = requests;
    options.connect_retries = 100;
    options.retries = static_cast<int>(retries);
    options.backoff_ms = 2;
    options.retry_seed = seed;
    options.recv_timeout_ms = 3000;
    const net::LoadResult result = net::run_load(options, frames);

    const std::uint64_t injected =
        injector.counters()[static_cast<std::size_t>(site)].injected;
    injector.disarm();

    // Recovery gate: with faults off, the daemon must serve every case
    // bit-identically to the serial path.
    std::string verify_error;
    const bool identical = verify_serial_identity(endpoint, cases, verify_error);
    // The armed run may legitimately fail (budget exhausted under a
    // persistent fault) — but a reply-order violation is never legitimate.
    const bool order_violated =
        result.failure.find("reply without a pending request") !=
        std::string::npos;
    const bool ok = identical && !order_violated;
    if (!ok) ++violations;
    std::printf("%-12s %4zu %9llu %10.0f %8zu %8zu  %s%s%s\n",
                util::fault_site_name(site), nth,
                static_cast<unsigned long long>(injected), result.replies(),
                result.busy_retries, result.reconnects, ok ? "ok" : "VIOLATION",
                identical ? "" : " [serial-identity]",
                order_violated ? " [reply-order]" : "");
    if (!identical) {
      std::fprintf(stderr, "fhc_chaos:   %s\n", verify_error.c_str());
    }
  };

  for (const std::string& name : site_names) {
    const std::optional<util::FaultSite> site = site_by_name(name);
    if (!site) {
      std::fprintf(stderr, "fhc_chaos: unknown site '%s'\n", name.c_str());
      server.stop();
      server.join();
      return 2;
    }
    for (std::size_t nth = 1; nth <= nth_max; ++nth) sweep_cell(*site, nth);
  }

  // RELOAD sweep: mmap/fsync/rename fire only on the model load path.
  // The daemon must keep serving the old snapshot when the reload is
  // damaged, and never crash.
  if (!reload_path.empty()) {
    for (const util::FaultSite site :
         {util::FaultSite::kMmap, util::FaultSite::kFsync,
          util::FaultSite::kRename}) {
      for (std::size_t nth = 1; nth <= nth_max; ++nth) {
        util::FaultPlan plan;
        plan.seed = seed;
        util::FaultRule rule;
        rule.site = site;
        rule.nth = nth;
        plan.rules.push_back(rule);
        injector.arm(std::move(plan));

        net::BlockingClient client;
        client.set_recv_timeout(5000);
        std::string error = client.connect(endpoint, /*retries=*/100);
        bool reload_ok = error.empty();
        if (reload_ok) {
          std::string wire;
          net::encode_reload(wire, reload_path);
          net::Response response;
          reload_ok = client.send_bytes(wire) &&
                      client.read_response(response, &error) &&
                      (response.op == net::Opcode::kOk ||
                       response.op == net::Opcode::kError);
        }
        const std::uint64_t injected =
            injector.counters()[static_cast<std::size_t>(site)].injected;
        injector.disarm();

        std::string verify_error;
        const bool identical =
            verify_serial_identity(endpoint, cases, verify_error);
        const bool ok = reload_ok && identical;
        if (!ok) ++violations;
        std::printf("%-12s %4zu %9llu %10s %8s %8s  %s%s%s\n",
                    util::fault_site_name(site), nth,
                    static_cast<unsigned long long>(injected), "-", "-", "-",
                    ok ? "ok" : "VIOLATION",
                    reload_ok ? "" : " [reload-reply]",
                    identical ? "" : " [serial-identity]");
        if (!identical) {
          std::fprintf(stderr, "fhc_chaos:   %s\n", verify_error.c_str());
        }
      }
    }
  }

  server.stop();
  server.join();
  if (violations > 0) {
    std::fprintf(stderr, "fhc_chaos: %zu sweep cells violated invariants\n",
                 violations);
    return 1;
  }
  std::printf("fhc_chaos: all sweep cells clean\n");
  return 0;
}
