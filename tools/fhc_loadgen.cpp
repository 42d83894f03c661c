// fhc-loadgen: pipelined load generator for the fhc_serve socket
// front-end.
//
//   fhc_loadgen (--unix PATH | --tcp [HOST:]PORT) [options] FILE[@TRACE]...
//
// Hashes each FILE locally (the CLASSIFY_DIGESTS fast path — the daemon
// never touches the filesystem), then drives N pipelined connections
// that cycle through the request set, and reports throughput and
// client-observed latency percentiles:
//
//   sent=512 predictions=512 busy=0 errors=0 elapsed_s=0.041
//   rps=12428.7 p50_ms=3.1 p99_ms=8.9 max_ms=11.2
//
// options:
//   --connections N   concurrent connections (default 4)
//   --pipeline N      frames in flight per connection (default 8)
//   --requests N      frames per connection (default 64)
//   --retries N       retry budget (default 40): connect retries 50 ms
//                     apart, plus per-request re-send of BUSY replies and
//                     reconnect-and-replay of transport faults, both with
//                     exponential backoff + jitter
//   --backoff-ms N    base retry backoff (default 5; doubles per attempt,
//                     capped at 1s, jittered)
//   --deadline-ms N   attach an N ms deadline to every CLASSIFY frame;
//                     work the daemon cannot start in time comes back as
//                     DEADLINE_EXCEEDED instead of queueing (0 = already
//                     expired at decode: every uncached request is shed)
//   --recv-timeout-ms N  bound every blocking read (chaos runs)
//   --stats           print the daemon's STATS line after the run
//   --quit            send QUIT after the run (graceful daemon shutdown)
//                     Each control frame gets its own connection and up to
//                     --retries re-sends; once a QUIT went out, a refused
//                     reconnect counts as success (the daemon is draining)
//   --expect-all      exit nonzero unless every reply is a PREDICTION
//                     (i.e. no BUSY/ERROR)
//   --expect-known    exit nonzero if any PREDICTION reply carries the
//                     is_unknown flag — asserts the daemon did not
//                     silently force-label (or silently reject) samples
//                     it was trained on
//
// Exit codes: 0 success, 1 transport failure or missing replies (or any
// non-prediction reply under --expect-all, or any unknown-flagged
// prediction under --expect-known), 2 usage error.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/features.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/trace.hpp"

using namespace fhc;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: fhc_loadgen (--unix PATH | --tcp [HOST:]PORT) [options] "
      "FILE[@TRACE]...\n"
      "  --connections N  concurrent connections (default 4)\n"
      "  --pipeline N     frames in flight per connection (default 8)\n"
      "  --requests N     frames per connection (default 64)\n"
      "  --retries N      retry budget: connect + BUSY re-send + reconnect\n"
      "  --backoff-ms N   base retry backoff (default 5, exponential+jitter)\n"
      "  --deadline-ms N  per-request deadline attached to every frame\n"
      "  --recv-timeout-ms N  bound every blocking read\n"
      "  --stats          print the daemon STATS line after the run\n"
      "  --quit           send QUIT after the run (daemon shuts down)\n"
      "  --expect-all     fail unless every reply is a PREDICTION\n"
      "  --expect-known   fail if any prediction is flagged unknown\n");
  return 2;
}

bool parse_size(const char* text, std::size_t& out) {
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || value < 0) return false;
  out = static_cast<std::size_t>(value);
  return true;
}

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

/// Hashes one FILE[@TRACE] spec into a CLASSIFY_DIGESTS frame.
bool encode_sample_frame(const std::string& spec, std::string& frame,
                         std::optional<std::uint32_t> deadline_ms,
                         std::string& error) {
  try {
    const core::FeatureHashes sample =
        runtime::extract_path_spec(runtime::split_path_spec(spec));
    std::vector<std::string> digests;
    digests.reserve(sample.channel_count());
    for (std::size_t i = 0; i < sample.channel_count(); ++i) {
      digests.push_back(sample.channel(i).to_string());
    }
    net::encode_classify_digests(frame, digests, deadline_ms);
    return true;
  } catch (const std::exception& e) {
    error = spec + ": " + e.what();
    return false;
  }
}

/// Sends one control frame on a fresh connection and reads its reply,
/// re-sending up to options.retries times until the reply has opcode
/// `want` (a fault may drop the frame or its reply). With `is_quit`, a
/// refused reconnect after the first attempt is success: the QUIT
/// already reached a daemon that is now draining.
bool control(const net::LoadOptions& options, const std::string& frame,
             net::Opcode want, bool is_quit, net::Response& response,
             std::string& error) {
  for (int attempt = 0; attempt <= options.retries; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(options.backoff_ms));
    }
    const bool quit_sent = is_quit && attempt > 0;
    net::BlockingClient client;
    error = client.connect(options.endpoint, quit_sent ? 0 : options.connect_retries);
    if (!error.empty()) return quit_sent;  // connect() already retried
    if (options.recv_timeout_ms > 0) client.set_recv_timeout(options.recv_timeout_ms);
    if (!client.send_bytes(frame)) {
      error = "control send failed";
      continue;
    }
    if (!client.read_response(response, &error)) continue;
    if (response.op == want) return true;
    error = "unexpected reply: " + response.text;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  net::LoadOptions options;
  options.connections = 4;
  options.pipeline = 8;
  options.requests = 64;
  options.connect_retries = 40;
  bool want_stats = false;
  bool want_quit = false;
  bool expect_all = false;
  bool expect_known = false;
  std::optional<std::uint32_t> deadline_ms;
  std::vector<std::string> specs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    if (arg == "--unix") {
      const char* path = value();
      if (path == nullptr) return usage();
      options.endpoint.unix_path = path;
    } else if (arg == "--tcp") {
      const char* spec = value();
      if (spec == nullptr ||
          !parse_tcp_spec(spec, options.endpoint.host, options.endpoint.port)) {
        return usage();
      }
    } else if (arg == "--connections") {
      const char* text = value();
      if (text == nullptr || !parse_size(text, options.connections) ||
          options.connections == 0) {
        return usage();
      }
    } else if (arg == "--pipeline") {
      const char* text = value();
      if (text == nullptr || !parse_size(text, options.pipeline) ||
          options.pipeline == 0) {
        return usage();
      }
    } else if (arg == "--requests") {
      const char* text = value();
      if (text == nullptr || !parse_size(text, options.requests) ||
          options.requests == 0) {
        return usage();
      }
    } else if (arg == "--retries") {
      std::size_t retries = 0;
      const char* text = value();
      if (text == nullptr || !parse_size(text, retries)) return usage();
      options.connect_retries = static_cast<int>(retries);
      options.retries = static_cast<int>(retries);
    } else if (arg == "--backoff-ms") {
      std::size_t backoff = 0;
      const char* text = value();
      if (text == nullptr || !parse_size(text, backoff)) return usage();
      options.backoff_ms = static_cast<int>(backoff);
    } else if (arg == "--deadline-ms") {
      std::size_t deadline = 0;
      const char* text = value();
      if (text == nullptr || !parse_size(text, deadline)) return usage();
      deadline_ms = static_cast<std::uint32_t>(deadline);
    } else if (arg == "--recv-timeout-ms") {
      std::size_t timeout = 0;
      const char* text = value();
      if (text == nullptr || !parse_size(text, timeout)) return usage();
      options.recv_timeout_ms = static_cast<int>(timeout);
    } else if (arg == "--stats") {
      want_stats = true;
    } else if (arg == "--quit") {
      want_quit = true;
    } else if (arg == "--expect-all") {
      expect_all = true;
    } else if (arg == "--expect-known") {
      expect_known = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "fhc_loadgen: unknown option '%s'\n", arg.c_str());
      return usage();
    } else {
      specs.push_back(arg);
    }
  }
  if (options.endpoint.unix_path.empty() && options.endpoint.port < 0) {
    std::fprintf(stderr, "fhc_loadgen: need --unix or --tcp\n");
    return usage();
  }
  if (specs.empty()) {
    std::fprintf(stderr, "fhc_loadgen: need at least one FILE\n");
    return usage();
  }

  std::vector<std::string> frames;
  frames.reserve(specs.size());
  for (const std::string& spec : specs) {
    std::string frame;
    std::string error;
    if (!encode_sample_frame(spec, frame, deadline_ms, error)) {
      std::fprintf(stderr, "fhc_loadgen: %s\n", error.c_str());
      return 1;
    }
    frames.push_back(std::move(frame));
  }

  const net::LoadResult result = net::run_load(options, frames);
  const double rps =
      result.elapsed_s > 0.0 ? result.replies() / result.elapsed_s : 0.0;
  std::printf(
      "sent=%zu predictions=%zu unknown=%zu busy=%zu errors=%zu "
      "deadline_exceeded=%zu busy_retries=%zu reconnects=%zu elapsed_s=%.3f\n"
      "rps=%.1f p50_ms=%.2f p99_ms=%.2f max_ms=%.2f\n",
      result.sent, result.predictions, result.unknown, result.busy,
      result.errors, result.deadline_exceeded, result.busy_retries,
      result.reconnects, result.elapsed_s, rps, result.p50_ms, result.p99_ms,
      result.max_ms);

  if (!result.ok()) {
    std::fprintf(stderr, "fhc_loadgen: %s\n", result.failure.c_str());
    return 1;
  }

  // Control frames ride extra connections after the measured run.
  net::Response response;
  std::string error;
  if (want_stats) {
    std::string frame;
    net::encode_stats(frame);
    if (!control(options, frame, net::Opcode::kStatsText, /*is_quit=*/false, response,
                 error)) {
      std::fprintf(stderr, "fhc_loadgen: STATS failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("%s\n", response.text.c_str());
  }
  if (want_quit) {
    std::string frame;
    net::encode_quit(frame);
    if (!control(options, frame, net::Opcode::kOk, /*is_quit=*/true, response, error)) {
      std::fprintf(stderr, "fhc_loadgen: QUIT failed: %s\n", error.c_str());
      return 1;
    }
  }

  if (expect_all && (result.busy > 0 || result.errors > 0)) {
    std::fprintf(stderr,
                 "fhc_loadgen: --expect-all: %zu busy, %zu error replies\n",
                 result.busy, result.errors);
    return 1;
  }
  if (expect_known && result.unknown > 0) {
    std::fprintf(stderr,
                 "fhc_loadgen: --expect-known: %zu of %zu predictions "
                 "flagged unknown\n",
                 result.unknown, result.predictions);
    return 1;
  }
  return 0;
}
