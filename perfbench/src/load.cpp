#include "load.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <optional>
#include <span>
#include <thread>

#include "daemon.hpp"
#include "net/protocol.hpp"

using namespace fhc;

namespace perfbench {

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Pending {
  std::size_t input = 0;
  std::uint64_t seq = 0;
  Clock::time_point sent;
  double encode_us = 0.0;
};

struct ConnectionResult {
  std::vector<Reply> replies;
  std::vector<Span> spans;
  std::size_t sent = 0;
  Clock::time_point exhausted_at = Clock::time_point::max();
  std::string failure;
};

/// Closes the connection's socket on every exit path.
struct Socket {
  int fd;
  ~Socket() {
    if (fd >= 0) ::close(fd);
  }
};

void drive_connection(const LoadPlan& plan, std::size_t connection,
                      ConnectionResult& out) {
  const Socket socket{connect_unix(plan.socket_path)};
  const int fd = socket.fd;
  if (fd < 0) {
    out.failure = "connect failed: " + std::string(std::strerror(errno));
    return;
  }
  net::FrameReader reader;
  std::deque<Pending> inflight;
  std::string frame;
  std::vector<std::uint8_t> buf(64 * 1024);
  std::size_t k = 0;

  const auto send_next = [&]() -> bool {
    const std::size_t input = plan.next(connection, k);
    if (input == kNoInput) {
      out.exhausted_at = std::min(out.exhausted_at, Clock::now());
      return false;
    }
    frame.clear();
    const Clock::time_point encode_start = plan.trace ? Clock::now() : Clock::time_point{};
    plan.encode(frame, input);
    Pending p{input, (static_cast<std::uint64_t>(connection) << 40) | k, Clock::now(), 0.0};
    if (plan.trace) {
      p.encode_us = std::chrono::duration<double, std::micro>(p.sent - encode_start).count();
      out.spans.push_back({p.seq, "net.codec.encode", "client.request", encode_start, p.sent});
    }
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n = ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        out.failure = "send failed: " + std::string(std::strerror(errno));
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    inflight.push_back(p);
    ++k;
    ++out.sent;
    return true;
  };

  for (std::size_t d = 0; d < plan.depth && send_next();) ++d;
  while (!inflight.empty() && out.failure.empty()) {
    const Clock::time_point decode_start = plan.trace ? Clock::now() : Clock::time_point{};
    std::optional<std::vector<std::uint8_t>> payload = reader.next();
    if (!payload) {
      if (reader.error()) {
        out.failure = "framing error: " + *reader.error();
        break;
      }
      const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        out.failure = "connection closed with replies owed";
        break;
      }
      reader.feed(std::span<const std::uint8_t>(buf.data(), static_cast<std::size_t>(n)));
      continue;
    }
    net::Response response;
    if (net::decode_response(*payload, response) != net::DecodeStatus::kOk) {
      out.failure = "malformed reply";
      break;
    }
    const Clock::time_point now = Clock::now();
    const Pending p = inflight.front();
    inflight.pop_front();
    Reply r;
    r.input = static_cast<std::uint32_t>(p.input);
    r.op = static_cast<std::uint8_t>(response.op);
    r.unknown = response.is_unknown;
    r.label = response.label;
    std::memcpy(&r.confidence_bits, &response.confidence, sizeof r.confidence_bits);
    r.server_micros = response.server_micros;
    r.latency_ms = ms_between(p.sent, now);
    r.done = now;
    if (plan.trace) {
      r.codec_us =
          p.encode_us + std::chrono::duration<double, std::micro>(now - decode_start).count();
      out.spans.push_back({p.seq, "client.request", "", p.sent, now});
      out.spans.push_back({p.seq, "net.codec.decode", "client.request", decode_start, now});
      // The server's own interval, as reported in the reply; its position
      // inside the client span is not on the wire, so it is centred.
      const auto server = std::chrono::microseconds(response.server_micros);
      const Clock::time_point server_start = p.sent + ((now - p.sent) - server) / 2;
      out.spans.push_back({p.seq, "net.server", "client.request", server_start,
                           server_start + server});
    }
    out.replies.push_back(r);
    if (now < plan.deadline) send_next();
  }
}

}  // namespace

LoadResult run_closed_loop(const LoadPlan& plan) {
  std::vector<ConnectionResult> results(plan.connections);
  {
    std::vector<std::thread> threads;
    threads.reserve(plan.connections);
    for (std::size_t c = 0; c < plan.connections; ++c) {
      threads.emplace_back([&plan, &results, c] {
        try {
          drive_connection(plan, c, results[c]);
        } catch (const std::exception& e) {
          results[c].failure = e.what();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  LoadResult out;
  for (ConnectionResult& r : results) {
    out.sent += r.sent;
    out.exhausted_at = std::min(out.exhausted_at, r.exhausted_at);
    if (out.failure.empty()) out.failure = r.failure;
    out.replies.insert(out.replies.end(), r.replies.begin(), r.replies.end());
    out.spans.insert(out.spans.end(), r.spans.begin(), r.spans.end());
  }
  if (out.failure.empty() && out.replies.size() != out.sent) {
    out.failure = "missing replies";
  }
  return out;
}

}  // namespace perfbench
