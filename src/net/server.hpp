// fhc::net::SocketServer — the rack-scale front-end of the classification
// daemon: a non-blocking epoll event loop serving the length-prefixed
// binary protocol (net/protocol.hpp) over TCP and Unix-domain sockets.
//
// Architecture (three threads touch a request):
//
//   event loop (run())      accepts, reads, frames, admission-checks,
//                           submits to the ClassificationService, and
//                           writes replies;
//   service pool worker     CLASSIFY_PATH: reads the file, extracts its
//                           features and submits them, so one large file
//                           never stalls the loop; RELOAD: loads and swaps
//                           the model, so a model load never sits in front
//                           of any classify reply. It is the pool the
//                           service scores on, so no task waits on the
//                           service; an extraction error or a full queue
//                           goes straight back to the loop;
//   service dispatcher      the micro-batching scorer. Each request's
//                           completion callback encodes its reply frame
//                           and posts it to the loop (an eventfd wakes
//                           it); a cache hit runs that callback inline on
//                           the submitting thread. A slow batch therefore
//                           delays only its own requests' replies.
//
// Deadlines: a request's wire deadline_ms counts from frame decode, so
// extraction spends it too; what is left when the request would be
// scored decides whether it is shed (DEADLINE_EXCEEDED).
//
// Pipelining: replies go out strictly in request order per connection.
// Each request occupies a reply slot; slots resolved out of order (a
// cache hit behind a scored miss) wait for their turn, so clients need
// no correlation ids. A RELOAD waits for the slots ahead of it and
// holds back the frames behind it; RELOADs on different connections
// are not ordered against each other (the last swap wins).
//
// Admission control — over-limit work gets an explicit BUSY frame (or,
// at the accept gate, a BUSY frame and an immediate close) instead of
// unbounded queueing:
//   * max_connections   concurrent connections across both transports;
//   * max_pipeline      reply slots in flight per connection;
//   * max_inflight      classify requests in flight across the server;
//   * ServiceConfig::max_queue   the dispatcher backlog (try_submit).
//
// Backpressure: a connection whose write buffer exceeds the high
// watermark stops being read until the client drains half of it.
//
// Graceful shutdown (QUIT frame, stop(), or SIGTERM via stop()):
// listeners close first, every connection stops reading, the service
// flushes its pending queue, in-flight batches finish on their model
// snapshot, replies drain, then connections close and run() returns.
// Connections that will not drain are force-closed after
// drain_timeout_ms; run() still waits for every pool task and every
// submitted request's completion callback before it returns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "net/protocol.hpp"
#include "service/command_handler.hpp"

namespace fhc::net {

struct ServerConfig {
  // Transports: any combination; at least one must be configured.
  std::string unix_path;             // listen on this Unix socket when non-empty
  int tcp_port = -1;                 // listen on tcp_host:port when >= 0 (0 = ephemeral)
  std::string tcp_host = "127.0.0.1";

  // Admission control.
  std::size_t max_connections = 1024;
  std::size_t max_inflight = 4096;
  std::size_t max_pipeline = 64;

  // Wire limits and backpressure.
  std::size_t max_frame = kDefaultMaxFrame;
  std::size_t write_high_watermark = 4u << 20;

  // Graceful-shutdown drain bound.
  int drain_timeout_ms = 5000;

  // Per-connection timeouts (0 = off), enforced by a timing wheel folded
  // into the epoll loop. A connection with nothing owed to it (no reply
  // slots, empty write buffer) that produced no bytes for
  // idle_timeout_ms is evicted; a connection sitting on a *partial*
  // frame whose first byte arrived read_progress_timeout_ms ago is
  // evicted even if it trickles (slow-loris: progress is measured per
  // frame, not per byte). Eviction counts
  // ServiceStats::connections_timed_out, sends a best-effort ERROR
  // frame, and hard-closes.
  int idle_timeout_ms = 0;
  int read_progress_timeout_ms = 0;
};

class SocketServer {
 public:
  /// Binds and listens synchronously (throws std::runtime_error on any
  /// socket/bind/listen failure, std::invalid_argument on a config with
  /// no transport). The daemon is not serving until run()/start().
  SocketServer(service::CommandHandler& handler, ServerConfig config);

  /// Stops (gracefully) and joins if still running.
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Runs the event loop on the calling thread until graceful shutdown.
  void run();

  /// Runs the event loop on a background thread (tests/benches).
  void start();

  /// Requests graceful shutdown from any thread; also safe from a signal
  /// handler (one atomic store + one eventfd write). Idempotent.
  void stop();

  /// Joins the start() thread (no-op for run()-on-caller usage).
  void join();

  /// The bound TCP port (ephemeral port 0 resolved at construction), or
  /// -1 when no TCP listener was configured.
  int tcp_port() const noexcept;

  /// The Unix socket path ("" when not configured).
  const std::string& unix_socket_path() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fhc::net
