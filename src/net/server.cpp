#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>
#include <new>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/features.hpp"
#include "net/timer_wheel.hpp"
#include "ssdeep/digest.hpp"
#include "util/fault_inject.hpp"

namespace fhc::net {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Builds a FeatureHashes from wire digest texts (channel order). Empty
/// strings are the empty digest (scores 0, like a stripped channel).
bool sample_from_digests(const std::vector<std::string>& digests,
                         core::FeatureHashes& out, std::string& error) {
  out = core::FeatureHashes{};
  for (std::size_t i = 0; i < digests.size(); ++i) {
    if (digests[i].empty()) continue;  // empty channel
    std::optional<ssdeep::FuzzyDigest> parsed = ssdeep::parse_digest(digests[i]);
    if (!parsed) {
      error = "malformed digest in channel " + std::to_string(i);
      return false;
    }
    out.set_channel(i, std::move(*parsed));
  }
  return true;
}

}  // namespace

struct SocketServer::Impl {
  // ---- static wiring -----------------------------------------------------
  service::CommandHandler& handler;
  ServerConfig config;

  struct Listener {
    int fd = -1;
    bool tcp = false;
  };
  std::vector<Listener> listeners;
  int resolved_tcp_port = -1;
  int epoll_fd = -1;
  int wake_fd = -1;  // eventfd: completions + stop()

  // ---- connections (event-loop thread only) ------------------------------
  struct Slot {
    bool ready = false;
    std::string bytes;
  };

  struct Conn {
    std::uint64_t id = 0;
    int fd = -1;
    bool tcp = false;
    FrameReader reader;
    std::string wbuf;
    std::size_t woff = 0;
    std::deque<Slot> slots;    // reply queue, strictly in request order
    std::uint64_t base_seq = 0;  // seq of slots.front()
    std::uint64_t next_seq = 0;
    std::size_t inflight = 0;  // pending (classify/reload) slots
    std::uint32_t events = 0;  // currently registered epoll interest
    bool reads_off = false;    // paused (backpressure) or draining
    bool closing = false;      // no more reads; close once drained
    bool reload_wait = false;  // RELOAD in flight: later frames must
                               // observe the new model, so dispatch
                               // pauses until it completes
    struct Reload {
      std::uint64_t seq = 0;
      std::string path;
    };
    std::optional<Reload> deferred_reload;  // held until earlier slots resolve

    // Timeout bookkeeping (authoritative; the timer wheel entry is lazy).
    Clock::time_point last_activity{};  // last byte received
    Clock::time_point frame_start{};    // first byte of the pending partial frame
    bool mid_frame = false;             // reader holds an incomplete frame

    explicit Conn(std::size_t max_frame) : reader(max_frame) {}
  };

  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
  std::uint64_t next_conn_id = 1000;  // ids < 1000 are listeners/wakeups
  std::size_t global_inflight = 0;
  std::atomic<bool> draining{false};  // also read by path-extraction tasks
  Clock::time_point drain_deadline{};

  // Per-connection timeout machinery (idle / read-progress eviction).
  TimerWheel wheel;
  std::vector<std::uint64_t> expired_scratch;
  int epoll_failures = 0;  // consecutive non-EINTR epoll_wait failures

  // ---- completions: finished replies posted from any thread -------------
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    bool classify = false;  // false: a RELOAD
    std::string bytes;
  };

  std::mutex completions_mutex;
  std::deque<Completion> completions;

  // ---- work outside the loop ---------------------------------------------
  // One unit per pool task (path extraction, RELOAD) and per submitted
  // request whose service callback has not run yet. All of them capture
  // `this`; run_loop() waits for the count to reach zero before it
  // returns, so none outlives the Impl.
  std::mutex outstanding_mutex;
  std::condition_variable outstanding_cv;
  std::size_t outstanding = 0;

  // ---- lifecycle ---------------------------------------------------------
  std::atomic<bool> stop_requested{false};
  std::thread loop_thread;  // start() only

  Impl(service::CommandHandler& h, ServerConfig c)
      : handler(h), config(std::move(c)) {}

  ~Impl() {
    for (auto& [id, conn] : conns) {
      if (conn->fd >= 0) ::close(conn->fd);
    }
    close_listeners();
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (wake_fd >= 0) ::close(wake_fd);
    if (!config.unix_path.empty()) ::unlink(config.unix_path.c_str());
  }

  // ---- setup -------------------------------------------------------------

  void setup() {
    if (config.unix_path.empty() && config.tcp_port < 0) {
      throw std::invalid_argument(
          "SocketServer: configure a Unix socket path and/or a TCP port");
    }
    if (config.max_pipeline == 0) config.max_pipeline = 1;
    if (config.max_connections == 0) config.max_connections = 1;
    if (config.max_inflight == 0) config.max_inflight = 1;

    if (timeouts_enabled()) {
      // Wheel tick = a quarter of the tightest timeout, so eviction lag
      // (one tick of rounding + one tick of drain) stays well inside
      // the 2x-timeout bound even for aggressive test settings.
      int tightest = config.idle_timeout_ms > 0 ? config.idle_timeout_ms : 0;
      if (config.read_progress_timeout_ms > 0) {
        tightest = tightest > 0
                       ? std::min(tightest, config.read_progress_timeout_ms)
                       : config.read_progress_timeout_ms;
      }
      const int tick = std::clamp(tightest / 4, 1, 100);
      wheel = TimerWheel(std::chrono::milliseconds(tick), 512);
    }

    epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd < 0) throw_errno("epoll_create1");
    wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd < 0) throw_errno("eventfd");
    watch(wake_fd, /*key=*/0, EPOLLIN);

    if (!config.unix_path.empty()) add_unix_listener();
    if (config.tcp_port >= 0) add_tcp_listener();
    for (std::size_t i = 0; i < listeners.size(); ++i) {
      watch(listeners[i].fd, /*key=*/1 + i, EPOLLIN);
    }
  }

  void add_unix_listener() {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config.unix_path.size() >= sizeof(addr.sun_path)) {
      throw std::invalid_argument("SocketServer: unix path too long: " +
                                  config.unix_path);
    }
    std::memcpy(addr.sun_path, config.unix_path.c_str(),
                config.unix_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) throw_errno("socket(AF_UNIX)");
    // A previous daemon's stale socket file would fail the bind; the
    // path is daemon-owned, so replacing it is the standard idiom.
    ::unlink(config.unix_path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd);
      throw_errno("bind(" + config.unix_path + ")");
    }
    if (::listen(fd, 512) < 0) {
      ::close(fd);
      throw_errno("listen(" + config.unix_path + ")");
    }
    listeners.push_back({fd, /*tcp=*/false});
  }

  void add_tcp_listener() {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(config.tcp_port));
    if (::inet_pton(AF_INET, config.tcp_host.c_str(), &addr.sin_addr) != 1) {
      throw std::invalid_argument("SocketServer: bad tcp host: " + config.tcp_host);
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) throw_errno("socket(AF_INET)");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd);
      throw_errno("bind(" + config.tcp_host + ":" +
                  std::to_string(config.tcp_port) + ")");
    }
    if (::listen(fd, 512) < 0) {
      ::close(fd);
      throw_errno("listen(tcp)");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      resolved_tcp_port = ntohs(bound.sin_port);
    }
    listeners.push_back({fd, /*tcp=*/true});
  }

  void close_listeners() {
    for (Listener& listener : listeners) {
      if (listener.fd >= 0) {
        if (epoll_fd >= 0) ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listener.fd, nullptr);
        ::close(listener.fd);
        listener.fd = -1;
      }
    }
  }

  void watch(int fd, std::uint64_t key, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = key;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) throw_errno("epoll_ctl(ADD)");
  }

  void update_interest(Conn& conn) {
    std::uint32_t wanted = 0;
    if (!conn.reads_off && !conn.closing && !conn.reload_wait) wanted |= EPOLLIN;
    if (conn.woff < conn.wbuf.size()) wanted |= EPOLLOUT;
    if (wanted == conn.events) return;
    epoll_event ev{};
    ev.events = wanted;
    ev.data.u64 = conn.id;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
    conn.events = wanted;
  }

  // ---- per-connection timeouts -------------------------------------------

  bool timeouts_enabled() const noexcept {
    return config.idle_timeout_ms > 0 || config.read_progress_timeout_ms > 0;
  }

  /// Tracks partial-frame state after every drain: the read-progress
  /// clock anchors at the *first* byte of the pending frame, so a
  /// slow-loris that trickles one byte per tick still expires.
  void note_read_progress(Conn& conn) {
    const bool mid = conn.reader.buffered() > 0;
    if (mid && !conn.mid_frame) conn.frame_start = Clock::now();
    conn.mid_frame = mid;
  }

  /// The connection's authoritative expiry, or nullopt when no
  /// configured bound currently applies to it.
  std::optional<Clock::time_point> conn_deadline(const Conn& conn) const {
    if (conn.mid_frame && config.read_progress_timeout_ms > 0) {
      return conn.frame_start +
             std::chrono::milliseconds(config.read_progress_timeout_ms);
    }
    if (config.idle_timeout_ms > 0) {
      return conn.last_activity + std::chrono::milliseconds(config.idle_timeout_ms);
    }
    return std::nullopt;
  }

  /// Eviction is only for connections the server owes nothing: no reply
  /// slots pending and an empty write buffer — or ones already closing
  /// whose peer will not drain them.
  bool evictable(const Conn& conn) const noexcept {
    return conn.closing || (conn.slots.empty() && conn.wbuf.empty());
  }

  void evict_conn(Conn& conn, const char* why) {
    // Counter before the observable effect (the RST/FIN the peer sees),
    // same discipline as the admission and close paths.
    handler.service().record_connection_timed_out();
    std::string frame;
    encode_error(frame, why);
    (void)util::fi::send(conn.fd, frame.data(), frame.size(), MSG_NOSIGNAL);
    close_conn(conn.id);
  }

  void expire_timers() {
    if (!timeouts_enabled()) return;
    const Clock::time_point now = Clock::now();
    expired_scratch.clear();
    wheel.expire(now, expired_scratch);
    for (const std::uint64_t id : expired_scratch) {
      const auto it = conns.find(id);
      if (it == conns.end()) continue;  // closed; its entry just lapses
      Conn& conn = *it->second;
      const std::optional<Clock::time_point> deadline = conn_deadline(conn);
      if (deadline && *deadline <= now && evictable(conn)) {
        evict_conn(conn, conn.mid_frame ? "read timeout: incomplete frame"
                                        : "idle timeout");
        continue;
      }
      // Lazy revalidation: activity moved the deadline (or the conn has
      // work in flight) — re-file at the true expiry, or at a polling
      // interval when no bound applies right now (a later partial frame
      // must still be caught).
      const Clock::time_point recheck = deadline
          ? std::max(*deadline, now)
          : now + std::chrono::milliseconds(config.read_progress_timeout_ms);
      wheel.schedule(id, recheck);
    }
  }

  // ---- event loop --------------------------------------------------------

  void run_loop() {
    std::vector<epoll_event> events(256);
    for (;;) {
      if (stop_requested.load(std::memory_order_relaxed)) begin_drain();
      if (draining && conns.empty()) break;

      int timeout = -1;
      if (draining) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            drain_deadline - Clock::now());
        if (left.count() <= 0) {
          force_close_all();
          break;
        }
        timeout = static_cast<int>(left.count());
      }
      if (timeouts_enabled() && !conns.empty()) {
        const int wheel_ms = wheel.next_timeout_ms(Clock::now());
        if (wheel_ms >= 0 && (timeout < 0 || wheel_ms < timeout)) {
          timeout = wheel_ms;
        }
      }
      {
        // Lost-wake guard: an injected eventfd_write failure must not
        // strand finished completions, so never sleep long while any
        // are queued.
        std::lock_guard lock(completions_mutex);
        if (!completions.empty() && (timeout < 0 || timeout > 20)) timeout = 20;
      }

      const int n = util::fi::epoll_wait(epoll_fd, events.data(),
                                         static_cast<int>(events.size()), timeout);
      if (n < 0) {
        if (errno == EINTR) continue;
        // Tolerate transient (injected or real one-off) failures; a
        // persistently broken epoll fd still surfaces.
        if (++epoll_failures > 64) throw_errno("epoll_wait");
        continue;
      }
      epoll_failures = 0;
      for (int i = 0; i < n; ++i) {
        const std::uint64_t key = events[i].data.u64;
        const std::uint32_t mask = events[i].events;
        try {
          if (key == 0) {
            drain_wake();
          } else if (key <= listeners.size()) {
            accept_ready(listeners[key - 1]);
          } else {
            on_conn_event(key, mask);
          }
        } catch (const std::bad_alloc&) {
          // Allocation failure handling one connection must not take
          // down the daemon: shed that connection and keep serving.
          if (key > listeners.size()) close_conn(key);
        }
      }
      // Second half of the lost-wake guard: sweep any completions that
      // queued without a successful eventfd wake.
      bool pending_completions = false;
      {
        std::lock_guard lock(completions_mutex);
        pending_completions = !completions.empty();
      }
      if (pending_completions) drain_wake();
      expire_timers();
    }
    // Pool tasks still running may yet submit, and submitted requests
    // still owe their callbacks (even after force_close_all: their
    // replies are dropped on arrival). Every callback does run, because
    // the service queue was flushed after the last submit (begin_drain()
    // or the extraction task itself).
    std::unique_lock lock(outstanding_mutex);
    outstanding_cv.wait(lock, [this] { return outstanding == 0; });
  }

  void begin_drain() {
    if (draining) return;
    draining = true;
    drain_deadline =
        Clock::now() + std::chrono::milliseconds(std::max(config.drain_timeout_ms, 0));
    close_listeners();
    for (auto& [id, conn] : conns) {
      conn->closing = true;
      update_interest(*conn);
    }
    // Queued-but-unflushed requests must not wait out max_delay (or
    // worse, a huge test configuration) during shutdown.
    handler.service().flush();
    // Connections with nothing in flight close immediately; collect ids
    // first (close_conn mutates the map).
    std::vector<std::uint64_t> idle;
    for (auto& [id, conn] : conns) {
      if (conn->slots.empty() && conn->woff == conn->wbuf.size()) idle.push_back(id);
    }
    for (const std::uint64_t id : idle) close_conn(id);
  }

  void force_close_all() {
    std::vector<std::uint64_t> ids;
    ids.reserve(conns.size());
    for (auto& [id, conn] : conns) ids.push_back(id);
    for (const std::uint64_t id : ids) close_conn(id);
  }

  void drain_wake() {
    std::uint64_t count = 0;
    while (util::fi::eventfd_read(wake_fd, count) > 0) {
    }
    std::deque<Completion> ready;
    {
      std::lock_guard lock(completions_mutex);
      ready.swap(completions);
    }
    for (Completion& completion : ready) {
      if (completion.classify && global_inflight > 0) --global_inflight;
      const auto it = conns.find(completion.conn_id);
      if (it == conns.end()) continue;  // connection died first
      Conn& conn = *it->second;
      if (completion.seq < conn.base_seq) continue;  // stale (should not happen)
      const std::size_t idx = completion.seq - conn.base_seq;
      if (idx >= conn.slots.size()) continue;
      conn.slots[idx].ready = true;
      conn.slots[idx].bytes = std::move(completion.bytes);
      if (conn.inflight > 0) --conn.inflight;
      if (conn.deferred_reload && conn.inflight == 1) {
        // Every slot ahead of the RELOAD has resolved: apply it now.
        start_reload(conn.id, conn.deferred_reload->seq,
                     std::move(conn.deferred_reload->path));
        conn.deferred_reload.reset();
      }
      if (!completion.classify) {
        // A reload finished: lift the barrier and dispatch the frames
        // that were buffered behind it against the new model.
        conn.reload_wait = false;
        if (!drain_frames(conn)) continue;
        note_read_progress(conn);
        apply_backpressure(conn);
      }
      flush_conn(conn);
    }
  }

  void accept_ready(const Listener& listener) {
    if (listener.fd < 0) return;
    for (;;) {
      const int fd = util::fi::accept4(listener.fd, nullptr, nullptr,
                                       SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        return;  // transient accept errors (ECONNABORTED, EMFILE): keep serving
      }
      if (draining || conns.size() >= config.max_connections) {
        // Admission refusal at the accept gate: an explicit BUSY frame
        // (best-effort — the socket buffer of a fresh connection takes
        // it) and an immediate close. Count first: a client that
        // observes the BUSY/close must find the counter already bumped.
        handler.service().record_connection_rejected();
        std::string frame;
        encode_busy(frame, draining ? "server shutting down"
                                    : "connection limit reached");
        (void)util::fi::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
        ::close(fd);
        continue;
      }
      if (listener.tcp) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      }
      auto conn = std::make_unique<Conn>(config.max_frame);
      conn->id = next_conn_id++;
      conn->fd = fd;
      conn->tcp = listener.tcp;
      conn->events = EPOLLIN;
      conn->last_activity = Clock::now();
      watch(fd, conn->id, EPOLLIN);
      handler.service().record_connection_opened();
      if (timeouts_enabled()) {
        const std::optional<Clock::time_point> deadline = conn_deadline(*conn);
        wheel.schedule(conn->id,
                       deadline ? *deadline
                                : conn->last_activity +
                                      std::chrono::milliseconds(
                                          config.read_progress_timeout_ms));
      }
      conns.emplace(conn->id, std::move(conn));
    }
  }

  void on_conn_event(std::uint64_t id, std::uint32_t mask) {
    const auto it = conns.find(id);
    if (it == conns.end()) return;
    Conn& conn = *it->second;
    if (mask & (EPOLLHUP | EPOLLERR)) {
      close_conn(id);
      return;
    }
    if (mask & EPOLLOUT) {
      flush_conn(conn);
      if (conns.find(id) == conns.end()) return;  // flush closed it
    }
    if (mask & EPOLLIN) read_ready(id);
  }

  void read_ready(std::uint64_t id) {
    auto it = conns.find(id);
    if (it == conns.end()) return;
    Conn& conn = *it->second;
    char buf[65536];
    for (;;) {
      if (conn.reads_off || conn.closing || conn.reload_wait) break;
      const ssize_t got = util::fi::recv(conn.fd, buf, sizeof buf, 0);
      if (got < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        close_conn(id);
        return;
      }
      if (got == 0) {  // peer closed: flush what is owed, then close
        conn.closing = true;
        break;
      }
      conn.last_activity = Clock::now();
      util::fi::alloc_guard();  // frame buffer growth is the next allocation
      conn.reader.feed(std::string_view(buf, static_cast<std::size_t>(got)));
      if (!drain_frames(conn)) return;  // connection died mid-dispatch
      note_read_progress(conn);
      apply_backpressure(conn);
    }
    flush_conn(conn);
  }

  /// Dispatches every buffered frame the connection may currently
  /// process (dispatch stops at closing and at a reload barrier).
  /// Returns false when the connection was erased mid-dispatch.
  bool drain_frames(Conn& conn) {
    const std::uint64_t id = conn.id;
    while (!conn.closing && !conn.reload_wait) {
      std::optional<std::vector<std::uint8_t>> payload = conn.reader.next();
      if (!payload) break;
      dispatch(conn, *payload);
      if (conns.find(id) == conns.end()) return false;
    }
    if (conn.reader.error() && !conn.closing) {
      // Framing violation: the stream can no longer be trusted.
      append_ready(conn, [&](std::string& out) {
        encode_error(out, "protocol error: " + *conn.reader.error());
      });
      conn.closing = true;
    }
    return true;
  }

  /// Appends one immediately-ready reply slot.
  template <typename Encode>
  void append_ready(Conn& conn, Encode&& encode) {
    Slot slot;
    slot.ready = true;
    encode(slot.bytes);
    conn.slots.push_back(std::move(slot));
    ++conn.next_seq;
  }

  /// Appends a pending slot and returns its sequence number.
  std::uint64_t append_pending(Conn& conn) {
    conn.slots.emplace_back();
    ++conn.inflight;
    return conn.next_seq++;
  }

  void dispatch(Conn& conn, const std::vector<std::uint8_t>& payload) {
    const Clock::time_point decoded = Clock::now();
    Request request;
    const DecodeStatus status = decode_request(payload, request);
    if (status == DecodeStatus::kUnknownOpcode) {
      append_ready(conn, [](std::string& out) {
        encode_error(out, "unknown opcode");
      });
      return;
    }
    if (status == DecodeStatus::kMalformed) {
      append_ready(conn, [](std::string& out) {
        encode_error(out, "malformed request body");
      });
      conn.closing = true;  // framing no longer trustworthy
      return;
    }

    switch (request.op) {
      case Opcode::kClassifyDigests:
      case Opcode::kClassifyPath:
        dispatch_classify(conn, request, decoded);
        break;
      case Opcode::kStats:
        append_ready(conn, [&](std::string& out) {
          encode_stats_text(out, handler.stats_line());
        });
        break;
      case Opcode::kPing:
        append_ready(conn, [](std::string& out) { encode_ok(out, "pong"); });
        break;
      case Opcode::kReload: {
        // Barrier: frames pipelined behind a RELOAD must observe the new
        // model, so this connection's dispatch pauses until it completes
        // (other connections keep flowing against the old snapshot).
        conn.reload_wait = true;
        const std::uint64_t seq = append_pending(conn);
        // Frames ahead of it score on the old model: a CLASSIFY_PATH may
        // still be extracting on the pool, not yet queued anywhere, so
        // the reload waits until every earlier slot has resolved.
        if (conn.inflight > 1) {
          conn.deferred_reload = Conn::Reload{seq, std::move(request.text)};
        } else {
          start_reload(conn.id, seq, std::move(request.text));
        }
        break;
      }
      case Opcode::kQuit:
        append_ready(conn, [](std::string& out) { encode_ok(out, "bye"); });
        begin_drain();
        break;
      default:  // unreachable: decode_request validated the opcode
        break;
    }
  }

  void dispatch_classify(Conn& conn, Request& request, Clock::time_point decoded) {
    // Admission gates, cheapest first; every refusal is an explicit
    // BUSY reply in the pipeline, never silent queueing.
    if (conn.inflight >= config.max_pipeline) {
      append_ready(conn, [](std::string& out) {
        encode_busy(out, "per-connection pipeline limit reached");
      });
      return;
    }
    if (global_inflight >= config.max_inflight) {
      append_ready(conn, [](std::string& out) {
        encode_busy(out, "server in-flight limit reached");
      });
      return;
    }

    std::optional<std::chrono::milliseconds> deadline;
    if (request.has_deadline) {
      deadline = std::chrono::milliseconds(request.deadline_ms);
    }
    if (request.op == Opcode::kClassifyPath) {
      // Extraction (file read, ELF parse, three ssdeep passes) runs on
      // the service pool, never on this thread: no connection waits
      // behind another's file. The reply slot is reserved now, so
      // per-connection order holds however the task ends.
      const std::uint64_t seq = append_pending(conn);
      ++global_inflight;
      try {
        post_task([this, id = conn.id, seq, path = std::move(request.text), decoded,
                   deadline] { extract_and_submit(id, seq, path, decoded, deadline); });
      } catch (...) {
        // Nothing will answer the slot; the loop's bad_alloc handler
        // closes this connection.
        --global_inflight;
        throw;
      }
      return;
    }

    core::FeatureHashes sample;
    std::string error;
    if (!sample_from_digests(request.digests, sample, error)) {
      // Bad digest text is an input error, not a framing error: the
      // connection stays usable.
      append_ready(conn, [&](std::string& out) { encode_error(out, error); });
      return;
    }
    // The slot's seq is fixed before submitting: a cache hit posts its
    // reply from inside try_submit. The slot itself is appended after,
    // as BUSY or pending; the loop drains that reply only later.
    if (!submit_classify(conn.id, conn.next_seq, std::move(sample), decoded, deadline)) {
      append_ready(conn, [](std::string& out) {
        encode_busy(out, "service queue full");
      });
      return;
    }
    append_pending(conn);
    ++global_inflight;
  }

  /// The wire deadline is the client's total time budget counted from
  /// frame decode, so extraction and queueing both spend it; the service
  /// sheds the request before scoring once the rest runs out. Rounded
  /// up: a request is never shed before its deadline, at most 1 ms after.
  static std::optional<std::chrono::milliseconds> budget_left(
      Clock::time_point decoded, std::optional<std::chrono::milliseconds> deadline) {
    if (!deadline) return std::nullopt;
    const auto left =
        std::chrono::ceil<std::chrono::milliseconds>(decoded + *deadline - Clock::now());
    return std::max(left, std::chrono::milliseconds(0));
  }

  /// Submits one classify whose reply goes to slot `seq` of `conn_id`:
  /// the service's callback encodes it and posts it to the loop, from
  /// the dispatcher — or inline, before this returns, on a cache hit.
  /// False when the service queue is full (the callback never runs).
  bool submit_classify(std::uint64_t conn_id, std::uint64_t seq,
                       core::FeatureHashes sample, Clock::time_point decoded,
                       std::optional<std::chrono::milliseconds> deadline) {
    begin_work();  // the callback's unit
    bool admitted = false;
    try {
      admitted = handler.service().try_submit(
          std::move(sample),
          [this, conn_id, seq, decoded](const core::Prediction* pred,
                                        std::exception_ptr error) {
            Completion completion{conn_id, seq, /*classify=*/true, {}};
            encode_reply(completion.bytes, pred, std::move(error), decoded);
            post_completion(std::move(completion));
            end_work();
          },
          budget_left(decoded, deadline));
    } catch (...) {
      end_work();
      throw;
    }
    if (!admitted) end_work();
    return admitted;
  }

  /// The wire reply for one resolved classify: PREDICTION (label named
  /// against the current model, server time counted from frame decode),
  /// DEADLINE_EXCEEDED for a request shed before scoring, ERROR otherwise.
  void encode_reply(std::string& out, const core::Prediction* pred,
                    std::exception_ptr error, Clock::time_point decoded) {
    try {
      if (pred == nullptr) std::rethrow_exception(std::move(error));
      const auto micros =
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - decoded);
      // Name the label against the current model snapshot, exactly like
      // the stdio front-end (a prediction can outlive a RELOAD;
      // out-of-range labels stay numeric via the empty name).
      const std::shared_ptr<const core::FuzzyHashClassifier> model =
          handler.service().model();
      const std::vector<std::string>& names = model->class_names();
      std::string_view name;
      if (pred->label >= 0 && static_cast<std::size_t>(pred->label) < names.size()) {
        name = names[static_cast<std::size_t>(pred->label)];
      }
      encode_prediction(out, pred->label, pred->is_unknown, pred->confidence,
                        static_cast<std::uint64_t>(micros.count()), name);
    } catch (const service::DeadlineExceeded& e) {
      // Shed before scoring: a distinct reply opcode so clients can tell
      // "too late" from "broken" without parsing text.
      encode_deadline_exceeded(out, e.what());
    } catch (const std::exception& e) {
      encode_error(out, e.what());
    }
  }

  /// One CLASSIFY_PATH on a pool worker: extract and submit — or, on an
  /// extraction error or a full queue, post the ERROR/BUSY reply straight
  /// to the loop. Never waits on the service: the pool is also the
  /// service's scoring pool.
  void extract_and_submit(std::uint64_t conn_id, std::uint64_t seq,
                          const std::string& path, Clock::time_point decoded,
                          std::optional<std::chrono::milliseconds> deadline) {
    Completion failure{conn_id, seq, /*classify=*/true, {}};
    try {
      core::FeatureHashes sample;
      const std::string error = service::CommandHandler::extract_path(path, sample);
      if (!error.empty()) {
        encode_error(failure.bytes, error);
      } else if (!submit_classify(conn_id, seq, std::move(sample), decoded, deadline)) {
        encode_busy(failure.bytes, "service queue full");
      } else {
        // Submitted after begin_drain() flushed the service: flush again
        // so shutdown does not wait out max_delay for this request.
        if (draining.load()) handler.service().flush();
        return;
      }
    } catch (const std::exception& e) {
      failure.bytes.clear();
      encode_error(failure.bytes, e.what());
    }
    post_completion(std::move(failure));
  }

  /// RELOAD on a pool worker: a model load never sits in front of any
  /// connection's classify replies.
  void start_reload(std::uint64_t conn_id, std::uint64_t seq, std::string path) {
    post_task([this, conn_id, seq, path = std::move(path)] {
      const service::CommandHandler::ReloadResult result = handler.reload(path);
      Completion completion{conn_id, seq, /*classify=*/false, {}};
      if (result.ok) {
        encode_ok(completion.bytes, result.message);
      } else {
        encode_error(completion.bytes, result.message);
      }
      post_completion(std::move(completion));
    });
  }

  /// Runs `task` on the service pool, holding one unit of outstanding
  /// work until it returns.
  template <typename Task>
  void post_task(Task task) {
    begin_work();
    try {
      handler.service().pool().submit([this, task = std::move(task)] {
        struct Done {
          Impl* impl;
          ~Done() { impl->end_work(); }
        } done{this};
        task();
      });
    } catch (...) {
      end_work();
      throw;
    }
  }

  void begin_work() {
    std::lock_guard lock(outstanding_mutex);
    ++outstanding;
  }

  void end_work() {
    // Notify under the lock: the moment run_loop() can observe zero, the
    // Impl may be destroyed, so nothing here may touch it after unlock.
    std::lock_guard lock(outstanding_mutex);
    if (--outstanding == 0) outstanding_cv.notify_all();
  }

  void apply_backpressure(Conn& conn) {
    const std::size_t backlog = conn.wbuf.size() - conn.woff;
    if (!conn.reads_off && backlog > config.write_high_watermark) {
      conn.reads_off = true;
    } else if (conn.reads_off && backlog < config.write_high_watermark / 2) {
      conn.reads_off = false;
    }
  }

  void flush_conn(Conn& conn) {
    // Move the ready prefix of the reply queue into the write buffer.
    while (!conn.slots.empty() && conn.slots.front().ready) {
      conn.wbuf += conn.slots.front().bytes;
      conn.slots.pop_front();
      ++conn.base_seq;
    }
    while (conn.woff < conn.wbuf.size()) {
      const ssize_t sent = util::fi::send(conn.fd, conn.wbuf.data() + conn.woff,
                                          conn.wbuf.size() - conn.woff,
                                          MSG_NOSIGNAL);
      if (sent < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        close_conn(conn.id);
        return;
      }
      conn.woff += static_cast<std::size_t>(sent);
    }
    if (conn.woff == conn.wbuf.size()) {
      conn.wbuf.clear();
      conn.woff = 0;
    }
    apply_backpressure(conn);
    if ((conn.closing || draining) && conn.slots.empty() && conn.wbuf.empty()) {
      close_conn(conn.id);
      return;
    }
    update_interest(conn);
  }

  void close_conn(std::uint64_t id) {
    const auto it = conns.find(id);
    if (it == conns.end()) return;
    Conn& conn = *it->second;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
    // Count before closing: a peer that observes the EOF must find the
    // counter already decremented.
    handler.service().record_connection_closed();
    ::close(conn.fd);
    conn.fd = -1;
    // In-flight completions for this connection are dropped on arrival
    // (conn lookup fails); their global_inflight share is still released
    // there.
    conns.erase(it);
  }

  // ---- completions ---------------------------------------------------------

  /// Hands a finished reply to the loop (any thread).
  void post_completion(Completion completion) {
    {
      std::lock_guard lock(completions_mutex);
      completions.push_back(std::move(completion));
    }
    wake();
  }

  void wake() {
    // A failed wake (injected or real) is survivable: the loop caps its
    // sleep while completions are queued and sweeps them on timeout.
    ssize_t rc;
    do {
      rc = util::fi::eventfd_write(wake_fd, 1);
    } while (rc < 0 && errno == EINTR);
  }
};

SocketServer::SocketServer(service::CommandHandler& handler, ServerConfig config)
    : impl_(std::make_unique<Impl>(handler, std::move(config))) {
  impl_->setup();
}

SocketServer::~SocketServer() {
  stop();
  join();
}

void SocketServer::run() { impl_->run_loop(); }

void SocketServer::start() {
  impl_->loop_thread = std::thread([this] { run(); });
}

void SocketServer::stop() {
  impl_->stop_requested.store(true, std::memory_order_relaxed);
  impl_->wake();
}

void SocketServer::join() {
  if (impl_->loop_thread.joinable()) impl_->loop_thread.join();
}

int SocketServer::tcp_port() const noexcept { return impl_->resolved_tcp_port; }

const std::string& SocketServer::unix_socket_path() const noexcept {
  return impl_->config.unix_path;
}

}  // namespace fhc::net
