// Chaos tests: the epoll daemon under injected syscall faults and
// hostile clients.
//
// The load-bearing properties: an Nth-call fault at any wrapped server
// site (read/write/accept/epoll_wait/eventfd/alloc) never crashes the
// daemon, never reorders replies, and every completed prediction stays
// bit-identical to serial predict; after disarming, the daemon serves a
// clean client perfectly. Idle and slow-loris connections are evicted
// within 2x the configured timeout plus 100 ms (counted in
// connections_timed_out) — a partial frame on the read clock even when
// a later idle deadline is also set — traffic postpones idle eviction,
// a connection owed replies is never evicted, and a RELOAD whose mmap
// is failed keeps the old snapshot serving with `reloads` unchanged.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "service/command_handler.hpp"
#include "service/service.hpp"
#include "support/gated_pool.hpp"
#include "support/synthetic_hashes.hpp"
#include "util/fault_inject.hpp"

namespace fhc::net {
namespace {

using Clock = std::chrono::steady_clock;

struct Fixture {
  core::FuzzyHashClassifier model;
  std::vector<core::FeatureHashes> queries;
};

const Fixture& fixture() {
  static const Fixture fx = [] {
    testsupport::SyntheticHashes data =
        testsupport::make_synthetic_hashes(testsupport::SyntheticHashesParams{});
    Fixture out;
    out.queries = std::move(data.queries);
    core::ClassifierConfig config;
    config.forest.n_estimators = 20;
    config.forest.seed = 11;
    config.confidence_threshold = 0.3;
    out.model.fit(data.train, data.labels, {"A", "B", "C", "D"}, config);
    return out;
  }();
  return fx;
}

core::FuzzyHashClassifier clone_model() {
  std::stringstream buffer;
  fixture().model.save(buffer);
  core::FuzzyHashClassifier copy;
  copy.load(buffer);
  return copy;
}

std::string fresh_socket_path() {
  static int counter = 0;
  return "/tmp/fhc_chaos_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + ".sock";
}

std::string classify_frame(const core::FeatureHashes& sample) {
  std::vector<std::string> digests;
  for (std::size_t i = 0; i < sample.channel_count(); ++i) {
    digests.push_back(sample.channel(i).to_string());
  }
  std::string frame;
  encode_classify_digests(frame, digests);
  return frame;
}

struct TestDaemon {
  service::ClassificationService svc;
  service::CommandHandler handler;
  SocketServer server;

  explicit TestDaemon(service::ServiceConfig service_config = {},
                      ServerConfig server_config = {},
                      util::ThreadPool* pool = nullptr)
      : svc(clone_model(), service_config, pool),
        handler(svc),
        server(handler, [&] {
          if (server_config.unix_path.empty()) {
            server_config.unix_path = fresh_socket_path();
          }
          return server_config;
        }()) {
    server.start();
  }

  ~TestDaemon() {
    util::FaultInjector::instance().disarm();  // never leak into teardown
    server.stop();
    server.join();
  }

  Endpoint endpoint() const {
    Endpoint out;
    out.unix_path = server.unix_socket_path();
    return out;
  }
};

/// Every test leaves the process-wide injector disarmed.
struct Disarmer {
  ~Disarmer() { util::FaultInjector::instance().disarm(); }
};

/// With the injector disarmed, a fresh client must see every query
/// answered bit-identically to serial predict, in order — the recovery
/// invariant after any chaos run.
void verify_serial_identity(const TestDaemon& daemon) {
  const Fixture& fx = fixture();
  BlockingClient client;
  client.set_recv_timeout(5000);
  ASSERT_EQ(client.connect(daemon.endpoint(), /*retries=*/100), "");
  std::string wire;
  for (const core::FeatureHashes& query : fx.queries) {
    wire += classify_frame(query);
  }
  ASSERT_TRUE(client.send_bytes(wire));
  for (const core::FeatureHashes& query : fx.queries) {
    Response response;
    std::string error;
    ASSERT_TRUE(client.read_response(response, &error)) << error;
    ASSERT_EQ(response.op, Opcode::kPrediction);
    const core::Prediction expected = fixture().model.predict(query);
    EXPECT_EQ(response.label, expected.label);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(response.confidence),
              std::bit_cast<std::uint64_t>(expected.confidence));
  }
}

/// One chaos cell: arm `rule`, drive a retrying pipelined load, assert
/// the order invariant held and (when the rule is survivable with the
/// given retry budget) the load completed; then disarm and prove full
/// recovery.
void run_fault_cell(TestDaemon& daemon, util::FaultRule rule,
                    std::uint64_t seed, const char* what) {
  const Fixture& fx = fixture();
  util::FaultPlan plan;
  plan.seed = seed;
  plan.rules.push_back(rule);
  util::FaultInjector::instance().arm(std::move(plan));

  std::vector<std::string> frames;
  for (const core::FeatureHashes& query : fx.queries) {
    frames.push_back(classify_frame(query));
  }
  LoadOptions options;
  options.endpoint = daemon.endpoint();
  options.connections = 2;
  options.pipeline = 4;
  options.requests = 16;
  options.connect_retries = 200;
  options.retries = 10;
  options.backoff_ms = 2;
  options.recv_timeout_ms = 2000;
  const LoadResult result = run_load(options, frames);
  util::FaultInjector::instance().disarm();

  // Reply order is sacred: a reply the client was not owed means the
  // server answered out of order or duplicated work.
  EXPECT_EQ(result.failure.find("reply without a pending request"),
            std::string::npos)
      << what << ": " << result.failure;
  EXPECT_TRUE(result.ok()) << what << ": " << result.failure;
  EXPECT_EQ(result.errors, 0u) << what;

  verify_serial_identity(daemon);
}

TEST(ChaosServer, NthCallSweepOverEveryWrappedSite) {
  Disarmer guard;
  TestDaemon daemon;
  const util::FaultSite sites[] = {
      util::FaultSite::kRead,      util::FaultSite::kWrite,
      util::FaultSite::kAccept,    util::FaultSite::kEpollWait,
      util::FaultSite::kEventfd,   util::FaultSite::kAlloc,
  };
  for (const util::FaultSite site : sites) {
    for (const std::uint64_t nth : {1u, 2u, 5u}) {
      util::FaultRule rule;
      rule.site = site;
      rule.nth = nth;
      const std::string what = std::string(util::fault_site_name(site)) +
                               ":nth=" + std::to_string(nth);
      SCOPED_TRACE(what);
      run_fault_cell(daemon, rule, /*seed=*/nth * 7 + 1, what.c_str());
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ChaosServer, ProbabilisticReadWriteStorm) {
  Disarmer guard;
  TestDaemon daemon;
  util::FaultPlan plan;
  plan.seed = 1234;
  for (const util::FaultSite site :
       {util::FaultSite::kRead, util::FaultSite::kWrite}) {
    util::FaultRule rule;
    rule.site = site;
    rule.probability = 0.1;
    rule.max_failures = 8;
    plan.rules.push_back(rule);
  }
  util::FaultInjector::instance().arm(std::move(plan));

  const Fixture& fx = fixture();
  std::vector<std::string> frames;
  for (const core::FeatureHashes& query : fx.queries) {
    frames.push_back(classify_frame(query));
  }
  LoadOptions options;
  options.endpoint = daemon.endpoint();
  options.connections = 3;
  options.pipeline = 4;
  options.requests = 24;
  options.connect_retries = 200;
  options.retries = 20;
  options.backoff_ms = 2;
  options.recv_timeout_ms = 2000;
  const LoadResult result = run_load(options, frames);
  util::FaultInjector::instance().disarm();

  EXPECT_EQ(result.failure.find("reply without a pending request"),
            std::string::npos)
      << result.failure;
  EXPECT_TRUE(result.ok()) << result.failure;
  verify_serial_identity(daemon);
}

/// Blocks until the server hangs up on `client`, then checks it did so
/// within `bound_ms` of `start` and counted the eviction. Eviction sends
/// a best-effort ERROR then closes; depending on timing the client sees
/// the frame or just the close — never a prediction.
void expect_evicted_within(BlockingClient& client, const TestDaemon& daemon,
                           Clock::time_point start, int bound_ms) {
  Response response;
  const BlockingClient::ReadStatus status = client.read_response_status(response);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::now() - start);
  if (status == BlockingClient::ReadStatus::kOk) {
    EXPECT_EQ(response.op, Opcode::kError);
  } else {
    EXPECT_EQ(status, BlockingClient::ReadStatus::kTransport);
  }
  EXPECT_LE(elapsed.count(), bound_ms)
      << "eviction took " << elapsed.count() << "ms";
  // The eviction is visible in the daemon's own accounting.
  for (int i = 0; i < 100 && daemon.svc.stats().connections_timed_out == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(daemon.svc.stats().connections_timed_out, 1u);
}

TEST(ChaosServer, IdleConnectionEvictedWithinTwiceTimeout) {
  ServerConfig server_config;
  server_config.idle_timeout_ms = 150;
  TestDaemon daemon({}, server_config);

  BlockingClient client;
  client.set_recv_timeout(3000);
  ASSERT_EQ(client.connect(daemon.endpoint(), /*retries=*/100), "");

  // Say nothing. The server must hang up on its own.
  expect_evicted_within(client, daemon, Clock::now(),
                        2 * server_config.idle_timeout_ms + 100);
}

TEST(ChaosServer, SlowLorisPartialFrameEvictedWithinTwiceTimeout) {
  ServerConfig server_config;
  server_config.read_progress_timeout_ms = 150;
  TestDaemon daemon({}, server_config);

  BlockingClient client;
  client.set_recv_timeout(3000);
  ASSERT_EQ(client.connect(daemon.endpoint(), /*retries=*/100), "");

  // Drip the first three bytes of a real frame, then stall: classic
  // slow-loris. The read-progress clock starts at the first byte.
  const std::string frame = classify_frame(fixture().queries[0]);
  ASSERT_TRUE(client.send_bytes(frame.substr(0, 3)));
  expect_evicted_within(client, daemon, Clock::now(),
                        2 * server_config.read_progress_timeout_ms + 100);
}

TEST(ChaosServer, SlowLorisAfterIdleGapIsEvictedOnTheReadClock) {
  // Both clocks set, the read clock the tighter: once a frame is partial
  // its deadline governs, even though the idle deadline lies later.
  ServerConfig server_config;
  server_config.idle_timeout_ms = 1000;
  server_config.read_progress_timeout_ms = 150;
  TestDaemon daemon({}, server_config);

  BlockingClient client;
  client.set_recv_timeout(3000);
  ASSERT_EQ(client.connect(daemon.endpoint(), /*retries=*/100), "");

  // Quiet for a while (inside the idle bound), then the slow-loris drip.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::string frame = classify_frame(fixture().queries[0]);
  ASSERT_TRUE(client.send_bytes(frame.substr(0, 3)));
  expect_evicted_within(client, daemon, Clock::now(),
                        2 * server_config.read_progress_timeout_ms + 100);
}

TEST(ChaosServer, TrafficPostponesIdleEviction) {
  ServerConfig server_config;
  server_config.idle_timeout_ms = 150;
  TestDaemon daemon({}, server_config);

  BlockingClient client;
  client.set_recv_timeout(3000);
  ASSERT_EQ(client.connect(daemon.endpoint(), /*retries=*/100), "");

  // A PING every 50 ms for 600 ms: four idle timeouts pass, yet every
  // frame resets the idle clock, so every PONG arrives.
  std::string ping;
  encode_ping(ping);
  for (int i = 0; i < 12; ++i) {
    if (i > 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(client.send_bytes(ping));
    Response response;
    std::string error;
    ASSERT_TRUE(client.read_response(response, &error)) << "ping " << i << ": " << error;
    ASSERT_EQ(response.op, Opcode::kOk);
    EXPECT_EQ(response.text, "pong");
  }
  EXPECT_EQ(daemon.svc.stats().connections_timed_out, 0u);

  // Then silence: the idle clock runs out.
  expect_evicted_within(client, daemon, Clock::now(),
                        2 * server_config.idle_timeout_ms + 100);
}

TEST(ChaosServer, ConnectionOwedRepliesIsNeverEvicted) {
  // Park the scoring task so the reply takes far longer than the idle
  // timeout: the connection is owed a reply the whole time and must not
  // be evicted.
  testsupport::GatedPool gate;
  service::ServiceConfig service_config;
  service_config.cache_capacity = 0;
  ServerConfig server_config;
  server_config.idle_timeout_ms = 100;
  TestDaemon daemon(service_config, server_config, gate.get());

  const Fixture& fx = fixture();
  BlockingClient client;
  client.set_recv_timeout(5000);
  ASSERT_EQ(client.connect(daemon.endpoint(), /*retries=*/100), "");
  ASSERT_TRUE(client.send_bytes(classify_frame(fx.queries[0])));

  // Well past several idle timeouts with the request still pending. The
  // eviction count is read here, while the reply is still owed: once the
  // reply has been read the idle timer may, correctly, evict the
  // connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_EQ(daemon.svc.stats().connections_timed_out, 0u);
  gate.release();

  Response response;
  std::string error;
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  ASSERT_EQ(response.op, Opcode::kPrediction);
  const core::Prediction expected = fixture().model.predict(fx.queries[0]);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(response.confidence),
            std::bit_cast<std::uint64_t>(expected.confidence));
}

TEST(ChaosServer, ReloadWithMmapFaultKeepsOldSnapshotServing) {
  Disarmer guard;
  TestDaemon daemon;
  const Fixture& fx = fixture();

  const auto path = std::filesystem::temp_directory_path() /
                    ("fhc_chaos_reload_" + std::to_string(::getpid()) + ".fhcb");
  fx.model.save_binary_file(path.string());

  BlockingClient client;
  client.set_recv_timeout(5000);
  ASSERT_EQ(client.connect(daemon.endpoint(), /*retries=*/100), "");

  // Fail the model map's mmap on the reload path. The daemon must
  // answer ERROR, keep the old snapshot, and count no reload.
  util::FaultPlan plan;
  util::FaultRule rule;
  rule.site = util::FaultSite::kMmap;
  rule.nth = 1;
  plan.rules.push_back(rule);
  util::FaultInjector::instance().arm(std::move(plan));

  std::string wire;
  encode_reload(wire, path.string());
  wire += classify_frame(fx.queries[0]);  // pipelined behind the reload
  ASSERT_TRUE(client.send_bytes(wire));

  Response response;
  std::string error;
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  EXPECT_EQ(response.op, Opcode::kError) << response.text;
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  ASSERT_EQ(response.op, Opcode::kPrediction);
  const core::Prediction expected = fixture().model.predict(fx.queries[0]);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(response.confidence),
            std::bit_cast<std::uint64_t>(expected.confidence));
  EXPECT_EQ(daemon.svc.stats().reloads, 0u);
  util::FaultInjector::instance().disarm();

  // Faults spent: the same RELOAD now succeeds.
  wire.clear();
  encode_reload(wire, path.string());
  ASSERT_TRUE(client.send_bytes(wire));
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  EXPECT_EQ(response.op, Opcode::kOk) << response.text;
  EXPECT_EQ(daemon.svc.stats().reloads, 1u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace fhc::net
