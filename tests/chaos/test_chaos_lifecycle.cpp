// Deadline-aware request lifecycle: expired work is provably never
// scored.
//
// The load-bearing properties: a request whose deadline passes while it
// waits for its scoring task to start resolves with DeadlineExceeded and
// a zero candidates_scored delta (shedding costs no scoring work), live
// requests submitted alongside shed ones still answer bit-identically
// to serial predict, the queue-age bound (max_queue_delay) sheds the
// same way, the DEADLINE_EXCEEDED wire opcode reaches socket clients,
// and a CLASSIFY_PATH deadline counts from frame decode, so time spent
// extracting features is spent from the client's budget.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <chrono>
#include <future>
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
#include "support/scratch_dir.hpp"
#include "support/synthetic_hashes.hpp"

namespace fhc::service {
namespace {

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

/// Paired with a GatedPool: no scoring task starts until the test
/// releases the gate, so tests control exactly when the deadline check
/// runs relative to the deadline.
ServiceConfig parked_config() {
  ServiceConfig config;
  config.cache_capacity = 0;  // a hit would answer without queueing
  return config;
}

TEST(DeadlineLifecycle, ExpiredRequestIsNeverScored) {
  const Fixture& fx = fixture();
  testsupport::GatedPool gate;
  ClassificationService svc(clone_model(), parked_config(), gate.get());
  const ServiceStats before = svc.stats();

  std::future<core::Prediction> future =
      svc.submit(fx.queries[0], std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate.release();
  EXPECT_THROW(future.get(), DeadlineExceeded);

  const ServiceStats after = svc.stats();
  EXPECT_EQ(after.deadline_expired - before.deadline_expired, 1u);
  EXPECT_EQ(after.completed - before.completed, 1u);
  // The proof the request never reached scoring: no rows scored, no
  // candidates visited, not even a scoring task counted for it.
  EXPECT_EQ(after.scored, before.scored);
  EXPECT_EQ(after.candidates_scored, before.candidates_scored);
  EXPECT_EQ(after.batches, before.batches);
}

TEST(DeadlineLifecycle, LiveRequestsInAMixedBatchStayBitIdentical) {
  const Fixture& fx = fixture();
  testsupport::GatedPool gate;
  ClassificationService svc(clone_model(), parked_config(), gate.get());

  // One generous deadline, one already-hopeless deadline, one without —
  // all parked until the gate opens.
  std::future<core::Prediction> live =
      svc.submit(fx.queries[0], std::chrono::milliseconds(60000));
  std::future<core::Prediction> doomed =
      svc.submit(fx.queries[1], std::chrono::milliseconds(1));
  std::future<core::Prediction> unbounded = svc.submit(fx.queries[2]);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate.release();

  EXPECT_THROW(doomed.get(), DeadlineExceeded);
  const core::Prediction live_pred = live.get();
  const core::Prediction unbounded_pred = unbounded.get();
  const core::Prediction expected0 = fixture().model.predict(fx.queries[0]);
  const core::Prediction expected2 = fixture().model.predict(fx.queries[2]);
  EXPECT_EQ(live_pred.label, expected0.label);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(live_pred.confidence),
            std::bit_cast<std::uint64_t>(expected0.confidence));
  EXPECT_EQ(unbounded_pred.label, expected2.label);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(unbounded_pred.confidence),
            std::bit_cast<std::uint64_t>(expected2.confidence));

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.deadline_expired, 1u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.scored, 2u);
}

TEST(DeadlineLifecycle, QueueAgeBoundShedsWithoutPerRequestDeadline) {
  const Fixture& fx = fixture();
  ServiceConfig config = parked_config();
  config.max_queue_delay = std::chrono::milliseconds(5);
  testsupport::GatedPool gate;
  ClassificationService svc(clone_model(), config, gate.get());

  std::future<core::Prediction> future = svc.submit(fx.queries[0]);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  gate.release();
  EXPECT_THROW(future.get(), DeadlineExceeded);
  EXPECT_EQ(svc.stats().deadline_expired, 1u);
  EXPECT_EQ(svc.stats().scored, 0u);

  // Fresh work on the open pool still scores.
  std::future<core::Prediction> quick = svc.submit(fx.queries[1]);
  EXPECT_NO_THROW(quick.get());
}

TEST(DeadlineLifecycle, GenerousDeadlineDoesNotShed) {
  const Fixture& fx = fixture();
  testsupport::GatedPool gate;
  ClassificationService svc(clone_model(), parked_config(), gate.get());
  std::future<core::Prediction> future =
      svc.submit(fx.queries[0], std::chrono::milliseconds(60000));
  gate.release();
  EXPECT_NO_THROW(future.get());
  EXPECT_EQ(svc.stats().deadline_expired, 0u);
}

TEST(DeadlineLifecycle, DeadlineExceededReachesTheWire) {
  const Fixture& fx = fixture();
  testsupport::GatedPool gate;
  ClassificationService svc(clone_model(), parked_config(), gate.get());
  service::CommandHandler handler(svc);
  net::ServerConfig server_config;
  server_config.unix_path = "/tmp/fhc_chaos_ddl_" +
                            std::to_string(::getpid()) + ".sock";
  net::SocketServer server(handler, server_config);
  server.start();

  net::BlockingClient client;
  net::Endpoint endpoint;
  endpoint.unix_path = server.unix_socket_path();
  ASSERT_EQ(client.connect(endpoint, /*retries=*/100), "");

  // Frame 1: 1 ms deadline (doomed while the scoring task is parked).
  // Frame 2: no deadline (must still answer bit-identically).
  std::vector<std::string> digests;
  for (std::size_t i = 0; i < fx.queries[0].channel_count(); ++i) {
    digests.push_back(fx.queries[0].channel(i).to_string());
  }
  std::string wire;
  net::encode_classify_digests(wire, digests, std::uint32_t{1});
  net::encode_classify_digests(wire, digests);
  ASSERT_TRUE(client.send_bytes(wire));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate.release();

  net::Response response;
  std::string error;
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  EXPECT_EQ(response.op, net::Opcode::kDeadlineExceeded);
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  ASSERT_EQ(response.op, net::Opcode::kPrediction);
  const core::Prediction expected = fixture().model.predict(fx.queries[0]);
  EXPECT_EQ(response.label, expected.label);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(response.confidence),
            std::bit_cast<std::uint64_t>(expected.confidence));

  // The shed request shows up in the daemon's own accounting.
  EXPECT_EQ(svc.stats().deadline_expired, 1u);
  server.stop();
  server.join();
}

TEST(DeadlineLifecycle, PathDeadlineCountsExtractionTime) {
  // A scoring task is posted the moment a request is submitted, so a
  // 1 ms budget counted from enqueue would usually score. Counted from
  // frame decode it is long gone once the file is hashed: shed, never
  // scored.
  ServiceConfig config;
  config.cache_capacity = 0;
  ClassificationService svc(clone_model(), config);
  service::CommandHandler handler(svc);
  net::ServerConfig server_config;
  server_config.unix_path = "/tmp/fhc_chaos_pathddl_" +
                            std::to_string(::getpid()) + ".sock";
  net::SocketServer server(handler, server_config);
  server.start();
  const testsupport::ScratchDir dir("chaos_path_deadline");
  const std::string big =
      testsupport::write_noise_file(dir, "big", testsupport::slow_input_bytes());

  net::BlockingClient client;
  net::Endpoint endpoint;
  endpoint.unix_path = server.unix_socket_path();
  ASSERT_EQ(client.connect(endpoint, /*retries=*/100), "");
  std::string wire;
  net::encode_classify_path(wire, big, std::uint32_t{1});
  ASSERT_TRUE(client.send_bytes(wire));
  net::Response response;
  std::string error;
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  EXPECT_EQ(response.op, net::Opcode::kDeadlineExceeded);

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.deadline_expired, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.scored, 0u);
  EXPECT_EQ(stats.batches, 0u);

  // A budget that covers the extraction still scores, bit-identically.
  wire.clear();
  net::encode_classify_path(wire, big, std::uint32_t{600000});
  ASSERT_TRUE(client.send_bytes(wire));
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  ASSERT_EQ(response.op, net::Opcode::kPrediction);
  const core::Prediction expected =
      fixture().model.predict(testsupport::features_of(big));
  EXPECT_EQ(response.label, expected.label);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(response.confidence),
            std::bit_cast<std::uint64_t>(expected.confidence));
  EXPECT_EQ(svc.stats().deadline_expired, 1u);
  server.stop();
  server.join();
}

}  // namespace
}  // namespace fhc::service
