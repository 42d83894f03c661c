// fhc::net::SocketServer end-to-end: the epoll daemon front-end against
// live Unix/TCP sockets.
//
// The load-bearing properties: socket replies are bit-identical to the
// serial FuzzyHashClassifier::predict path (the service equivalence
// extends through the wire), replies arrive strictly in request order
// under pipelining, admission control provably bounds the queue (BUSY
// frames + rejection counters, never silent queueing), and RELOAD /
// graceful shutdown work mid-connection. CLASSIFY_PATH extraction and
// RELOAD run on the service pool and replies leave from the service's
// callbacks: a slow file, a parked miss or a model load on one
// connection never holds up another, and shutdown waits out work still
// in flight.
#include "net/server.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "service/command_handler.hpp"
#include "support/scratch_dir.hpp"
#include "support/synthetic_hashes.hpp"

namespace fhc::net {
namespace {

struct Fixture {
  core::FuzzyHashClassifier model;         // threshold 0.3
  core::FuzzyHashClassifier strict_model;  // threshold 1.01: all unknown
  std::vector<core::FeatureHashes> queries;
};

Fixture make_fixture() {
  testsupport::SyntheticHashes data =
      testsupport::make_synthetic_hashes(testsupport::SyntheticHashesParams{});
  Fixture fx;
  fx.queries = std::move(data.queries);
  core::ClassifierConfig config;
  config.forest.n_estimators = 20;
  config.forest.seed = 11;
  config.confidence_threshold = 0.3;
  fx.model.fit(data.train, data.labels, {"A", "B", "C", "D"}, config);
  config.confidence_threshold = 1.01;
  fx.strict_model.fit(data.train, data.labels, {"A", "B", "C", "D"}, config);
  return fx;
}

const Fixture& fixture() {
  static const Fixture fx = make_fixture();
  return fx;
}

core::FuzzyHashClassifier clone(const core::FuzzyHashClassifier& model) {
  std::stringstream buffer;
  model.save(buffer);
  core::FuzzyHashClassifier copy;
  copy.load(buffer);
  return copy;
}

/// A fresh short unix socket path per server (sun_path is ~108 bytes).
std::string fresh_socket_path() {
  static int counter = 0;
  return "/tmp/fhc_net_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + ".sock";
}

/// Encodes one CLASSIFY_DIGESTS frame for `sample` (channel order).
std::string classify_frame(const core::FeatureHashes& sample) {
  std::vector<std::string> digests;
  for (std::size_t i = 0; i < sample.channel_count(); ++i) {
    digests.push_back(sample.channel(i).to_string());
  }
  std::string frame;
  encode_classify_digests(frame, digests);
  return frame;
}

std::string path_frame(const std::string& path) {
  std::string frame;
  encode_classify_path(frame, path);
  return frame;
}

void expect_prediction_matches(const Response& response,
                               const core::Prediction& expected) {
  ASSERT_EQ(response.op, Opcode::kPrediction);
  EXPECT_EQ(response.label, expected.label);
  EXPECT_EQ(response.is_unknown, expected.is_unknown);
  // Bit-identical, not approximately equal: the wire carries the f64 bit
  // pattern and the service layer guarantees the serial path's bits.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(response.confidence),
            std::bit_cast<std::uint64_t>(expected.confidence));
}

/// One server + service + handler bundle with test-friendly defaults.
struct TestDaemon {
  service::ClassificationService svc;
  service::CommandHandler handler;
  SocketServer server;

  explicit TestDaemon(core::FuzzyHashClassifier model,
                      service::ServiceConfig service_config = {},
                      ServerConfig server_config = {},
                      bool with_tcp = false)
      : svc(std::move(model), service_config),
        handler(svc),
        server(handler, [&] {
          if (server_config.unix_path.empty()) {
            server_config.unix_path = fresh_socket_path();
          }
          if (with_tcp) server_config.tcp_port = 0;  // ephemeral
          return server_config;
        }()) {
    server.start();
  }

  ~TestDaemon() {
    server.stop();
    server.join();
  }

  Endpoint unix_endpoint() const {
    Endpoint endpoint;
    endpoint.unix_path = server.unix_socket_path();
    return endpoint;
  }

  Endpoint tcp_endpoint() const {
    Endpoint endpoint;
    endpoint.port = server.tcp_port();
    return endpoint;
  }
};

TEST(SocketServer, UnixRepliesBitIdenticalToSerialPredict) {
  const Fixture& fx = fixture();
  TestDaemon daemon(clone(fx.model));
  BlockingClient client;
  ASSERT_EQ(client.connect(daemon.unix_endpoint(), /*retries=*/20), "");

  // Pipeline every query, then read every reply: order must match.
  std::string wire;
  for (const core::FeatureHashes& query : fx.queries) {
    wire += classify_frame(query);
  }
  ASSERT_TRUE(client.send_bytes(wire));
  const std::vector<std::string>& names = fx.model.class_names();
  for (const core::FeatureHashes& query : fx.queries) {
    Response response;
    std::string error;
    ASSERT_TRUE(client.read_response(response, &error)) << error;
    const core::Prediction expected = fx.model.predict(query);
    expect_prediction_matches(response, expected);
    if (expected.label >= 0) {
      EXPECT_EQ(response.text, names[static_cast<std::size_t>(expected.label)]);
    } else {
      EXPECT_TRUE(response.text.empty());
    }
  }
}

TEST(SocketServer, UnknownFlagTravelsTheWireBitIdentically) {
  // Open-set rejection through the socket path: the strict model flags
  // every query unknown, the PREDICTION frame must carry the flag and
  // label -1 exactly as serial predict decides, and the daemon's STATS
  // line must count the rejections.
  const Fixture& fx = fixture();
  TestDaemon daemon(clone(fx.strict_model));
  BlockingClient client;
  ASSERT_EQ(client.connect(daemon.unix_endpoint(), /*retries=*/20), "");
  for (const core::FeatureHashes& query : fx.queries) {
    ASSERT_TRUE(client.send_bytes(classify_frame(query)));
    Response response;
    std::string error;
    ASSERT_TRUE(client.read_response(response, &error)) << error;
    const core::Prediction expected = fx.strict_model.predict(query);
    ASSERT_TRUE(expected.is_unknown);  // fixture invariant
    expect_prediction_matches(response, expected);
    EXPECT_EQ(response.label, -1);
    EXPECT_TRUE(response.text.empty());
  }
  std::string stats_wire;
  encode_stats(stats_wire);
  ASSERT_TRUE(client.send_bytes(stats_wire));
  Response stats;
  std::string error;
  ASSERT_TRUE(client.read_response(stats, &error)) << error;
  ASSERT_EQ(stats.op, Opcode::kStatsText);
  EXPECT_NE(stats.text.find("unknown_flagged=" +
                            std::to_string(fx.queries.size())),
            std::string::npos)
      << stats.text;
}

TEST(SocketServer, TcpRepliesMatchUnixReplies) {
  const Fixture& fx = fixture();
  TestDaemon daemon(clone(fx.model), {}, {}, /*with_tcp=*/true);
  ASSERT_GE(daemon.server.tcp_port(), 0);
  BlockingClient client;
  ASSERT_EQ(client.connect(daemon.tcp_endpoint(), /*retries=*/20), "");
  for (const core::FeatureHashes& query : fx.queries) {
    ASSERT_TRUE(client.send_bytes(classify_frame(query)));
    Response response;
    std::string error;
    ASSERT_TRUE(client.read_response(response, &error)) << error;
    expect_prediction_matches(response, fx.model.predict(query));
  }
}

TEST(SocketServer, PipelinedRepliesInterleaveControlFramesInOrder) {
  const Fixture& fx = fixture();
  TestDaemon daemon(clone(fx.model));
  BlockingClient client;
  ASSERT_EQ(client.connect(daemon.unix_endpoint(), /*retries=*/20), "");

  // classify q0 | STATS | PING | classify q1 — one write. STATS and PING
  // resolve instantly server-side but must still wait for q0's slot.
  std::string wire = classify_frame(fx.queries[0]);
  encode_stats(wire);
  encode_ping(wire);
  wire += classify_frame(fx.queries[1]);
  ASSERT_TRUE(client.send_bytes(wire));

  Response response;
  std::string error;
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  expect_prediction_matches(response, fx.model.predict(fx.queries[0]));
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  EXPECT_EQ(response.op, Opcode::kStatsText);
  EXPECT_NE(response.text.find("requests="), std::string::npos);
  EXPECT_NE(response.text.find("connections_active=1"), std::string::npos);
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  EXPECT_EQ(response.op, Opcode::kOk);
  EXPECT_EQ(response.text, "pong");
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  expect_prediction_matches(response, fx.model.predict(fx.queries[1]));
}

TEST(SocketServer, AdmissionControlBoundsServiceQueueWithBusyFrames) {
  const Fixture& fx = fixture();
  service::ServiceConfig service_config;
  service_config.max_queue = 2;
  service_config.max_batch = 64;
  service_config.max_delay = std::chrono::milliseconds(10000);  // hold the batch
  service_config.cache_capacity = 0;
  TestDaemon daemon(clone(fx.model), service_config);
  BlockingClient client;
  ASSERT_EQ(client.connect(daemon.unix_endpoint(), /*retries=*/20), "");

  // 8 distinct queries: 2 admitted (fill the queue), 6 must be refused
  // with BUSY. The dispatcher is parked on max_delay, so nothing drains
  // the queue while the frames arrive.
  const std::size_t total = 8;
  std::string wire;
  for (std::size_t i = 0; i < total; ++i) wire += classify_frame(fx.queries[i]);
  ASSERT_TRUE(client.send_bytes(wire));

  // The queue provably never exceeded its bound: wait (bounded) for the
  // six rejections to land, then inspect depth directly.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (daemon.svc.stats().requests_rejected < total - 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const service::ServiceStats held = daemon.svc.stats();
  EXPECT_EQ(held.requests_rejected, total - 2);
  EXPECT_EQ(held.queue_depth, 2u);
  EXPECT_EQ(held.requests, 2u);

  // QUIT releases the parked batch (graceful drain flushes the service),
  // and the reply order is exactly the request order: prediction,
  // prediction, BUSY x6, OK.
  std::string quit;
  encode_quit(quit);
  ASSERT_TRUE(client.send_bytes(quit));
  Response response;
  std::string error;
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.read_response(response, &error)) << error;
    expect_prediction_matches(response, fx.model.predict(fx.queries[i]));
  }
  for (std::size_t i = 2; i < total; ++i) {
    ASSERT_TRUE(client.read_response(response, &error)) << error;
    EXPECT_EQ(response.op, Opcode::kBusy) << "reply " << i;
  }
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  EXPECT_EQ(response.op, Opcode::kOk);
  EXPECT_EQ(response.text, "bye");
  // Graceful shutdown: the server closes the drained connection and exits.
  EXPECT_FALSE(client.read_response(response, &error));
  daemon.server.join();
}

TEST(SocketServer, PerConnectionPipelineLimitAnswersBusy) {
  const Fixture& fx = fixture();
  service::ServiceConfig service_config;
  service_config.max_batch = 64;
  service_config.max_delay = std::chrono::milliseconds(10000);
  service_config.cache_capacity = 0;
  ServerConfig server_config;
  server_config.max_pipeline = 3;
  TestDaemon daemon(clone(fx.model), service_config, server_config);
  BlockingClient client;
  ASSERT_EQ(client.connect(daemon.unix_endpoint(), /*retries=*/20), "");

  // 6 classifies + QUIT in one write: the frames dispatch strictly in
  // order on the same connection, so exactly 3 are in flight when the
  // limit trips, and QUIT's drain releases the parked batch — no timing.
  std::string wire;
  for (std::size_t i = 0; i < 6; ++i) wire += classify_frame(fx.queries[i]);
  encode_quit(wire);
  ASSERT_TRUE(client.send_bytes(wire));

  Response response;
  std::string error;
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.read_response(response, &error)) << error;
    expect_prediction_matches(response, fx.model.predict(fx.queries[i]));
  }
  for (std::size_t i = 3; i < 6; ++i) {
    ASSERT_TRUE(client.read_response(response, &error)) << error;
    EXPECT_EQ(response.op, Opcode::kBusy) << "reply " << i;
  }
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  EXPECT_EQ(response.op, Opcode::kOk);
  daemon.server.join();
}

TEST(SocketServer, ConnectionLimitRejectsWithBusyAndCounts) {
  const Fixture& fx = fixture();
  ServerConfig server_config;
  server_config.max_connections = 2;
  TestDaemon daemon(clone(fx.model), {}, server_config);

  BlockingClient first;
  BlockingClient second;
  ASSERT_EQ(first.connect(daemon.unix_endpoint(), /*retries=*/20), "");
  ASSERT_EQ(second.connect(daemon.unix_endpoint(), /*retries=*/20), "");
  // Confirm both are registered before the third knocks.
  std::string ping;
  encode_ping(ping);
  Response response;
  std::string error;
  ASSERT_TRUE(first.send_bytes(ping));
  ASSERT_TRUE(first.read_response(response, &error)) << error;
  ASSERT_TRUE(second.send_bytes(ping));
  ASSERT_TRUE(second.read_response(response, &error)) << error;

  BlockingClient third;
  ASSERT_EQ(third.connect(daemon.unix_endpoint(), /*retries=*/20), "");
  ASSERT_TRUE(third.read_response(response, &error)) << error;
  EXPECT_EQ(response.op, Opcode::kBusy);
  EXPECT_FALSE(third.read_response(response, &error));  // closed after BUSY

  const service::ServiceStats stats = daemon.svc.stats();
  EXPECT_EQ(stats.connections_opened, 2u);
  EXPECT_EQ(stats.connections_active, 2u);
  EXPECT_EQ(stats.connections_rejected, 1u);

  // A freed slot admits again.
  first.close();
  BlockingClient fourth;
  std::string late_error;
  for (int attempt = 0; attempt < 100; ++attempt) {
    ASSERT_EQ(fourth.connect(daemon.unix_endpoint(), /*retries=*/20), "");
    ASSERT_TRUE(fourth.send_bytes(ping));
    if (fourth.read_response(response, &late_error) &&
        response.op == Opcode::kOk) {
      break;
    }
    // The server may not have reaped the closed fd yet.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(response.op, Opcode::kOk);
}

TEST(SocketServer, ReloadMidConnectionSwapsModel) {
  const Fixture& fx = fixture();
  TestDaemon daemon(clone(fx.model));
  BlockingClient client;
  ASSERT_EQ(client.connect(daemon.unix_endpoint(), /*retries=*/20), "");

  Response response;
  std::string error;
  ASSERT_TRUE(client.send_bytes(classify_frame(fx.queries[0])));
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  expect_prediction_matches(response, fx.model.predict(fx.queries[0]));

  const auto path = std::filesystem::temp_directory_path() /
                    ("fhc_net_reload_" + std::to_string(::getpid()) + ".fhcb");
  fx.strict_model.save_binary_file(path.string());
  std::string wire;
  encode_reload(wire, path.string());
  wire += classify_frame(fx.queries[0]);  // pipelined behind the reload
  ASSERT_TRUE(client.send_bytes(wire));
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  ASSERT_EQ(response.op, Opcode::kOk) << response.text;
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  // The strict model answers everything unknown — and bit-identically to
  // its own serial path.
  expect_prediction_matches(response, fx.strict_model.predict(fx.queries[0]));
  EXPECT_EQ(response.label, ml::kUnknownLabel);
  EXPECT_EQ(daemon.svc.stats().reloads, 1u);

  // A bad reload answers ERROR and leaves the daemon serving.
  std::string bad;
  encode_reload(bad, "/nonexistent/model.fhcb");
  ASSERT_TRUE(client.send_bytes(bad));
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  EXPECT_EQ(response.op, Opcode::kError);
  ASSERT_TRUE(client.send_bytes(classify_frame(fx.queries[1])));
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  EXPECT_EQ(response.op, Opcode::kPrediction);
  std::filesystem::remove(path);
}

TEST(SocketServer, ReloadWithDamagedModelAnswersErrorAndKeepsServing) {
  // Verify-before-swap over the wire: a RELOAD naming a bit-flipped
  // model file answers ERROR, the old snapshot keeps serving
  // bit-identically, and the reload counter stays put.
  const Fixture& fx = fixture();
  TestDaemon daemon(clone(fx.model));
  BlockingClient client;
  ASSERT_EQ(client.connect(daemon.unix_endpoint(), /*retries=*/20), "");

  const auto path = std::filesystem::temp_directory_path() /
                    ("fhc_net_damaged_" + std::to_string(::getpid()) + ".fhcb");
  fx.strict_model.save_binary_file(path.string());
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    const auto size = std::filesystem::file_size(path);
    file.seekp(static_cast<std::streamoff>(size / 2));
    const char flip = 0x40;
    file.write(&flip, 1);
  }

  std::string wire;
  encode_reload(wire, path.string());
  wire += classify_frame(fx.queries[0]);  // pipelined behind the bad reload
  ASSERT_TRUE(client.send_bytes(wire));
  Response response;
  std::string error;
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  EXPECT_EQ(response.op, Opcode::kError) << response.text;
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  // Old model, not the (strict) one the damaged file carried.
  expect_prediction_matches(response, fx.model.predict(fx.queries[0]));
  EXPECT_EQ(daemon.svc.stats().reloads, 0u);
  std::filesystem::remove(path);
}

TEST(SocketServer, StopDrainsInFlightRepliesBeforeClosing) {
  const Fixture& fx = fixture();
  TestDaemon daemon(clone(fx.model));
  BlockingClient client;
  ASSERT_EQ(client.connect(daemon.unix_endpoint(), /*retries=*/20), "");

  std::string wire;
  for (std::size_t i = 0; i < 4; ++i) wire += classify_frame(fx.queries[i]);
  ASSERT_TRUE(client.send_bytes(wire));
  daemon.server.stop();  // graceful: owed replies still arrive

  Response response;
  std::string error;
  std::size_t predictions = 0;
  while (client.read_response(response, &error)) {
    if (response.op == Opcode::kPrediction) ++predictions;
  }
  // The race between the reads and the stop means some frames may never
  // have been decoded; every decoded one was answered, and the server
  // exited cleanly.
  EXPECT_LE(predictions, 4u);
  daemon.server.join();
}

TEST(SocketServer, OversizedFrameAnswersErrorAndCloses) {
  const Fixture& fx = fixture();
  ServerConfig server_config;
  server_config.max_frame = 1024;
  TestDaemon daemon(clone(fx.model), {}, server_config);
  BlockingClient client;
  ASSERT_EQ(client.connect(daemon.unix_endpoint(), /*retries=*/20), "");

  std::string wire;
  encode_classify_path(wire, std::string(4096, 'x'));  // > max_frame
  ASSERT_TRUE(client.send_bytes(wire));
  Response response;
  std::string error;
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  EXPECT_EQ(response.op, Opcode::kError);
  EXPECT_NE(response.text.find("protocol error"), std::string::npos);
  EXPECT_FALSE(client.read_response(response, &error));  // connection closed
}

TEST(SocketServer, MalformedDigestAnswersErrorAndKeepsConnection) {
  const Fixture& fx = fixture();
  TestDaemon daemon(clone(fx.model));
  BlockingClient client;
  ASSERT_EQ(client.connect(daemon.unix_endpoint(), /*retries=*/20), "");

  std::string wire;
  encode_classify_digests(wire, std::vector<std::string>{"not a digest"});
  ASSERT_TRUE(client.send_bytes(wire));
  Response response;
  std::string error;
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  EXPECT_EQ(response.op, Opcode::kError);
  EXPECT_NE(response.text.find("malformed digest"), std::string::npos);

  // Input errors are per-request: the connection still serves.
  ASSERT_TRUE(client.send_bytes(classify_frame(fx.queries[0])));
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  expect_prediction_matches(response, fx.model.predict(fx.queries[0]));
}

TEST(SocketServer, UnknownOpcodeAnswersErrorAndKeepsConnection) {
  const Fixture& fx = fixture();
  TestDaemon daemon(clone(fx.model));
  BlockingClient client;
  ASSERT_EQ(client.connect(daemon.unix_endpoint(), /*retries=*/20), "");

  // A well-framed payload with an opcode the server does not know.
  std::string wire;
  wire.push_back(1);  // payload_len = 1
  wire.push_back(0);
  wire.push_back(0);
  wire.push_back(0);
  wire.push_back(0x7d);
  ASSERT_TRUE(client.send_bytes(wire));
  Response response;
  std::string error;
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  EXPECT_EQ(response.op, Opcode::kError);

  std::string ping;
  encode_ping(ping);
  ASSERT_TRUE(client.send_bytes(ping));
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  EXPECT_EQ(response.op, Opcode::kOk);
}

TEST(SocketServer, RunLoadDrivesManyPipelinedConnections) {
  const Fixture& fx = fixture();
  TestDaemon daemon(clone(fx.model));
  std::vector<std::string> frames;
  for (const core::FeatureHashes& query : fx.queries) {
    frames.push_back(classify_frame(query));
  }
  LoadOptions options;
  options.endpoint = daemon.unix_endpoint();
  options.connections = 8;
  options.pipeline = 4;
  options.requests = 32;
  options.connect_retries = 20;
  const LoadResult result = run_load(options, frames);
  EXPECT_TRUE(result.ok()) << result.failure;
  EXPECT_EQ(result.sent, 8u * 32u);
  EXPECT_EQ(result.predictions, 8u * 32u);
  EXPECT_EQ(result.busy, 0u);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_LE(result.p50_ms, result.p99_ms);
  EXPECT_LE(result.p99_ms, result.max_ms);
  const service::ServiceStats stats = daemon.svc.stats();
  EXPECT_EQ(stats.connections_opened, 8u);
  EXPECT_GE(stats.requests, 8u * 32u);
}

TEST(SocketServer, PathRepliesBitIdenticalToSerialPredict) {
  const Fixture& fx = fixture();
  const testsupport::ScratchDir dir("net_paths");
  const std::vector<std::string> paths = testsupport::write_corpus_elfs(dir, 8);
  TestDaemon daemon(clone(fx.model));
  BlockingClient client;
  ASSERT_EQ(client.connect(daemon.unix_endpoint(), /*retries=*/20), "");

  // Pipelined: the extractions run concurrently on the pool, the replies
  // still come back in request order.
  std::string wire;
  for (const std::string& path : paths) wire += path_frame(path);
  ASSERT_TRUE(client.send_bytes(wire));
  const std::vector<std::string>& names = fx.model.class_names();
  for (const std::string& path : paths) {
    Response response;
    std::string error;
    ASSERT_TRUE(client.read_response(response, &error)) << error;
    const core::Prediction expected = fx.model.predict(testsupport::features_of(path));
    expect_prediction_matches(response, expected);
    if (expected.label >= 0) {
      EXPECT_EQ(response.text, names[static_cast<std::size_t>(expected.label)]);
    }
  }
}

TEST(SocketServer, PipelinedPathErrorKeepsOrderAndReleasesInflight) {
  const Fixture& fx = fixture();
  const testsupport::ScratchDir dir("net_path_error");
  const std::vector<std::string> paths = testsupport::write_corpus_elfs(dir, 2);
  ServerConfig server_config;
  server_config.max_inflight = 4;
  TestDaemon daemon(clone(fx.model), {}, server_config);
  BlockingClient client;
  ASSERT_EQ(client.connect(daemon.unix_endpoint(), /*retries=*/20), "");

  std::string wire = path_frame(paths[0]);
  wire += path_frame((dir.root() / "missing").string());
  wire += classify_frame(fx.queries[0]);
  wire += path_frame(paths[1]);
  ASSERT_TRUE(client.send_bytes(wire));
  Response response;
  std::string error;
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  expect_prediction_matches(response, fx.model.predict(testsupport::features_of(paths[0])));
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  EXPECT_EQ(response.op, Opcode::kError);
  EXPECT_NE(response.text.find("cannot open"), std::string::npos) << response.text;
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  expect_prediction_matches(response, fx.model.predict(fx.queries[0]));
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  expect_prediction_matches(response, fx.model.predict(testsupport::features_of(paths[1])));

  // The failed extraction gave its server-wide in-flight unit back: a
  // full max_inflight burst is admitted without a single BUSY.
  wire.clear();
  for (std::size_t i = 1; i <= 4; ++i) wire += classify_frame(fx.queries[i]);
  ASSERT_TRUE(client.send_bytes(wire));
  for (std::size_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(client.read_response(response, &error)) << error;
    expect_prediction_matches(response, fx.model.predict(fx.queries[i]));
  }
}

TEST(SocketServer, NonRegularPathAnswersErrorAndKeepsServing) {
  // A FIFO would block a plain read forever (and with it a pool worker);
  // /dev/zero never ends. Both are refused before a byte is read.
  const Fixture& fx = fixture();
  const testsupport::ScratchDir dir("net_fifo");
  const std::string fifo = (dir.root() / "pipe").string();
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  TestDaemon daemon(clone(fx.model));
  BlockingClient client;
  ASSERT_EQ(client.connect(daemon.unix_endpoint(), /*retries=*/20), "");

  std::string wire = path_frame(fifo);
  wire += path_frame("/dev/zero");
  wire += classify_frame(fx.queries[0]);
  ASSERT_TRUE(client.send_bytes(wire));
  Response response;
  std::string error;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.read_response(response, &error)) << error;
    EXPECT_EQ(response.op, Opcode::kError);
    EXPECT_NE(response.text.find("not a regular file"), std::string::npos)
        << response.text;
  }
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  expect_prediction_matches(response, fx.model.predict(fx.queries[0]));
}

TEST(SocketServer, SlowPathOnOneConnectionDoesNotDelayAnother) {
  const Fixture& fx = fixture();
  const testsupport::ScratchDir dir("net_hol");
  const std::string big =
      testsupport::write_noise_file(dir, "big", testsupport::slow_input_bytes());
  TestDaemon daemon(clone(fx.model));
  BlockingClient slow;
  BlockingClient fast;
  ASSERT_EQ(slow.connect(daemon.unix_endpoint(), /*retries=*/20), "");
  ASSERT_EQ(fast.connect(daemon.unix_endpoint(), /*retries=*/20), "");

  ASSERT_TRUE(slow.send_bytes(path_frame(big)));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // hashing now
  ASSERT_TRUE(fast.send_bytes(classify_frame(fx.queries[0])));
  Response response;
  std::string error;
  ASSERT_TRUE(fast.read_response(response, &error)) << error;
  expect_prediction_matches(response, fx.model.predict(fx.queries[0]));

  // The digest reply overtook the file still being hashed for the other
  // connection: nothing has arrived there yet.
  slow.set_recv_timeout(1);
  const BlockingClient::ReadStatus early = slow.read_response_status(response, &error);
  EXPECT_EQ(early, BlockingClient::ReadStatus::kTransport)
      << "the slow path request answered before the fast digest request";
  slow.set_recv_timeout(0);
  if (early != BlockingClient::ReadStatus::kOk) {
    ASSERT_TRUE(slow.read_response(response, &error)) << error;
  }
  expect_prediction_matches(response, fx.model.predict(testsupport::features_of(big)));
}

TEST(SocketServer, ReloadBehindPathRequestAppliesAfterIt) {
  // Frames ahead of a RELOAD score on the old model even when their
  // extraction is still running on the pool when the RELOAD arrives.
  const Fixture& fx = fixture();
  const testsupport::ScratchDir dir("net_reload_order");
  const std::string input = testsupport::write_noise_file(dir, "input", 4u << 20);
  const std::string model_path = (dir.root() / "strict.fhcb").string();
  fx.strict_model.save_binary_file(model_path);
  TestDaemon daemon(clone(fx.model));
  BlockingClient client;
  ASSERT_EQ(client.connect(daemon.unix_endpoint(), /*retries=*/20), "");

  std::string wire = path_frame(input);
  encode_reload(wire, model_path);
  wire += path_frame(input);
  ASSERT_TRUE(client.send_bytes(wire));
  const core::FeatureHashes features = testsupport::features_of(input);
  Response response;
  std::string error;
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  expect_prediction_matches(response, fx.model.predict(features));
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  EXPECT_EQ(response.op, Opcode::kOk) << response.text;
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  expect_prediction_matches(response, fx.strict_model.predict(features));
}

/// A dispatcher that only flushes on request: a request submitted during
/// shutdown resolves promptly only if someone flushes after it.
service::ServiceConfig parked_service_config() {
  service::ServiceConfig config;
  config.max_batch = 64;
  config.max_delay = std::chrono::milliseconds(60000);
  return config;
}

TEST(SocketServer, StopWithZeroDrainTimeoutWaitsOutPathExtraction) {
  // A drain timeout of 0 force-closes the connection while its file is
  // still being hashed on the pool. The task must not outlive the server
  // (it holds a pointer into it), and its future must still resolve.
  const Fixture& fx = fixture();
  const testsupport::ScratchDir dir("net_drain_stop");
  const std::string big =
      testsupport::write_noise_file(dir, "big", testsupport::slow_input_bytes());
  ServerConfig server_config;
  server_config.drain_timeout_ms = 0;
  TestDaemon daemon(clone(fx.model), parked_service_config(), server_config);
  BlockingClient client;
  ASSERT_EQ(client.connect(daemon.unix_endpoint(), /*retries=*/20), "");

  ASSERT_TRUE(client.send_bytes(path_frame(big)));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // hashing now
  const auto stop_at = std::chrono::steady_clock::now();
  daemon.server.stop();
  daemon.server.join();
  // Well inside the parked max_delay: the late submit was flushed.
  EXPECT_LT(std::chrono::steady_clock::now() - stop_at, std::chrono::seconds(30));
  Response response;
  std::string error;
  EXPECT_FALSE(client.read_response(response, &error));  // force-closed

  const service::ServiceStats stats = daemon.svc.stats();
  EXPECT_EQ(stats.requests, 1u);  // the extraction finished and submitted
  EXPECT_EQ(stats.completed, stats.requests);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(SocketServer, QuitWhilePathExtractsStillAnswersIt) {
  const Fixture& fx = fixture();
  const testsupport::ScratchDir dir("net_drain_quit");
  const std::string big =
      testsupport::write_noise_file(dir, "big", testsupport::slow_input_bytes());
  ServerConfig server_config;
  server_config.drain_timeout_ms = 60000;  // the drain must outlast hashing
  TestDaemon daemon(clone(fx.model), parked_service_config(), server_config);
  BlockingClient client;
  ASSERT_EQ(client.connect(daemon.unix_endpoint(), /*retries=*/20), "");

  // QUIT flushes the service before the path request reaches it; the
  // late submit must flush again or the drain would wait out max_delay.
  std::string wire = path_frame(big);
  encode_quit(wire);
  const auto sent_at = std::chrono::steady_clock::now();
  ASSERT_TRUE(client.send_bytes(wire));
  Response response;
  std::string error;
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  expect_prediction_matches(response, fx.model.predict(testsupport::features_of(big)));
  ASSERT_TRUE(client.read_response(response, &error)) << error;
  EXPECT_EQ(response.op, Opcode::kOk);
  EXPECT_EQ(response.text, "bye");
  EXPECT_FALSE(client.read_response(response, &error));
  daemon.server.join();
  EXPECT_LT(std::chrono::steady_clock::now() - sent_at, std::chrono::seconds(30));

  const service::ServiceStats stats = daemon.svc.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.completed, stats.requests);
}

TEST(SocketServer, CacheHitOnOneConnectionOvertakesParkedMissOnAnother) {
  // Replies go from the service's callback straight to the loop, so a
  // hit on connection B never queues behind A's unscored miss.
  const Fixture& fx = fixture();
  TestDaemon daemon(clone(fx.model), parked_service_config());
  std::future<core::Prediction> warm = daemon.svc.submit(fx.queries[0]);
  daemon.svc.flush();
  warm.get();  // queries[0] is cached
  BlockingClient a;
  BlockingClient b;
  ASSERT_EQ(a.connect(daemon.unix_endpoint(), /*retries=*/20), "");
  ASSERT_EQ(b.connect(daemon.unix_endpoint(), /*retries=*/20), "");

  ASSERT_TRUE(a.send_bytes(classify_frame(fx.queries[1])));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // A is parked
  b.set_recv_timeout(2000);
  ASSERT_TRUE(b.send_bytes(classify_frame(fx.queries[0])));
  Response response;
  std::string error;
  ASSERT_TRUE(b.read_response(response, &error))
      << "the cache hit waited behind the other connection's miss: " << error;
  expect_prediction_matches(response, fx.model.predict(fx.queries[0]));
  EXPECT_EQ(daemon.svc.stats().queue_depth, 1u);  // A still parked

  daemon.svc.flush();
  ASSERT_TRUE(a.read_response(response, &error)) << error;
  expect_prediction_matches(response, fx.model.predict(fx.queries[1]));
}

TEST(SocketServer, ReloadOnOneConnectionOvertakesParkedMissOnAnother) {
  // RELOAD runs as its own pool task: its OK on connection B does not
  // wait for A's unscored request.
  const Fixture& fx = fixture();
  const testsupport::ScratchDir dir("net_hol_reload");
  const std::string model_path = (dir.root() / "same.fhcb").string();
  fx.model.save_binary_file(model_path);
  TestDaemon daemon(clone(fx.model), parked_service_config());
  BlockingClient a;
  BlockingClient b;
  ASSERT_EQ(a.connect(daemon.unix_endpoint(), /*retries=*/20), "");
  ASSERT_EQ(b.connect(daemon.unix_endpoint(), /*retries=*/20), "");

  ASSERT_TRUE(a.send_bytes(classify_frame(fx.queries[1])));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // A is parked
  b.set_recv_timeout(2000);
  std::string wire;
  encode_reload(wire, model_path);
  ASSERT_TRUE(b.send_bytes(wire));
  Response response;
  std::string error;
  ASSERT_TRUE(b.read_response(response, &error))
      << "the RELOAD waited behind the other connection's miss: " << error;
  EXPECT_EQ(response.op, Opcode::kOk) << response.text;
  EXPECT_EQ(daemon.svc.stats().queue_depth, 1u);  // A still parked

  daemon.svc.flush();
  ASSERT_TRUE(a.read_response(response, &error)) << error;
  expect_prediction_matches(response, fx.model.predict(fx.queries[1]));
}

}  // namespace
}  // namespace fhc::net
