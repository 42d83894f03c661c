// ClassificationService: batching, sharding, caching, reload, stats.
//
// The load-bearing property everywhere: the service is an *equivalent*
// front-end to FuzzyHashClassifier::predict — every layer (micro-batch,
// in-batch dedup, class-sharded rows, LRU cache) must return predictions
// bit-identical to the serial path.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include "service/command_handler.hpp"

#include <atomic>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "support/synthetic_hashes.hpp"

namespace fhc::service {
namespace {

struct Fixture {
  std::vector<core::FeatureHashes> train;
  std::vector<int> labels;
  core::FuzzyHashClassifier model;            // threshold 0.3
  core::FuzzyHashClassifier strict_model;     // threshold 1.01: all unknown
  std::vector<core::FeatureHashes> queries;   // 16 distinct held-out variants
};

// 4 classes x 12 samples of the shared synthetic-hash corpus (the real
// pipeline's comparison mix), in milliseconds of setup.
Fixture make_fixture() {
  testsupport::SyntheticHashes data =
      testsupport::make_synthetic_hashes(testsupport::SyntheticHashesParams{});
  Fixture fx;
  fx.train = std::move(data.train);
  fx.labels = std::move(data.labels);
  fx.queries = std::move(data.queries);

  core::ClassifierConfig config;
  config.forest.n_estimators = 20;
  config.forest.seed = 11;
  config.confidence_threshold = 0.3;
  fx.model.fit(fx.train, fx.labels, {"A", "B", "C", "D"}, config);

  config.confidence_threshold = 1.01;
  fx.strict_model.fit(fx.train, fx.labels, {"A", "B", "C", "D"}, config);
  return fx;
}

const Fixture& fixture() {
  static const Fixture fx = make_fixture();
  return fx;
}

/// Deep copy through the text serialization (FuzzyHashClassifier is
/// move-only); save/load is prediction-identical by the PR 2 property.
core::FuzzyHashClassifier clone(const core::FuzzyHashClassifier& model) {
  std::stringstream buffer;
  model.save(buffer);
  core::FuzzyHashClassifier copy;
  copy.load(buffer);
  return copy;
}

void expect_identical(const core::Prediction& a, const core::Prediction& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.confidence, b.confidence);
  ASSERT_EQ(a.proba.size(), b.proba.size());
  for (std::size_t c = 0; c < a.proba.size(); ++c) EXPECT_EQ(a.proba[c], b.proba[c]);
}

/// Bounded admission with the callback resolving a promise, for tests
/// that wait on the result. On refusal `out` is left untouched.
bool try_submit(ClassificationService& svc, const core::FeatureHashes& sample,
                std::future<core::Prediction>& out) {
  auto promise = std::make_shared<std::promise<core::Prediction>>();
  std::future<core::Prediction> future = promise->get_future();
  const bool admitted = svc.try_submit(
      sample, [promise](const core::Prediction* prediction, std::exception_ptr error) {
        if (prediction != nullptr) {
          promise->set_value(*prediction);
        } else {
          promise->set_exception(std::move(error));
        }
      });
  if (admitted) out = std::move(future);
  return admitted;
}

TEST(ClassificationService, ClassifyBatchBitIdenticalToSerialPredict) {
  const Fixture& fx = fixture();
  ClassificationService svc(clone(fx.model));
  const std::vector<core::Prediction> batch = svc.classify_batch(fx.queries);
  ASSERT_EQ(batch.size(), fx.queries.size());
  for (std::size_t i = 0; i < fx.queries.size(); ++i) {
    expect_identical(batch[i], fx.model.predict(fx.queries[i]));
  }
}

TEST(ClassificationService, ShardCountsProduceIdenticalPredictions) {
  const Fixture& fx = fixture();
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
    ServiceConfig config;
    config.shards = shards;  // 16 > n_classes exercises the clamp
    ClassificationService svc(clone(fx.model), config);
    const auto batch = svc.classify_batch(fx.queries);
    for (std::size_t i = 0; i < fx.queries.size(); ++i) {
      expect_identical(batch[i], fx.model.predict(fx.queries[i]));
    }
  }
}

TEST(ClassificationService, ConcurrentSubmitsAgreeWithSerialPredict) {
  const Fixture& fx = fixture();
  ClassificationService svc(clone(fx.model));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 16;
  std::vector<std::vector<std::future<core::Prediction>>> futures(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto& query =
            fx.queries[static_cast<std::size_t>(t * 5 + i) % fx.queries.size()];
        futures[static_cast<std::size_t>(t)].push_back(svc.submit(query));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const auto& query =
          fx.queries[static_cast<std::size_t>(t * 5 + i) % fx.queries.size()];
      expect_identical(futures[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)].get(),
                       fx.model.predict(query));
    }
  }
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.requests, kThreads * kPerThread);
  EXPECT_EQ(stats.completed, kThreads * kPerThread);
}

TEST(ClassificationService, CacheHitsReturnIdenticalPredictions) {
  const Fixture& fx = fixture();
  ClassificationService svc(clone(fx.model));
  const core::Prediction first = svc.submit(fx.queries[0]).get();
  const core::Prediction second = svc.submit(fx.queries[0]).get();
  expect_identical(second, first);
  expect_identical(second, fx.model.predict(fx.queries[0]));
  const ServiceStats stats = svc.stats();
  EXPECT_GE(stats.cache_hits, 1u);
  EXPECT_EQ(stats.scored, 1u);
}

TEST(ClassificationService, InBatchDedupScoresRepeatsOnce) {
  const Fixture& fx = fixture();
  ServiceConfig config;
  config.cache_capacity = 0;  // isolate dedup from the cache
  config.max_batch = 8;
  config.max_delay = std::chrono::milliseconds(10000);  // flush only on fill
  ClassificationService svc(clone(fx.model), config);
  const std::vector<core::FeatureHashes> repeats(8, fx.queries[1]);
  const auto batch = svc.classify_batch(repeats);
  for (const core::Prediction& pred : batch) {
    expect_identical(pred, fx.model.predict(fx.queries[1]));
  }
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.scored, 1u);
  EXPECT_EQ(stats.dedup_hits, 7u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.largest_batch, 8u);
}

TEST(ClassificationService, ReloadSwapsWithoutDroppingInFlight) {
  const Fixture& fx = fixture();
  ClassificationService svc(clone(fx.model));
  // Keep a stream of requests in flight across the swap.
  std::vector<std::future<core::Prediction>> futures;
  for (int round = 0; round < 4; ++round) {
    for (const core::FeatureHashes& query : fx.queries) {
      futures.push_back(svc.submit(query));
    }
    if (round == 1) svc.reload(clone(fx.strict_model));
  }
  // Every future resolves; none is dropped or broken by the swap. Each
  // result is bit-identical to one of the two models' serial predictions
  // (which model scored it depends on flush timing).
  std::size_t resolved = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const core::Prediction pred = futures[i].get();
    ++resolved;
    const auto& query = fx.queries[i % fx.queries.size()];
    const core::Prediction old_pred = fx.model.predict(query);
    const core::Prediction new_pred = fx.strict_model.predict(query);
    EXPECT_TRUE(pred.label == old_pred.label || pred.label == new_pred.label);
  }
  EXPECT_EQ(resolved, futures.size());
  EXPECT_EQ(svc.stats().reloads, 1u);
  // After the swap the strict model (threshold 1.01) answers everything
  // unknown — including samples the cache answered pre-swap, proving the
  // cache was invalidated.
  for (const core::FeatureHashes& query : fx.queries) {
    EXPECT_EQ(svc.submit(query).get().label, ml::kUnknownLabel);
  }
}

TEST(ClassificationService, ReloadV2AttachedModelSurvivesFileReplacement) {
  // The daemon's RELOAD path with the v2 container: both generations are
  // mmap'd + attached zero-copy, and the model file is atomically
  // REPLACED on disk between them. In-flight batches submitted against
  // the old generation must still resolve after the swap — the keepalive
  // chain (snapshot -> classifier -> TrainIndex/forest -> ModelMap) pins
  // the old mapping even though its directory entry is gone.
  const Fixture& fx = fixture();
  const auto path = std::filesystem::temp_directory_path() /
                    ("fhc_service_v2_" + std::to_string(::getpid()) + ".fhcb");
  fx.model.save_binary_file(path.string());
  auto first = core::FuzzyHashClassifier::load_file(path.string());
  ASSERT_TRUE(first.index().attached());
  ClassificationService svc(std::move(first));

  std::vector<std::future<core::Prediction>> futures;
  for (int round = 0; round < 4; ++round) {
    for (const core::FeatureHashes& query : fx.queries) {
      futures.push_back(svc.submit(query));
    }
    if (round == 1) {
      // Atomic rewrite of the SAME file the live model is mapped from,
      // then reload from it.
      fx.strict_model.save_binary_file(path.string());
      auto second = core::FuzzyHashClassifier::load_file(path.string());
      ASSERT_TRUE(second.index().attached());
      svc.reload(std::move(second));
      std::filesystem::remove(path);  // mappings outlive the name
    }
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const core::Prediction pred = futures[i].get();
    const auto& query = fx.queries[i % fx.queries.size()];
    const core::Prediction old_pred = fx.model.predict(query);
    const core::Prediction new_pred = fx.strict_model.predict(query);
    EXPECT_TRUE(pred.label == old_pred.label || pred.label == new_pred.label);
  }
  EXPECT_EQ(svc.stats().reloads, 1u);
  // Post-swap the strict attached model answers everything unknown, and
  // its predictions are bit-identical to the fitted strict model's.
  for (const core::FeatureHashes& query : fx.queries) {
    const core::Prediction pred = svc.submit(query).get();
    EXPECT_EQ(pred.label, ml::kUnknownLabel);
    expect_identical(pred, fx.strict_model.predict(query));
  }
}

TEST(ClassificationService, StatsCountersAreConsistent) {
  const Fixture& fx = fixture();
  ClassificationService svc(clone(fx.model));
  for (int round = 0; round < 3; ++round) svc.classify_batch(fx.queries);
  const ServiceStats stats = svc.stats();
  const auto total = static_cast<std::uint64_t>(3 * fx.queries.size());
  EXPECT_EQ(stats.requests, total);
  EXPECT_EQ(stats.completed, total);
  // Every request is answered exactly one way.
  EXPECT_EQ(stats.scored + stats.cache_hits + stats.dedup_hits, total);
  EXPECT_GE(stats.cache_hits, static_cast<std::uint64_t>(2 * fx.queries.size()));
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LE(stats.largest_batch, svc.config().max_batch);
  EXPECT_GE(stats.cache_hit_rate(), 0.0);
  EXPECT_LE(stats.cache_hit_rate(), 1.0);
  EXPECT_LE(stats.p50_ms, stats.p99_ms);
  EXPECT_LE(stats.p99_ms, stats.max_ms);
  EXPECT_EQ(stats.reloads, 0u);
}

TEST(ClassificationService, GateCountersShowTheIndexWorking) {
  const Fixture& fx = fixture();
  ServiceConfig config;
  config.cache_capacity = 0;  // force every request through scoring
  ClassificationService svc(clone(fx.model), config);
  svc.classify_batch(fx.queries);
  const ServiceStats after_first = svc.stats();

  // Scoring ran, and the candidate index pruned cross-class digests (the
  // synthetic corpus's classes share no 7-grams across classes).
  EXPECT_GT(after_first.candidates_scored, 0u);
  EXPECT_GT(after_first.index_skipped, 0u);
  EXPECT_GE(after_first.index_skip_rate(), 0.0);
  EXPECT_LE(after_first.index_skip_rate(), 1.0);

  // Class slices partition each row, so the service totals must equal
  // one full-width indexed fill per scored query.
  core::RowFillStats expected;
  const core::TrainIndex& index = svc.model()->index();
  const auto metric = svc.model()->config().metric;
  std::vector<float> row(svc.model()->row_width());
  for (const core::FeatureHashes& query : fx.queries) {
    core::fill_feature_row(index, query, metric, -1, row,
                           svc.model()->config().channels, &expected);
  }
  EXPECT_EQ(after_first.candidates_scored, expected.candidates_scored);
  EXPECT_EQ(after_first.index_skipped, expected.index_skipped);

  // Counters accumulate across batches.
  svc.classify_batch(fx.queries);
  const ServiceStats after_second = svc.stats();
  EXPECT_EQ(after_second.candidates_scored, 2 * after_first.candidates_scored);
  EXPECT_EQ(after_second.index_skipped, 2 * after_first.index_skipped);
}

TEST(ClassificationService, DestructorDrainsPendingRequests) {
  const Fixture& fx = fixture();
  std::vector<std::future<core::Prediction>> futures;
  {
    ServiceConfig config;
    config.max_batch = 64;                                // bigger than the stream
    config.max_delay = std::chrono::milliseconds(10000);  // only shutdown flushes
    config.cache_capacity = 0;
    ClassificationService svc(clone(fx.model), config);
    for (const core::FeatureHashes& query : fx.queries) {
      futures.push_back(svc.submit(query));
    }
  }  // destructor must drain, not drop
  for (std::size_t i = 0; i < futures.size(); ++i) {
    expect_identical(futures[i].get(), fx.model.predict(fx.queries[i]));
  }
}

TEST(ClassificationService, RejectsUnfittedModels) {
  EXPECT_THROW(ClassificationService(core::FuzzyHashClassifier{}),
               std::invalid_argument);
  const Fixture& fx = fixture();
  ClassificationService svc(clone(fx.model));
  EXPECT_THROW(svc.reload(core::FuzzyHashClassifier{}), std::invalid_argument);
  // The failed reload left the original model active.
  expect_identical(svc.submit(fx.queries[0]).get(), fx.model.predict(fx.queries[0]));
  EXPECT_EQ(svc.stats().reloads, 0u);
}

TEST(ClassificationService, TrySubmitBoundsQueueAndCountsRejections) {
  const Fixture& fx = fixture();
  ServiceConfig config;
  config.max_queue = 2;
  config.max_batch = 64;
  config.max_delay = std::chrono::milliseconds(10000);  // park the batch
  config.cache_capacity = 0;
  ClassificationService svc(clone(fx.model), config);

  // The dispatcher is waiting out max_delay, so submissions accumulate:
  // exactly max_queue are admitted, the rest are refused and counted.
  std::vector<std::future<core::Prediction>> admitted;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    std::future<core::Prediction> future;
    if (try_submit(svc, fx.queries[i], future)) {
      admitted.push_back(std::move(future));
    } else {
      ++rejected;
      EXPECT_FALSE(future.valid());  // rejection hands back nothing
    }
  }
  EXPECT_EQ(admitted.size(), 2u);
  EXPECT_EQ(rejected, 6u);

  const ServiceStats held = svc.stats();
  EXPECT_EQ(held.queue_depth, 2u);  // provably bounded by max_queue
  EXPECT_EQ(held.requests_rejected, 6u);
  // Rejected requests are never counted as submitted, so the
  // completed == requests invariant survives admission control.
  EXPECT_EQ(held.requests, 2u);

  // flush() releases the parked batch; admitted futures resolve
  // bit-identically to the serial path and the queue empties.
  svc.flush();
  for (std::size_t i = 0; i < admitted.size(); ++i) {
    expect_identical(admitted[i].get(), fx.model.predict(fx.queries[i]));
  }
  const ServiceStats drained = svc.stats();
  EXPECT_EQ(drained.completed, drained.requests);
  EXPECT_EQ(drained.queue_depth, 0u);

  // With the queue empty, try_submit admits again.
  std::future<core::Prediction> future;
  EXPECT_TRUE(try_submit(svc, fx.queries[0], future));
  svc.flush();
  expect_identical(future.get(), fx.model.predict(fx.queries[0]));
}

TEST(ClassificationService, TrySubmitAdmitsCacheHitsPastFullQueue) {
  const Fixture& fx = fixture();
  ServiceConfig config;
  config.max_queue = 1;
  config.max_batch = 64;
  config.max_delay = std::chrono::milliseconds(10000);
  ClassificationService svc(clone(fx.model), config);

  // Score and cache q0 first.
  std::future<core::Prediction> warm;
  ASSERT_TRUE(try_submit(svc, fx.queries[0], warm));
  svc.flush();
  expect_identical(warm.get(), fx.model.predict(fx.queries[0]));

  // Fill the queue, then submit the cached sample: a hit never occupies
  // the queue, so it is admitted even at the bound.
  std::future<core::Prediction> fills;
  ASSERT_TRUE(try_submit(svc, fx.queries[1], fills));
  std::future<core::Prediction> refused;
  EXPECT_FALSE(try_submit(svc, fx.queries[2], refused));
  std::future<core::Prediction> hit;
  EXPECT_TRUE(try_submit(svc, fx.queries[0], hit));
  expect_identical(hit.get(), fx.model.predict(fx.queries[0]));

  svc.flush();
  expect_identical(fills.get(), fx.model.predict(fx.queries[1]));
}

/// Records one request's completion callback: how often it ran, what it
/// resolved with, and the stats() snapshot taken inside it.
struct CallbackProbe {
  std::atomic<int> calls{0};
  std::promise<void> ran;
  ServiceStats seen;
  std::optional<core::Prediction> prediction;
  std::exception_ptr error;

  ClassificationService::OnDone callback(ClassificationService& svc) {
    return [this, &svc](const core::Prediction* pred, std::exception_ptr err) {
      // Self-deadlocks if the service still held one of its locks here.
      seen = svc.stats();
      if (pred != nullptr) prediction = *pred;
      error = std::move(err);
      if (calls.fetch_add(1) == 0) ran.set_value();
    };
  }

  void wait() { ran.get_future().wait(); }
};

TEST(ClassificationService, CallbacksRunOnceAfterTheirRequestIsCounted) {
  // Every resolution path — scored, in-batch dedup fan-out, deadline
  // shed, cache hit — runs the callback exactly once, with no service
  // lock held, and stats() read inside it already counts the request.
  const Fixture& fx = fixture();
  CallbackProbe scored;
  CallbackProbe dedup_first;
  CallbackProbe dedup_second;
  CallbackProbe shed;
  CallbackProbe hit;
  {
    ServiceConfig config;
    config.max_batch = 64;
    config.max_delay = std::chrono::milliseconds(10000);  // park the batch
    ClassificationService svc(clone(fx.model), config);

    ASSERT_TRUE(svc.try_submit(fx.queries[0], scored.callback(svc)));
    ASSERT_TRUE(svc.try_submit(fx.queries[1], dedup_first.callback(svc)));
    ASSERT_TRUE(svc.try_submit(fx.queries[1], dedup_second.callback(svc)));
    ASSERT_TRUE(svc.try_submit(fx.queries[2], shed.callback(svc),
                               std::chrono::milliseconds(1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // q2 expires
    EXPECT_EQ(scored.calls.load(), 0);  // still parked
    svc.flush();
    for (CallbackProbe* probe : {&scored, &dedup_first, &dedup_second, &shed}) {
      probe->wait();
    }

    // The expired request is answered before the batch is scored.
    EXPECT_EQ(shed.seen.deadline_expired, 1u);
    EXPECT_EQ(shed.seen.completed, 1u);
    EXPECT_EQ(shed.seen.scored, 0u);
    EXPECT_FALSE(shed.prediction);
    EXPECT_THROW(std::rethrow_exception(shed.error), DeadlineExceeded);

    // The live three: counters for the whole batch land before any of
    // its callbacks.
    for (CallbackProbe* probe : {&scored, &dedup_first, &dedup_second}) {
      EXPECT_EQ(probe->seen.completed, 4u);
      EXPECT_EQ(probe->seen.scored, 2u);
      EXPECT_EQ(probe->seen.dedup_hits, 1u);
      EXPECT_EQ(probe->seen.batches, 1u);
      EXPECT_FALSE(probe->error);
    }
    ASSERT_TRUE(scored.prediction);
    expect_identical(*scored.prediction, fx.model.predict(fx.queries[0]));
    ASSERT_TRUE(dedup_first.prediction);
    ASSERT_TRUE(dedup_second.prediction);
    expect_identical(*dedup_first.prediction, fx.model.predict(fx.queries[1]));
    expect_identical(*dedup_second.prediction, fx.model.predict(fx.queries[1]));

    // A cache hit resolves inline, before try_submit returns.
    ASSERT_TRUE(svc.try_submit(fx.queries[0], hit.callback(svc)));
    EXPECT_EQ(hit.calls.load(), 1);
    EXPECT_EQ(hit.seen.cache_hits, 1u);
    EXPECT_EQ(hit.seen.completed, 5u);
    ASSERT_TRUE(hit.prediction);
    expect_identical(*hit.prediction, fx.model.predict(fx.queries[0]));
  }  // the destructor drains: no callback is left to run twice
  for (CallbackProbe* probe : {&scored, &dedup_first, &dedup_second, &shed, &hit}) {
    EXPECT_EQ(probe->calls.load(), 1);
  }
}

TEST(ClassificationService, FlushDispatchesBacklogLargerThanMaxBatch) {
  const Fixture& fx = fixture();
  ServiceConfig config;
  config.max_batch = 4;
  config.max_delay = std::chrono::milliseconds(10000);
  config.cache_capacity = 0;
  ClassificationService svc(clone(fx.model), config);

  // 12 pending > max_batch: one flush() must drain the whole backlog
  // (the flush request is sticky until the queue empties) — graceful
  // daemon shutdown depends on this.
  std::vector<std::future<core::Prediction>> futures;
  for (std::size_t i = 0; i < 12; ++i) futures.push_back(svc.submit(fx.queries[i]));
  svc.flush();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    expect_identical(futures[i].get(), fx.model.predict(fx.queries[i]));
  }
  const ServiceStats stats = svc.stats();
  EXPECT_GE(stats.batches, 3u);  // 12 across batches of <= 4
  EXPECT_LE(stats.largest_batch, 4u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(ClassificationService, ConnectionCountersTrackTheSocketFrontEnd) {
  const Fixture& fx = fixture();
  ClassificationService svc(clone(fx.model));
  svc.record_connection_opened();
  svc.record_connection_opened();
  svc.record_connection_opened();
  svc.record_connection_closed();
  svc.record_connection_rejected();
  svc.record_connection_rejected();
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.connections_opened, 3u);
  EXPECT_EQ(stats.connections_active, 2u);
  EXPECT_EQ(stats.connections_rejected, 2u);
  // Spurious closes (a close racing shutdown) never underflow.
  svc.record_connection_closed();
  svc.record_connection_closed();
  svc.record_connection_closed();
  EXPECT_EQ(svc.stats().connections_active, 0u);
}

TEST(ClassificationService, UnknownFlaggedCountsRejectionsIncludingCacheHits) {
  const Fixture& fx = fixture();
  // strict_model (threshold 1.01) rejects everything; the counter must
  // see every completed request, whether it was scored or answered by
  // the cache.
  ClassificationService strict(clone(fx.strict_model));
  const auto first = strict.classify_batch(fx.queries);
  for (const core::Prediction& pred : first) {
    EXPECT_TRUE(pred.is_unknown);
    EXPECT_EQ(pred.label, ml::kUnknownLabel);
  }
  EXPECT_EQ(strict.stats().unknown_flagged, fx.queries.size());
  strict.classify_batch(fx.queries);  // all cache hits
  const ServiceStats stats = strict.stats();
  EXPECT_GE(stats.cache_hits, fx.queries.size());
  EXPECT_EQ(stats.unknown_flagged, 2 * fx.queries.size());

  // A permissive model never bumps the counter.
  ClassificationService relaxed(clone(fx.model));
  std::size_t expected = 0;
  for (const core::Prediction& pred : relaxed.classify_batch(fx.queries)) {
    if (pred.is_unknown) ++expected;
  }
  EXPECT_EQ(relaxed.stats().unknown_flagged, expected);
}

TEST(ClassificationService, UnknownFlagBitIdenticalToSerialPredict) {
  // The service's is_unknown must be the serial path's decision exactly —
  // the socket front-end forwards this bit verbatim, so any divergence
  // here is a wire-visible lie.
  const Fixture& fx = fixture();
  ClassificationService svc(clone(fx.strict_model));
  const auto batch = svc.classify_batch(fx.queries);
  for (std::size_t i = 0; i < fx.queries.size(); ++i) {
    const core::Prediction serial = fx.strict_model.predict(fx.queries[i]);
    EXPECT_EQ(batch[i].is_unknown, serial.is_unknown) << "query " << i;
    expect_identical(batch[i], serial);
  }
}

TEST(CommandHandler, StatsLineCarriesAdmissionCounters) {
  const Fixture& fx = fixture();
  ClassificationService svc(clone(fx.model));
  CommandHandler handler(svc);
  svc.record_connection_opened();
  const std::string line = handler.stats_line();
  EXPECT_NE(line.find("connections_opened=1"), std::string::npos);
  EXPECT_NE(line.find("connections_active=1"), std::string::npos);
  EXPECT_NE(line.find("connections_rejected=0"), std::string::npos);
  EXPECT_NE(line.find("requests_rejected=0"), std::string::npos);
  EXPECT_NE(line.find("queue_depth=0"), std::string::npos);
  EXPECT_NE(line.find("requests="), std::string::npos);
  EXPECT_NE(line.find("unknown_flagged=0"), std::string::npos);
  EXPECT_NE(line.find("p99_ms="), std::string::npos);
}

TEST(CommandHandler, HandleLineSpeaksTheStdioProtocol) {
  const Fixture& fx = fixture();
  ClassificationService svc(clone(fx.model));
  CommandHandler handler(svc);

  std::ostringstream out;
  EXPECT_TRUE(handler.handle_line("STATS", out));
  EXPECT_NE(out.str().find("requests=0"), std::string::npos);

  out.str("");
  EXPECT_TRUE(handler.handle_line("CLASSIFY /nonexistent/binary", out));
  EXPECT_EQ(out.str().rfind("ERR ", 0), 0u);

  out.str("");
  EXPECT_TRUE(handler.handle_line("CLASSIFY", out));
  EXPECT_NE(out.str().find("ERR CLASSIFY needs at least one path"),
            std::string::npos);

  out.str("");
  EXPECT_TRUE(handler.handle_line("RELOAD /nonexistent/model", out));
  EXPECT_EQ(out.str().rfind("ERR ", 0), 0u);
  EXPECT_EQ(svc.stats().reloads, 0u);

  out.str("");
  EXPECT_TRUE(handler.handle_line("BOGUS", out));
  EXPECT_NE(out.str().find("ERR unknown command: BOGUS"), std::string::npos);

  out.str("");
  EXPECT_TRUE(handler.handle_line("", out));  // blank lines are skipped
  EXPECT_TRUE(out.str().empty());

  out.str("");
  EXPECT_FALSE(handler.handle_line("QUIT", out));  // false = exit
  EXPECT_NE(out.str().find("OK bye"), std::string::npos);
}

TEST(CommandHandler, ReloadWithDamagedModelKeepsOldModelServing) {
  // Verify-before-swap: a RELOAD pointing at a bit-flipped model file
  // must fail the checksum pass, leave the old snapshot live, and count
  // no reload.
  const Fixture& fx = fixture();
  ClassificationService svc(clone(fx.model));
  CommandHandler handler(svc);

  const auto path = std::filesystem::temp_directory_path() /
                    ("fhc_service_damaged_" + std::to_string(::getpid()) +
                     ".fhcb");
  fx.strict_model.save_binary_file(path.string());
  // Flip one byte in the middle of the payload (past the header/table,
  // inside some section's bytes).
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    const auto size = std::filesystem::file_size(path);
    ASSERT_GT(size, 128u);
    file.seekg(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(static_cast<std::streamoff>(size / 2));
    file.write(&byte, 1);
  }

  const CommandHandler::ReloadResult result = handler.reload(path.string());
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.message.empty());
  EXPECT_EQ(svc.stats().reloads, 0u);
  // The old model still answers, bit-identically to its serial path —
  // NOT the strict model's all-unknown behaviour.
  for (const core::FeatureHashes& query : fx.queries) {
    expect_identical(svc.submit(query).get(), fx.model.predict(query));
  }

  // Repair the file: the same RELOAD now succeeds and swaps.
  fx.strict_model.save_binary_file(path.string());
  const CommandHandler::ReloadResult repaired = handler.reload(path.string());
  EXPECT_TRUE(repaired.ok) << repaired.message;
  EXPECT_EQ(svc.stats().reloads, 1u);
  EXPECT_TRUE(svc.submit(fx.queries[0]).get().is_unknown);
  std::filesystem::remove(path);
}

TEST(ShardedLruCache, EvictsLeastRecentlyUsedPerShard) {
  core::Prediction value;
  value.label = 1;
  value.confidence = 0.75;
  ShardedLruCache cache(/*capacity=*/2, /*shards=*/1);
  cache.put("a", value);
  cache.put("b", value);
  ASSERT_TRUE(cache.get("a").has_value());  // refresh "a"; "b" is now LRU
  cache.put("c", value);                    // evicts "b"
  EXPECT_TRUE(cache.get("a").has_value());
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_TRUE(cache.get("c").has_value());
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get("a").has_value());
}

TEST(ShardedLruCache, RefreshUpdatesValueInPlace) {
  core::Prediction first;
  first.label = 1;
  core::Prediction second;
  second.label = 2;
  ShardedLruCache cache(/*capacity=*/4, /*shards=*/1);
  cache.put("a", first);
  cache.put("b", first);
  cache.put("a", second);
  EXPECT_EQ(cache.size(), 2u);
  const auto hit = cache.get("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->label, 2);
}

TEST(ShardedLruCache, KeysOutliveTheCallersString) {
  // The map's keys view the cache's own copy of each key, never the
  // caller's buffer: destroying or rewriting it must not lose the entry.
  core::Prediction value;
  value.label = 3;
  ShardedLruCache cache(/*capacity=*/4, /*shards=*/1);
  {
    std::string temporary(300, 'k');  // digest-sized, past any SSO buffer
    cache.put(temporary, value);
  }
  std::string reused(300, 'm');
  cache.put(reused, value);
  reused.assign(300, 'z');
  EXPECT_TRUE(cache.get(std::string(300, 'k')).has_value());
  EXPECT_TRUE(cache.get(std::string(300, 'm')).has_value());
  EXPECT_FALSE(cache.get(reused).has_value());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ShardedLruCache, EvictionAfterRefreshRemovesTheOtherKey) {
  core::Prediction value;
  ShardedLruCache cache(/*capacity=*/2, /*shards=*/1);
  cache.put("a", value);
  cache.put("b", value);
  cache.put("a", value);  // refresh by put: "b" is now LRU
  cache.put("c", value);  // evicts "b"
  EXPECT_TRUE(cache.get("a").has_value());
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_TRUE(cache.get("c").has_value());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ShardedLruCache, PutAfterClearWorks) {
  core::Prediction value;
  value.label = 4;
  ShardedLruCache cache(/*capacity=*/2, /*shards=*/1);
  cache.put("a", value);
  cache.put("b", value);
  cache.clear();
  cache.put("a", value);
  cache.put("c", value);
  cache.put("d", value);  // evicts "a": the cleared shard counts afresh
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.get("a").has_value());
  EXPECT_FALSE(cache.get("b").has_value());
  const auto hit = cache.get("c");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->label, 4);
  EXPECT_TRUE(cache.get("d").has_value());
}

TEST(ShardedLruCache, ZeroCapacityDisables) {
  core::Prediction value;
  ShardedLruCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.put("a", value);
  EXPECT_FALSE(cache.get("a").has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ServiceSampleKey, DistinguishesChannels) {
  const Fixture& fx = fixture();
  EXPECT_EQ(sample_key(fx.queries[0]), sample_key(fx.queries[0]));
  EXPECT_NE(sample_key(fx.queries[0]), sample_key(fx.queries[1]));
  // Swapping channel contents must change the key: the key is positional.
  core::FeatureHashes swapped = fx.queries[0];
  std::swap(swapped.strings, swapped.symbols);
  EXPECT_NE(sample_key(swapped), sample_key(fx.queries[0]));
}

}  // namespace
}  // namespace fhc::service
