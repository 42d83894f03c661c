// ClassificationService: per-key scoring tasks, single flight, caching,
// reload, admission, stats.
//
// The load-bearing property everywhere: the service is an *equivalent*
// front-end to FuzzyHashClassifier::predict — every layer (scoring task,
// single-flight join, LRU cache) must return predictions bit-identical
// to the serial path. Tests that need requests to wait at a known point
// run the service on a GatedPool, whose worker does nothing until the
// test releases it.
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

#include "support/gated_pool.hpp"
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

TEST(ClassificationService, SingleFlightScoresRepeatsOnce) {
  // The first miss posts the key's task; the 7 repeats submitted while it
  // waits for the gated worker join it instead of scoring again.
  const Fixture& fx = fixture();
  testsupport::GatedPool gate;
  ServiceConfig config;
  config.cache_capacity = 0;  // isolate single flight from the cache
  ClassificationService svc(clone(fx.model), config, gate.get());
  std::vector<std::future<core::Prediction>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(svc.submit(fx.queries[1]));
  EXPECT_EQ(svc.stats().queue_depth, 1u);  // one task for the key
  gate.release();
  for (std::future<core::Prediction>& future : futures) {
    expect_identical(future.get(), fx.model.predict(fx.queries[1]));
  }
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.scored, 1u);
  EXPECT_EQ(stats.dedup_hits, 7u);
  EXPECT_EQ(stats.batches, 1u);
}

TEST(ClassificationService, SingleFlightScoresEachKeyOnceUnderConcurrentSubmits) {
  // 8 threads submit the same 4 cold samples, interleaved, for 8 rounds.
  // A repeat either joins its key's in-flight task or, once that task has
  // cached the result, hits the cache: each key is scored exactly once,
  // however the submits straddle the scoring.
  const Fixture& fx = fixture();
  ClassificationService svc(clone(fx.model));
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kKeys = 4;
  constexpr std::size_t kRounds = 8;
  constexpr std::size_t kPerThread = kKeys * kRounds;
  struct Slot {
    std::atomic<int> calls{0};
    std::optional<core::Prediction> prediction;
  };
  std::vector<Slot> slots(kThreads * kPerThread);
  std::atomic<std::size_t> answered{0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        Slot& slot = slots[t * kPerThread + i];
        EXPECT_TRUE(svc.try_submit(
            fx.queries[(t + i) % kKeys],
            [&slot, &answered](const core::Prediction* pred, std::exception_ptr) {
              if (pred != nullptr) slot.prediction = *pred;
              slot.calls.fetch_add(1);
              answered.fetch_add(1);
            }));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  while (answered.load() < slots.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.scored, kKeys);
  EXPECT_EQ(stats.requests, slots.size());
  EXPECT_EQ(stats.completed, stats.requests);
  EXPECT_EQ(stats.scored + stats.dedup_hits + stats.cache_hits, stats.requests);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      const Slot& slot = slots[t * kPerThread + i];
      EXPECT_EQ(slot.calls.load(), 1);
      ASSERT_TRUE(slot.prediction);
      expect_identical(*slot.prediction, fx.model.predict(fx.queries[(t + i) % kKeys]));
    }
  }
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
  // (which model scored it depends on when its task started).
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

TEST(ClassificationService, ReloadAttachedModelSurvivesFileReplacement) {
  // The daemon's RELOAD path with the binary container: both generations are
  // mmap'd + attached zero-copy, and the model file is atomically
  // REPLACED on disk between them. In-flight requests submitted against
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

  // The service totals must equal one full-width indexed fill per
  // scored query.
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

  // Counters accumulate across tasks.
  svc.classify_batch(fx.queries);
  const ServiceStats after_second = svc.stats();
  EXPECT_EQ(after_second.candidates_scored, 2 * after_first.candidates_scored);
  EXPECT_EQ(after_second.index_skipped, 2 * after_first.index_skipped);
}

TEST(ClassificationService, DestructorDrainsPendingRequests) {
  const Fixture& fx = fixture();
  std::vector<std::future<core::Prediction>> futures;
  testsupport::GatedPool gate;
  {
    ServiceConfig config;
    config.cache_capacity = 0;
    ClassificationService svc(clone(fx.model), config, gate.get());
    for (const core::FeatureHashes& query : fx.queries) {
      futures.push_back(svc.submit(query));
    }
    gate.release();  // the tasks are still queued when the destructor starts
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
  testsupport::GatedPool gate;  // parks the scoring tasks
  ServiceConfig config;
  config.max_queue = 2;
  config.cache_capacity = 0;
  ClassificationService svc(clone(fx.model), config, gate.get());

  // No task can start, so submissions accumulate: exactly max_queue are
  // admitted, the rest are refused and counted.
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

  // Releasing the gate runs the parked tasks; admitted futures resolve
  // bit-identically to the serial path and the queue empties.
  gate.release();
  for (std::size_t i = 0; i < admitted.size(); ++i) {
    expect_identical(admitted[i].get(), fx.model.predict(fx.queries[i]));
  }
  const ServiceStats drained = svc.stats();
  EXPECT_EQ(drained.completed, drained.requests);
  EXPECT_EQ(drained.queue_depth, 0u);

  // With the queue empty, try_submit admits again.
  std::future<core::Prediction> future;
  EXPECT_TRUE(try_submit(svc, fx.queries[0], future));
  expect_identical(future.get(), fx.model.predict(fx.queries[0]));
}

TEST(ClassificationService, TrySubmitAdmitsCacheHitsPastFullQueue) {
  const Fixture& fx = fixture();
  testsupport::GatedPool gate;
  ServiceConfig config;
  config.max_queue = 1;
  ClassificationService svc(clone(fx.model), config, gate.get());

  // Score and cache q0 first, then park the worker again.
  std::future<core::Prediction> warm;
  ASSERT_TRUE(try_submit(svc, fx.queries[0], warm));
  gate.release();
  expect_identical(warm.get(), fx.model.predict(fx.queries[0]));
  gate.close();

  // Fill the queue, then submit the cached sample: a hit never occupies
  // the queue, so it is admitted even at the bound.
  std::future<core::Prediction> fills;
  ASSERT_TRUE(try_submit(svc, fx.queries[1], fills));
  std::future<core::Prediction> refused;
  EXPECT_FALSE(try_submit(svc, fx.queries[2], refused));
  std::future<core::Prediction> hit;
  EXPECT_TRUE(try_submit(svc, fx.queries[0], hit));
  expect_identical(hit.get(), fx.model.predict(fx.queries[0]));
  // So is a repeat of the queued sample: it joins q1's task.
  std::future<core::Prediction> joined;
  EXPECT_TRUE(try_submit(svc, fx.queries[1], joined));

  gate.release();
  expect_identical(fills.get(), fx.model.predict(fx.queries[1]));
  expect_identical(joined.get(), fx.model.predict(fx.queries[1]));
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
  // Every resolution path — deadline shed, scored, single-flight join,
  // cache hit — runs the callback exactly once, with no service lock
  // held, and stats() read inside it already counts the request.
  const Fixture& fx = fixture();
  CallbackProbe shed;
  CallbackProbe scored;
  CallbackProbe dedup_first;
  CallbackProbe dedup_second;
  CallbackProbe hit;
  {
    // One gated worker: the tasks run one by one, in submission order,
    // once released.
    testsupport::GatedPool gate;
    ClassificationService svc(clone(fx.model), {}, gate.get());

    ASSERT_TRUE(svc.try_submit(fx.queries[2], shed.callback(svc),
                               std::chrono::milliseconds(1)));
    ASSERT_TRUE(svc.try_submit(fx.queries[0], scored.callback(svc)));
    ASSERT_TRUE(svc.try_submit(fx.queries[1], dedup_first.callback(svc)));
    ASSERT_TRUE(svc.try_submit(fx.queries[1], dedup_second.callback(svc)));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // q2 expires
    EXPECT_EQ(scored.calls.load(), 0);  // still parked
    gate.release();
    for (CallbackProbe* probe : {&shed, &scored, &dedup_first, &dedup_second}) {
      probe->wait();
    }

    // The expired request is answered before anything is scored.
    EXPECT_EQ(shed.seen.deadline_expired, 1u);
    EXPECT_EQ(shed.seen.completed, 1u);
    EXPECT_EQ(shed.seen.scored, 0u);
    EXPECT_FALSE(shed.prediction);
    EXPECT_THROW(std::rethrow_exception(shed.error), DeadlineExceeded);

    // q0's task: its counters land before its callback.
    EXPECT_EQ(scored.seen.completed, 2u);
    EXPECT_EQ(scored.seen.scored, 1u);
    EXPECT_EQ(scored.seen.dedup_hits, 0u);
    EXPECT_EQ(scored.seen.batches, 1u);
    EXPECT_FALSE(scored.error);
    // q1's task answers both of its waiters, after counting both.
    for (CallbackProbe* probe : {&dedup_first, &dedup_second}) {
      EXPECT_EQ(probe->seen.completed, 4u);
      EXPECT_EQ(probe->seen.scored, 2u);
      EXPECT_EQ(probe->seen.dedup_hits, 1u);
      EXPECT_EQ(probe->seen.batches, 2u);
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
  }  // the destructor waits for the tasks: no callback is left to run twice
  for (CallbackProbe* probe : {&shed, &scored, &dedup_first, &dedup_second, &hit}) {
    EXPECT_EQ(probe->calls.load(), 1);
  }
}

TEST(ClassificationService, RequestAfterReloadNeverJoinsAStaleFlight) {
  // reload() unlinks the keys already scoring on the old model: a repeat
  // submitted after it returns scores on the new model instead of
  // joining a task that snapshotted the old one.
  const Fixture& fx = fixture();
  const core::FuzzyHashClassifier* models[] = {&fx.model, &fx.strict_model};
  ServiceConfig config;
  config.cache_capacity = 0;  // every repeat reaches single flight
  config.latency_window = 1;  // keeps stats() cheap enough to spin on
  ClassificationService svc(clone(fx.model), config);
  for (std::size_t round = 0; round < 64; ++round) {
    const core::FeatureHashes& query = fx.queries[round % fx.queries.size()];
    const core::FuzzyHashClassifier& next = *models[(round + 1) % 2];
    core::FuzzyHashClassifier fresh = clone(next);
    std::future<core::Prediction> before = svc.submit(query);
    while (svc.stats().queue_depth != 0) {
      // Spin until the task has started: it now scores on the old model.
    }
    svc.reload(std::move(fresh));
    std::future<core::Prediction> after = svc.submit(query);
    expect_identical(after.get(), next.predict(query));
    before.get();
  }
}

TEST(ClassificationService, ResultScoredOnAReplacedModelIsNeverCached) {
  // A reload() that lands while a task scores on the previous model
  // bumps the generation; the task still answers its waiters with the
  // previous model's prediction but must not cache it, or a request after
  // the reload would be answered with a stale hit. The reload runs from
  // the shed waiter's callback: after the task's model snapshot, before
  // its scoring.
  const Fixture& fx = fixture();
  const core::FeatureHashes& query = fx.queries[3];
  testsupport::GatedPool gate;
  ClassificationService svc(clone(fx.model), {}, gate.get());

  std::promise<std::exception_ptr> shed;
  ASSERT_TRUE(svc.try_submit(
      query,
      [&](const core::Prediction*, std::exception_ptr error) {
        svc.reload(clone(fx.strict_model));
        shed.set_value(std::move(error));
      },
      std::chrono::milliseconds(1)));
  std::promise<core::Prediction> joined;
  ASSERT_TRUE(svc.try_submit(query, [&](const core::Prediction* prediction,
                                        std::exception_ptr) {
    joined.set_value(prediction != nullptr ? *prediction : core::Prediction{});
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // A expires
  gate.release();

  EXPECT_THROW(std::rethrow_exception(shed.get_future().get()), DeadlineExceeded);
  // B scored on the snapshot taken before the reload: the old model.
  expect_identical(joined.get_future().get(), fx.model.predict(query));
  const core::Prediction fresh = svc.submit(query).get();
  EXPECT_EQ(fresh.label, ml::kUnknownLabel);
  expect_identical(fresh, fx.strict_model.predict(query));
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.reloads, 1u);
  EXPECT_EQ(stats.scored, 2u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.deadline_expired, 1u);
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
  // A model path that does not exist fails the same way.
  const CommandHandler::ReloadResult missing = handler.reload("/nonexistent/model");
  EXPECT_FALSE(missing.ok);
  EXPECT_FALSE(missing.message.empty());
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

using PredictionLru = LruMap<std::string, core::Prediction>;

TEST(LruMap, EvictsLeastRecentlyUsed) {
  core::Prediction value;
  value.label = 1;
  value.confidence = 0.75;
  PredictionLru cache(/*capacity=*/2);
  cache.put("a", value);
  cache.put("b", value);
  ASSERT_NE(cache.get("a"), nullptr);  // refresh "a"; "b" is now LRU
  cache.put("c", value);               // evicts "b"
  EXPECT_NE(cache.get("a"), nullptr);
  EXPECT_EQ(cache.get("b"), nullptr);
  EXPECT_NE(cache.get("c"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.get("a"), nullptr);
}

TEST(LruMap, RefreshUpdatesValueInPlace) {
  core::Prediction first;
  first.label = 1;
  core::Prediction second;
  second.label = 2;
  PredictionLru cache(/*capacity=*/4);
  cache.put("a", first);
  cache.put("b", first);
  cache.put("a", second);
  EXPECT_EQ(cache.size(), 2u);
  const core::Prediction* hit = cache.get("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->label, 2);
}

TEST(LruMap, KeysOutliveTheCallersString) {
  // The map's keys view the map's own copy of each key, never the
  // caller's buffer: destroying or rewriting it must not lose the entry.
  core::Prediction value;
  value.label = 3;
  PredictionLru cache(/*capacity=*/4);
  {
    std::string temporary(300, 'k');  // digest-sized, past any SSO buffer
    cache.put(temporary, value);
  }
  std::string reused(300, 'm');
  cache.put(reused, value);
  reused.assign(300, 'z');
  EXPECT_NE(cache.get(std::string(300, 'k')), nullptr);
  EXPECT_NE(cache.get(std::string(300, 'm')), nullptr);
  EXPECT_EQ(cache.get(reused), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruMap, EvictionAfterRefreshRemovesTheOtherKey) {
  core::Prediction value;
  PredictionLru cache(/*capacity=*/2);
  cache.put("a", value);
  cache.put("b", value);
  cache.put("a", value);  // refresh by put: "b" is now LRU
  cache.put("c", value);  // evicts "b"
  EXPECT_NE(cache.get("a"), nullptr);
  EXPECT_EQ(cache.get("b"), nullptr);
  EXPECT_NE(cache.get("c"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruMap, PutAfterClearWorks) {
  core::Prediction value;
  value.label = 4;
  PredictionLru cache(/*capacity=*/2);
  cache.put("a", value);
  cache.put("b", value);
  cache.clear();
  cache.put("a", value);
  cache.put("c", value);
  cache.put("d", value);  // evicts "a": the cleared map counts afresh
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.get("a"), nullptr);
  EXPECT_EQ(cache.get("b"), nullptr);
  const core::Prediction* hit = cache.get("c");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->label, 4);
  EXPECT_NE(cache.get("d"), nullptr);
}

TEST(LruMap, ZeroCapacityDisables) {
  core::Prediction value;
  PredictionLru cache(0);
  cache.put("a", value);
  EXPECT_EQ(cache.get("a"), nullptr);
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
