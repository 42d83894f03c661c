// fhc::service — the always-on classification layer over a trained model.
//
// The paper's deployment story (Section 5) is continuous screening of
// every job that lands on a cluster: a Slurm prolog asks "what is this
// binary?" for each submission, which at fleet scale is sustained
// classification traffic, not one-shot CLI calls that reload the model
// per invocation. ClassificationService keeps one FuzzyHashClassifier
// resident behind three layers, outermost first:
//
//   1. a sharded LRU result cache keyed by the sample's digest text —
//      repeat binaries (the common prolog case) skip scoring entirely;
//   2. single flight: a miss whose key is already being scored joins
//      that key's in-flight entry instead of scoring it again;
//   3. one pool task per in-flight key, posted the moment the first miss
//      arrives: it sheds expired waiters, fills the query's full
//      similarity row, runs the forest on it, caches the result and
//      answers every waiter — including those that joined while it
//      scored. No request waits for another to arrive.
//
// Predictions are bit-identical to serial FuzzyHashClassifier::predict
// on the same inputs: a task runs the very same row fill and
// predict_from_row, and single flight and caching return the result of
// that exact computation.
//
// Every request resolves through one completion callback (OnDone), run
// exactly once with no service lock held and after the counters already
// reflect it: inline on the submitting thread for a cache hit, on the
// pool worker that scored its key otherwise. submit() wraps that
// callback in a promise and returns its future; try_submit() hands the
// callback straight through, so a front-end can answer from the pool
// without a thread of its own waiting on futures.
//
// reload() swaps the model atomically (shared_ptr snapshot per task):
// tasks already scoring finish on the model they started with, later
// tasks use the new one, and the cache is cleared because its entries
// are stale. The destructor waits for every posted task — every
// accepted request's callback runs.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/classifier.hpp"
#include "service/lru_cache.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace fhc::service {

struct ServiceConfig {
  std::size_t cache_capacity = 4096;           // total entries; 0 disables the cache
  std::size_t cache_shards = 8;
  std::size_t latency_window = 4096;           // ring of recent latencies (percentiles)
  // Admission bound enforced by try_submit(): a sample that would post
  // a scoring task while this many posted tasks have not started yet is
  // rejected instead of queued (0 = unbounded; submit() always queues).
  // Cache hits and misses that join an in-flight key post nothing, so
  // they are always admitted.
  std::size_t max_queue = 0;
  // Load shedding by age: a request that waited longer than this for its
  // scoring task to start is answered DeadlineExceeded instead of scored —
  // under overload, work the client has likely given up on stops
  // consuming scoring capacity (0 = off). Per-request deadlines passed
  // to submit() shed the same way and compose with this bound.
  std::chrono::milliseconds max_queue_delay{0};
};

/// A request's error when its deadline (or the service's max_queue_delay)
/// expired before scoring started. Front-ends map it to
/// the DEADLINE_EXCEEDED wire reply — distinct from BUSY (admission) and
/// ERROR (the request itself failed).
class DeadlineExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One consistent snapshot of the service counters.
struct ServiceStats {
  std::uint64_t requests = 0;       // samples submitted
  std::uint64_t completed = 0;      // callbacks run (hits + scored + failed)
  std::uint64_t batches = 0;        // scoring tasks that ran (all-shed tasks excluded)
  std::uint64_t scored = 0;         // unique rows that went through scoring
  std::uint64_t cache_hits = 0;     // answered from the LRU at submit()
  std::uint64_t dedup_hits = 0;     // joined an identical in-flight sample
  std::uint64_t reloads = 0;
  // Completed requests whose prediction came back is_unknown (open-set
  // rejection / below the confidence threshold) — cache hits included,
  // since a hit fans out the same flagged prediction.
  std::uint64_t unknown_flagged = 0;
  // Requests shed before scoring because their deadline or the queue-age
  // bound expired (answered DeadlineExceeded). Counted in
  // completed as well; never in scored/candidates_scored — an expired
  // request costs no scoring work.
  std::uint64_t deadline_expired = 0;
  // Connections evicted by the socket server's idle / read-progress
  // timeouts (slow-loris protection).
  std::uint64_t connections_timed_out = 0;

  // Candidate-index gate counters, summed over every row scored:
  // of the training digests an all-pairs row fill would have visited,
  // how many were actually compared vs. pruned by the TrainIndex's
  // inverted 7-gram candidate index (core::RowFillStats).
  std::uint64_t candidates_scored = 0;
  std::uint64_t index_skipped = 0;

  // Admission control and connection accounting (the socket server in
  // fhc::net drives these; in-process callers leave the connection
  // counters at zero).
  std::uint64_t connections_opened = 0;    // accepted since start
  std::uint64_t connections_active = 0;    // currently open
  std::uint64_t connections_rejected = 0;  // refused at the accept gate
  std::uint64_t requests_rejected = 0;     // try_submit refusals (queue full)
  std::uint64_t queue_depth = 0;           // scoring tasks posted, not yet started

  double index_skip_rate() const {
    const std::uint64_t visited = candidates_scored + index_skipped;
    return visited > 0 ? static_cast<double>(index_skipped) / static_cast<double>(visited)
                       : 0.0;
  }

  double cache_hit_rate() const {
    return requests > 0 ? static_cast<double>(cache_hits) / static_cast<double>(requests)
                        : 0.0;
  }

  // Request latency (submit -> callback) over the recent window.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// Stable cache/single-flight identity of a sample: its exact digest text across
/// all channels (samples with equal keys produce equal feature rows).
std::string sample_key(const core::FeatureHashes& sample);

class ClassificationService {
 public:
  /// A request's completion: exactly one of `prediction` (valid only for
  /// the call) and `error` is set. Runs once, with no service lock held,
  /// after stats() already counts the request — inline on the submitting
  /// thread for a cache hit, on a pool worker otherwise. It must not
  /// throw (it is called from noexcept context) and should not block:
  /// the other waiters on its key, and the worker it runs on, wait
  /// behind it.
  using OnDone = std::function<void(const core::Prediction* prediction,
                                    std::exception_ptr error)>;

  /// Takes ownership of a fitted model. `pool` is where the scoring
  /// tasks run (nullptr = the process-wide shared pool).
  explicit ClassificationService(core::FuzzyHashClassifier model,
                                 ServiceConfig config = {},
                                 util::ThreadPool* pool = nullptr);

  /// Waits until every posted scoring task has run and answered its
  /// waiters.
  ~ClassificationService();

  ClassificationService(const ClassificationService&) = delete;
  ClassificationService& operator=(const ClassificationService&) = delete;

  /// Enqueues one sample and returns a future for it: a promise behind
  /// an OnDone, fulfilled by the scoring task (or immediately on a cache
  /// hit), carrying any scoring exception. `deadline` is the request's
  /// time budget from now: if it expires before scoring starts, the
  /// future carries DeadlineExceeded and the sample is never scored (a
  /// cache hit still answers — it is free).
  std::future<core::Prediction> submit(
      core::FeatureHashes sample,
      std::optional<std::chrono::milliseconds> deadline = std::nullopt);

  /// Bounded admission with a callback: enqueues like submit() and
  /// resolves through `done`, but refuses the sample (returning false,
  /// counting requests_rejected, never calling `done`) when it would post
  /// a scoring task while config().max_queue > 0 posted tasks have not
  /// started. Cache hits and joins of an in-flight key bypass the bound;
  /// a hit runs `done` before this returns. If it throws, `done` never
  /// runs.
  /// Front-ends turn a refusal into an explicit BUSY reply instead of
  /// queueing without bound.
  bool try_submit(core::FeatureHashes sample, OnDone done,
                  std::optional<std::chrono::milliseconds> deadline = std::nullopt);

  /// Front-end connection accounting (surfaced through stats()).
  void record_connection_opened();
  void record_connection_closed();
  void record_connection_rejected();
  void record_connection_timed_out();

  /// Blocking convenience: submits every sample and waits for all
  /// results, in order. Equivalent to serial predict() on each.
  std::vector<core::Prediction> classify_batch(
      const std::vector<core::FeatureHashes>& samples);

  /// Swaps in a new fitted model without dropping in-flight requests
  /// and clears the result cache. Throws std::invalid_argument if
  /// `model` is not fitted (the current model stays active).
  void reload(core::FuzzyHashClassifier model);

  /// The currently active model (tasks still scoring may reference a
  /// predecessor).
  std::shared_ptr<const core::FuzzyHashClassifier> model() const;

  ServiceStats stats() const;
  const ServiceConfig& config() const noexcept { return config_; }

  /// The pool the scoring tasks run on. Front-ends may post work that
  /// never waits on the service to it (the socket server extracts
  /// CLASSIFY_PATH features and runs RELOADs here); a task that waited
  /// on a future would starve scoring. Scoring tasks themselves never
  /// wait on the pool (no parallel_for, no futures).
  util::ThreadPool& pool() const noexcept { return *pool_; }

 private:
  /// One request waiting for its key's prediction.
  struct Waiter {
    OnDone done;
    util::Stopwatch watch;  // started at submit; read when resolved
    // Absolute expiry computed at enqueue (steady clock); checked when
    // the key's scoring task starts.
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
  };

  /// A key with a scoring task posted: the sample to score and everyone
  /// waiting for it. Its task unlinks it from in_flight_ once it has
  /// cached the result; reload() unlinks the ones already scoring on
  /// the old model, so no later request joins them.
  struct Flight {
    std::string key;  // in_flight_'s key views this string
    core::FeatureHashes sample;
    std::vector<Waiter> waiters;
    bool started = false;  // its task took its model snapshot
  };

  /// The pool task posted for `flight`: sheds, scores, caches, answers.
  void run_flight(Flight& flight);
  /// Removes `flight` from in_flight_ if it is still linked there.
  void unlink_locked(const Flight& flight);
  /// Counts the expired waiters (DeadlineExceeded), then answers them.
  void answer_expired(std::span<const Waiter> expired);
  /// Counts a cache hit, then runs its callback.
  void answer_hit(const Waiter& waiter, const core::Prediction& hit);
  void record_latency_locked(double ms);
  /// Shared body of submit()/try_submit(); false = refused (bounded only).
  bool enqueue(core::FeatureHashes sample, OnDone done, bool bounded,
               std::optional<std::chrono::milliseconds> deadline);

  ServiceConfig config_;
  util::ThreadPool* pool_;  // never null after construction

  mutable std::mutex model_mutex_;
  std::shared_ptr<const core::FuzzyHashClassifier> model_;
  std::uint64_t model_generation_ = 0;  // bumped by reload(); guards cache puts

  ShardedLruCache cache_;

  mutable std::mutex queue_mutex_;   // guards the members below but idle_cv_
  std::condition_variable idle_cv_;  // the destructor waits for outstanding_ == 0
  std::unordered_map<std::string_view, std::shared_ptr<Flight>> in_flight_;
  std::size_t queued_ = 0;       // tasks posted, not yet started (queue_depth)
  std::size_t outstanding_ = 0;  // tasks posted, not yet finished
  bool stopping_ = false;

  mutable std::mutex stats_mutex_;
  ServiceStats counters_;               // percentile fields unused here
  std::vector<double> latency_ring_;    // most recent latency_window samples
  std::size_t latency_next_ = 0;
  std::size_t latency_count_ = 0;
  double latency_max_ = 0.0;
};

}  // namespace fhc::service
