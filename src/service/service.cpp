#include "service/service.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/feature_matrix.hpp"
#include "ml/matrix.hpp"
#include "util/fault_inject.hpp"

namespace fhc::service {

std::string sample_key(const core::FeatureHashes& sample) {
  // Digest text is base64-ish and never contains the separator, so the
  // concatenation is injective; equal keys imply equal feature rows. A
  // three-channel sample produces the exact pre-registry key bytes;
  // dynamic channels append further separated digests.
  std::string key = sample.file.to_string();
  key += '\x1f';
  key += sample.strings.to_string();
  key += '\x1f';
  key += sample.symbols.to_string();
  for (const ssdeep::FuzzyDigest& digest : sample.extra) {
    key += '\x1f';
    key += digest.to_string();
  }
  return key;
}

ClassificationService::ClassificationService(core::FuzzyHashClassifier model,
                                             ServiceConfig config,
                                             util::ThreadPool* pool)
    : config_(config),
      pool_(pool != nullptr ? pool : &util::ThreadPool::shared()),
      model_(std::make_shared<const core::FuzzyHashClassifier>(std::move(model))),
      cache_(config.cache_capacity, config.cache_shards),
      latency_ring_(std::max<std::size_t>(config.latency_window, 1), 0.0) {
  if (!model_->fitted()) {
    throw std::invalid_argument("ClassificationService: model not fitted");
  }
  if (config_.max_batch == 0) config_.max_batch = 1;
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

ClassificationService::~ClassificationService() {
  {
    std::lock_guard lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  dispatcher_.join();
}

namespace {

/// Runs a request's callback. noexcept: OnDone must not throw, and one
/// that does ends the process here instead of stranding the rest of its
/// batch (or, on a cache hit, escaping try_submit after `done` ran).
void resolve(const ClassificationService::OnDone& done, const core::Prediction* prediction,
             std::exception_ptr error) noexcept {
  done(prediction, std::move(error));
}

}  // namespace

std::future<core::Prediction> ClassificationService::submit(
    core::FeatureHashes sample,
    std::optional<std::chrono::milliseconds> deadline) {
  auto promise = std::make_shared<std::promise<core::Prediction>>();
  std::future<core::Prediction> future = promise->get_future();
  enqueue(
      std::move(sample),
      [promise](const core::Prediction* prediction, std::exception_ptr error) {
        if (prediction != nullptr) {
          promise->set_value(*prediction);
        } else {
          promise->set_exception(std::move(error));
        }
      },
      /*bounded=*/false, deadline);
  return future;
}

bool ClassificationService::try_submit(
    core::FeatureHashes sample, OnDone done,
    std::optional<std::chrono::milliseconds> deadline) {
  return enqueue(std::move(sample), std::move(done), /*bounded=*/true, deadline);
}

bool ClassificationService::enqueue(core::FeatureHashes sample, OnDone done, bool bounded,
                                    std::optional<std::chrono::milliseconds> deadline) {
  Request request;
  request.sample = std::move(sample);
  request.key = sample_key(request.sample);
  request.done = std::move(done);
  if (deadline) {
    request.has_deadline = true;
    request.deadline = std::chrono::steady_clock::now() + *deadline;
  }

  // Probe the cache before touching any lock-shared counters so the hot
  // path (a hit) pays one stats_mutex_ acquisition, and counters land
  // before the callback — same ordering as score_batch, so a caller that
  // observes the reply finds its request already counted.
  if (std::optional<core::Prediction> hit = cache_.get(request.key)) {
    {
      std::lock_guard lock(stats_mutex_);
      ++counters_.requests;
      ++counters_.cache_hits;
      ++counters_.completed;
      if (hit->is_unknown) ++counters_.unknown_flagged;
      record_latency_locked(request.watch.milliseconds());
    }
    resolve(request.done, &*hit, nullptr);
    return true;
  }

  bool stopped = false;
  {
    std::lock_guard lock(queue_mutex_);
    if (bounded && config_.max_queue > 0 && pending_.size() >= config_.max_queue) {
      // Admission refusal: the caller owes the client a BUSY reply. The
      // request is never counted as submitted, so the completed ==
      // requests accounting stays intact. (queue_mutex_ -> stats_mutex_
      // is the established lock order below.)
      std::lock_guard stats_lock(stats_mutex_);
      ++counters_.requests_rejected;
      return false;
    }
    // Once stopping, the dispatcher may already have drained and exited:
    // nothing would ever score this request, so it fails below.
    stopped = stopping_;
    if (!stopped) {
      // Chaos allocation hook: queue growth is the service's unbounded
      // allocation; an injected bad_alloc here must surface as a per-
      // request failure, not a crash.
      util::fi::alloc_guard();
      pending_.push_back(std::move(request));
    }
    std::lock_guard stats_lock(stats_mutex_);
    ++counters_.requests;
    if (stopped) ++counters_.completed;
  }
  if (stopped) {
    resolve(request.done, nullptr,
            std::make_exception_ptr(
                std::runtime_error("ClassificationService: submit after shutdown")));
    return true;
  }
  queue_cv_.notify_one();
  return true;
}

void ClassificationService::flush() {
  {
    std::lock_guard lock(queue_mutex_);
    flush_requested_ = true;
  }
  queue_cv_.notify_all();
}

void ClassificationService::record_connection_opened() {
  std::lock_guard lock(stats_mutex_);
  ++counters_.connections_opened;
  ++counters_.connections_active;
}

void ClassificationService::record_connection_closed() {
  std::lock_guard lock(stats_mutex_);
  if (counters_.connections_active > 0) --counters_.connections_active;
}

void ClassificationService::record_connection_rejected() {
  std::lock_guard lock(stats_mutex_);
  ++counters_.connections_rejected;
}

void ClassificationService::record_connection_timed_out() {
  std::lock_guard lock(stats_mutex_);
  ++counters_.connections_timed_out;
}

std::vector<core::Prediction> ClassificationService::classify_batch(
    const std::vector<core::FeatureHashes>& samples) {
  std::vector<std::future<core::Prediction>> futures;
  futures.reserve(samples.size());
  for (const core::FeatureHashes& sample : samples) futures.push_back(submit(sample));
  std::vector<core::Prediction> results;
  results.reserve(samples.size());
  for (std::future<core::Prediction>& future : futures) results.push_back(future.get());
  return results;
}

void ClassificationService::reload(core::FuzzyHashClassifier model) {
  if (!model.fitted()) {
    throw std::invalid_argument("ClassificationService::reload: model not fitted");
  }
  auto fresh = std::make_shared<const core::FuzzyHashClassifier>(std::move(model));
  {
    std::lock_guard lock(model_mutex_);
    model_ = std::move(fresh);
    // Invalidate before clearing: a batch still scoring on the old model
    // re-checks this generation under model_mutex_ and skips its cache
    // puts, so it cannot repopulate the cache with stale predictions
    // after the clear below.
    ++model_generation_;
  }
  // Cached predictions came from the previous model.
  cache_.clear();
  std::lock_guard lock(stats_mutex_);
  ++counters_.reloads;
}

std::shared_ptr<const core::FuzzyHashClassifier> ClassificationService::model() const {
  std::lock_guard lock(model_mutex_);
  return model_;
}

ServiceStats ClassificationService::stats() const {
  // queue_mutex_ -> stats_mutex_ is the established order (submit's
  // stopping path); read the depth first rather than nesting the other way.
  std::uint64_t depth = 0;
  {
    std::lock_guard lock(queue_mutex_);
    depth = pending_.size();
  }
  std::lock_guard lock(stats_mutex_);
  ServiceStats out = counters_;
  out.queue_depth = depth;
  const std::size_t n = std::min(latency_count_, latency_ring_.size());
  if (n > 0) {
    std::vector<double> window(latency_ring_.begin(),
                               latency_ring_.begin() + static_cast<std::ptrdiff_t>(n));
    std::sort(window.begin(), window.end());
    // Nearest-rank percentiles: index ceil(p * n) - 1, so a full
    // 100-sample window reports window[98] as p99, not the max.
    out.p50_ms = window[(n + 1) / 2 - 1];
    out.p99_ms = window[(n * 99 + 99) / 100 - 1];
    out.max_ms = latency_max_;
  }
  return out;
}

void ClassificationService::record_latency_locked(double ms) {
  latency_ring_[latency_next_] = ms;
  latency_next_ = (latency_next_ + 1) % latency_ring_.size();
  ++latency_count_;
  latency_max_ = std::max(latency_max_, ms);
}

void ClassificationService::dispatcher_loop() {
  std::unique_lock lock(queue_mutex_);
  for (;;) {
    queue_cv_.wait(lock, [this] {
      return stopping_ || flush_requested_ || !pending_.empty();
    });
    if (pending_.empty()) {
      flush_requested_ = false;  // nothing to flush
      if (stopping_) return;     // drained
      continue;
    }
    // A batch is open. Flush when it fills, when the oldest request's
    // delay budget runs out, at shutdown (drain what's left), or when
    // flush() asks for an immediate dispatch.
    if (pending_.size() < config_.max_batch && !stopping_ && !flush_requested_) {
      const std::chrono::duration<double, std::milli> remaining(
          static_cast<double>(config_.max_delay.count()) -
          pending_.front().watch.milliseconds());
      queue_cv_.wait_for(lock, remaining, [this] {
        return stopping_ || flush_requested_ ||
               pending_.size() >= config_.max_batch;
      });
    }
    // flush_requested_ stays set until pending_ drains (cleared at loop
    // top): one flush() call dispatches a whole backlog even when it is
    // larger than max_batch — graceful shutdown depends on this.
    const std::size_t take = std::min(pending_.size(), config_.max_batch);
    std::vector<Request> batch;
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    lock.unlock();
    score_batch(std::move(batch));
    lock.lock();
  }
}

std::vector<ClassificationService::Request> ClassificationService::shed_expired(
    std::vector<Request> batch) {
  const auto now = std::chrono::steady_clock::now();
  const double max_age_ms =
      static_cast<double>(config_.max_queue_delay.count());
  std::vector<Request> live;
  std::vector<Request> expired;
  live.reserve(batch.size());
  for (Request& request : batch) {
    const bool over_deadline = request.has_deadline && now >= request.deadline;
    const bool over_age =
        max_age_ms > 0.0 && request.watch.milliseconds() > max_age_ms;
    (over_deadline || over_age ? expired : live).push_back(std::move(request));
  }
  if (expired.empty()) return live;

  // Counters before callbacks, as everywhere: a caller that observes
  // DeadlineExceeded must find deadline_expired already bumped. These
  // requests contribute nothing to scored/candidates_scored — shedding
  // happens before any scoring stage runs.
  {
    std::lock_guard lock(stats_mutex_);
    counters_.deadline_expired += expired.size();
    counters_.completed += expired.size();
    for (Request& request : expired) {
      record_latency_locked(request.watch.milliseconds());
    }
  }
  for (Request& request : expired) {
    const char* what = request.has_deadline && now >= request.deadline
                           ? "deadline exceeded before scoring"
                           : "queue delay bound exceeded before scoring";
    resolve(request.done, nullptr, std::make_exception_ptr(DeadlineExceeded(what)));
  }
  return live;
}

void ClassificationService::score_batch(std::vector<Request> batch) {
  // Expired work is answered first and never reaches a scoring stage —
  // under overload the capacity goes to requests whose clients are
  // still waiting.
  batch = shed_expired(std::move(batch));
  if (batch.empty()) return;

  // Snapshot the active model: reload() during scoring must not pull the
  // index out from under this batch.
  std::shared_ptr<const core::FuzzyHashClassifier> model;
  std::uint64_t generation = 0;
  {
    std::lock_guard lock(model_mutex_);
    model = model_;
    generation = model_generation_;
  }

  // In-batch dedup: identical samples (repeat binaries burst-submitted by
  // a prolog) are scored once and fanned out.
  std::unordered_map<std::string, std::size_t> slot_of_key;
  std::vector<std::size_t> representative;  // unique slot -> batch index
  std::vector<std::size_t> slot(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto [it, inserted] = slot_of_key.try_emplace(batch[i].key,
                                                        representative.size());
    if (inserted) representative.push_back(i);
    slot[i] = it->second;
  }

  const std::size_t uniques = representative.size();
  std::vector<core::Prediction> results(uniques);
  std::uint64_t gate_scored = 0;
  std::uint64_t gate_skipped = 0;
  try {
    const core::TrainIndex& index = model->index();
    const core::ClassifierConfig& cfg = model->config();
    const int k = index.n_classes();
    std::size_t shards = config_.shards != 0 ? config_.shards : pool_->size();
    shards = std::clamp<std::size_t>(shards, 1, static_cast<std::size_t>(k));

    // Stage 1: normalize each unique query once per channel and probe
    // the candidate index once — the candidate sets are slice-independent,
    // so stage 2's parallel slices share them instead of re-probing.
    std::vector<core::PreparedQuery> queries(uniques);
    std::vector<core::QueryCandidates> candidates(uniques);
    util::parallel_for(*pool_, 0, uniques, /*grain=*/1, [&](std::size_t u) {
      queries[u] = core::PreparedQuery(batch[representative[u]].sample, cfg.channels);
      candidates[u] = core::QueryCandidates(index, queries[u], cfg.channels);
    });

    // Stage 2: every (query, class-slice) pair is one work item, so a
    // single query's similarity row — the dominant cost — is computed in
    // parallel slices across the index and reduced by writing disjoint
    // column ranges of its row. Each slice reports its candidate-index
    // gate counters; slices partition the class range, so the batch
    // totals match one full-row fill per unique query.
    ml::Matrix rows(uniques, model->row_width());
    std::atomic<std::uint64_t> scored{0};
    std::atomic<std::uint64_t> skipped{0};
    util::parallel_for(*pool_, 0, uniques * shards, /*grain=*/1,
                       [&](std::size_t item) {
                         const std::size_t u = item / shards;
                         const std::size_t s = item % shards;
                         const int begin = static_cast<int>(
                             s * static_cast<std::size_t>(k) / shards);
                         const int end = static_cast<int>(
                             (s + 1) * static_cast<std::size_t>(k) / shards);
                         core::RowFillStats slice_stats;
                         core::fill_feature_row_slice(index, queries[u],
                                                      candidates[u], cfg.metric,
                                                      /*exclude_id=*/-1, begin, end,
                                                      rows.row(u), cfg.channels,
                                                      &slice_stats);
                         scored.fetch_add(slice_stats.candidates_scored,
                                          std::memory_order_relaxed);
                         skipped.fetch_add(slice_stats.index_skipped,
                                           std::memory_order_relaxed);
                       });
    gate_scored = scored.load(std::memory_order_relaxed);
    gate_skipped = skipped.load(std::memory_order_relaxed);

    // Stage 3: one tree-major FlatForest pass over the whole micro-batch
    // instead of a forest walk per row — each tree's nodes stay hot
    // across the batch, and the result is bit-identical to per-row
    // predict_from_row (same double accumulation order). Batches beyond
    // one block fan out across the pool inside predict_rows.
    model->predict_rows(rows, results, pool_);
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    {
      std::lock_guard lock(stats_mutex_);
      ++counters_.batches;
      counters_.completed += batch.size();
      counters_.largest_batch = std::max<std::uint64_t>(counters_.largest_batch,
                                                        batch.size());
    }
    for (Request& request : batch) resolve(request.done, nullptr, error);
    return;
  }

  // Counters before callbacks: a client that just observed its reply
  // must see the counters already reflecting its request.
  {
    std::lock_guard lock(stats_mutex_);
    ++counters_.batches;
    counters_.scored += uniques;
    counters_.candidates_scored += gate_scored;
    counters_.index_skipped += gate_skipped;
    counters_.dedup_hits += batch.size() - uniques;
    counters_.completed += batch.size();
    counters_.largest_batch = std::max<std::uint64_t>(counters_.largest_batch,
                                                      batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (results[slot[i]].is_unknown) ++counters_.unknown_flagged;
    }
    for (Request& request : batch) record_latency_locked(request.watch.milliseconds());
  }
  {
    // Cache puts happen under model_mutex_ after re-checking the
    // generation: if reload() swapped models mid-batch these results are
    // stale and must not outlive the reload's cache clear (a concurrent
    // reload blocks on the mutex, bumps the generation, and clears after
    // we release — wiping anything we put here).
    std::lock_guard lock(model_mutex_);
    if (generation == model_generation_) {
      for (const std::size_t i : representative) {
        cache_.put(batch[i].key, results[slot[i]]);
      }
    }
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    resolve(batch[i].done, &results[slot[i]], nullptr);
  }
}

}  // namespace fhc::service
