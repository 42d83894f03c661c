#include "service/service.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "core/feature_matrix.hpp"
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
      cache_(config.cache_capacity),
      latency_ring_(std::max<std::size_t>(config.latency_window, 1), 0.0) {
  if (!model_->fitted()) {
    throw std::invalid_argument("ClassificationService: model not fitted");
  }
}

ClassificationService::~ClassificationService() {
  // Posted tasks capture `this`: wait until the last one has answered
  // its waiters.
  std::unique_lock lock(mutex_);
  stopping_ = true;
  idle_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

namespace {

/// Runs a request's callback. noexcept: OnDone must not throw, and one
/// that does ends the process here instead of stranding the other
/// waiters on its key (or, on a cache hit, escaping try_submit after
/// `done` ran).
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
  std::string key = sample_key(sample);
  Waiter waiter;
  waiter.done = std::move(done);
  if (deadline) {
    waiter.has_deadline = true;
    waiter.deadline = std::chrono::steady_clock::now() + *deadline;
  }

  std::optional<core::Prediction> hit;
  bool stopped = false;
  {
    std::lock_guard lock(mutex_);
    if (const core::Prediction* cached = cache_.get(key)) {
      // Counted before the callback, as on every path: a caller that
      // observes the reply finds its request already counted.
      hit = *cached;
      ++counters_.cache_hits;
      ++counters_.completed;
      if (hit->is_unknown) ++counters_.unknown_flagged;
      record_latency_locked(waiter.watch.milliseconds());
    } else if (stopping_) {
      // The destructor may already have seen the last task finish:
      // nothing would ever score this request, so it fails below.
      stopped = true;
      ++counters_.completed;
    } else if (const auto flight = in_flight_.find(key); flight != in_flight_.end()) {
      // Single flight: the key's task answers this request too. Posts
      // nothing, so it is admitted past a full queue like a cache hit.
      flight->second->waiters.push_back(std::move(waiter));
    } else if (bounded && config_.max_queue > 0 && queued_ >= config_.max_queue) {
      // Admission refusal: the caller owes the client a BUSY reply. The
      // request is never counted as submitted, so the completed ==
      // requests accounting stays intact.
      ++counters_.requests_rejected;
      return false;
    } else {
      // Chaos allocation hook: the entry and its task are the service's
      // per-request allocations; an injected bad_alloc here must
      // surface as a per-request failure, not a crash.
      util::fi::alloc_guard();
      auto flight = std::make_shared<Flight>();
      flight->key = std::move(key);
      flight->sample = std::move(sample);
      flight->waiters.push_back(std::move(waiter));
      const auto node = in_flight_.emplace(flight->key, flight).first;
      try {
        pool_->submit([this, flight] { run_flight(*flight); });
      } catch (...) {
        in_flight_.erase(node);  // `done` goes with the entry, never run
        throw;
      }
      ++queued_;
      ++outstanding_;
    }
    ++counters_.requests;
  }
  if (hit) {
    resolve(waiter.done, &*hit, nullptr);
  } else if (stopped) {
    resolve(waiter.done, nullptr,
            std::make_exception_ptr(
                std::runtime_error("ClassificationService: submit after shutdown")));
  }
  return true;
}

void ClassificationService::record_connection_opened() {
  std::lock_guard lock(mutex_);
  ++counters_.connections_opened;
  ++counters_.connections_active;
}

void ClassificationService::record_connection_closed() {
  std::lock_guard lock(mutex_);
  if (counters_.connections_active > 0) --counters_.connections_active;
}

void ClassificationService::record_connection_rejected() {
  std::lock_guard lock(mutex_);
  ++counters_.connections_rejected;
}

void ClassificationService::record_connection_timed_out() {
  std::lock_guard lock(mutex_);
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
  auto next_model = std::make_shared<const core::FuzzyHashClassifier>(std::move(model));
  LruMap<std::string, core::Prediction> next_cache(config_.cache_capacity);
  {
    std::lock_guard lock(mutex_);
    std::swap(model_, next_model);
    // A task still scoring on the previous model finds the generation
    // changed when it finishes and skips its cache put, so no stale
    // prediction reaches the new cache.
    ++model_generation_;
    // Keys already scoring on the previous model stop taking joiners: a
    // request submitted from here on scores on the new model.
    std::erase_if(in_flight_, [](const auto& entry) { return entry.second->started; });
    std::swap(cache_, next_cache);
    ++counters_.reloads;
  }
  // next_model and next_cache now hold the previous model and its
  // cached predictions: they are freed here, with the lock released.
}

std::shared_ptr<const core::FuzzyHashClassifier> ClassificationService::model() const {
  std::lock_guard lock(mutex_);
  return model_;
}

ServiceStats ClassificationService::stats() const {
  ServiceStats out;
  std::vector<double> window;
  window.reserve(latency_ring_.size());  // fixed at construction
  double max_ms = 0.0;
  {
    std::lock_guard lock(mutex_);
    out = counters_;
    out.queue_depth = queued_;
    const std::size_t n = std::min(latency_count_, latency_ring_.size());
    window.assign(latency_ring_.begin(), latency_ring_.begin() + static_cast<std::ptrdiff_t>(n));
    max_ms = latency_max_;
  }
  if (!window.empty()) {
    std::sort(window.begin(), window.end());
    // Nearest-rank percentiles: index ceil(p * n) - 1, so a full
    // 100-sample window reports window[98] as p99, not the max.
    const std::size_t n = window.size();
    out.p50_ms = window[(n + 1) / 2 - 1];
    out.p99_ms = window[(n * 99 + 99) / 100 - 1];
    out.max_ms = max_ms;
  }
  return out;
}

void ClassificationService::record_latency_locked(double ms) {
  latency_ring_[latency_next_] = ms;
  latency_next_ = (latency_next_ + 1) % latency_ring_.size();
  ++latency_count_;
  latency_max_ = std::max(latency_max_, ms);
}

void ClassificationService::unlink_locked(const Flight& flight) {
  const auto it = in_flight_.find(flight.key);
  if (it != in_flight_.end() && it->second.get() == &flight) in_flight_.erase(it);
}

void ClassificationService::run_flight(Flight& flight) {
  // Start: take the waiters so far, shed the expired ones so the capacity
  // goes to requests whose clients are still waiting, and count them.
  // With no live waiter left the key is unlinked here: a later identical
  // miss posts a fresh task instead of joining a dead one. Otherwise the
  // model is snapshotted here: reload() unlinks every started key, so no
  // one joins this task once the model it scores on is stale.
  std::vector<Waiter> waiters;
  std::size_t live = 0;
  std::shared_ptr<const core::FuzzyHashClassifier> model;
  std::uint64_t generation = 0;
  std::chrono::steady_clock::time_point now;
  {
    std::lock_guard lock(mutex_);
    --queued_;
    waiters = std::exchange(flight.waiters, {});
    now = std::chrono::steady_clock::now();
    const double max_age_ms = static_cast<double>(config_.max_queue_delay.count());
    const auto is_live = [&](const Waiter& waiter) {
      return !(waiter.has_deadline && now >= waiter.deadline) &&
             !(max_age_ms > 0.0 && waiter.watch.milliseconds() > max_age_ms);
    };
    live = static_cast<std::size_t>(
        std::partition(waiters.begin(), waiters.end(), is_live) - waiters.begin());
    // Shed requests cost no scoring work: they never reach scored or
    // candidates_scored.
    counters_.deadline_expired += waiters.size() - live;
    counters_.completed += waiters.size() - live;
    for (std::size_t i = live; i < waiters.size(); ++i) {
      record_latency_locked(waiters[i].watch.milliseconds());
    }
    if (live == 0) {
      unlink_locked(flight);
    } else {
      model = model_;
      generation = model_generation_;
      flight.started = true;
    }
  }
  // Shed waiters are answered before anything is scored.
  for (std::size_t i = live; i < waiters.size(); ++i) {
    const char* what = waiters[i].has_deadline && now >= waiters[i].deadline
                           ? "deadline exceeded before scoring"
                           : "queue delay bound exceeded before scoring";
    resolve(waiters[i].done, nullptr, std::make_exception_ptr(DeadlineExceeded(what)));
  }
  waiters.resize(live);

  if (live > 0) {
    // The serial predict() computation — full-row fill, then the forest
    // pass on that row — with the candidate-index gate counted.
    std::optional<core::Prediction> prediction;
    std::exception_ptr error;
    core::RowFillStats fill;
    try {
      const core::ClassifierConfig& cfg = model->config();
      std::vector<float> row(model->row_width());
      core::fill_feature_row(model->index(), flight.sample, cfg.metric, /*exclude_id=*/-1,
                             row, cfg.channels, &fill);
      prediction = model->predict_from_row(row);
    } catch (...) {
      error = std::current_exception();
    }
    // End: cache, unlink and take everyone who joined while this scored,
    // then count — counters before callbacks, so a client that just
    // observed its reply sees them already reflecting its request. The
    // put and the unlink share this section, so a later miss finds the
    // key either in flight or cached. The put is skipped if reload()
    // swapped models since the snapshot: the result is stale.
    std::vector<Waiter> joined;
    {
      std::lock_guard lock(mutex_);
      if (prediction && generation == model_generation_) {
        try {
          cache_.put(flight.key, *prediction);
        } catch (...) {
          prediction.reset();
          error = std::current_exception();
        }
      }
      unlink_locked(flight);
      joined = std::exchange(flight.waiters, {});
      const std::size_t answered = waiters.size() + joined.size();
      ++counters_.batches;
      counters_.completed += answered;
      if (prediction) {
        ++counters_.scored;
        counters_.dedup_hits += answered - 1;
        counters_.candidates_scored += fill.candidates_scored;
        counters_.index_skipped += fill.index_skipped;
        if (prediction->is_unknown) counters_.unknown_flagged += answered;
      }
      for (const std::vector<Waiter>* group : {&waiters, &joined}) {
        for (const Waiter& waiter : *group) record_latency_locked(waiter.watch.milliseconds());
      }
    }
    const core::Prediction* result = prediction ? &*prediction : nullptr;
    for (const std::vector<Waiter>* group : {&waiters, &joined}) {
      for (const Waiter& waiter : *group) resolve(waiter.done, result, error);
    }
  }

  // Last: the destructor may run the moment this reaches zero.
  std::lock_guard lock(mutex_);
  if (--outstanding_ == 0 && stopping_) idle_cv_.notify_all();
}

}  // namespace fhc::service
