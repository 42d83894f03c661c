#include "util/thread_pool.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace fhc::util {

namespace {
// Set while a thread is executing inside a pool worker. parallel_for uses
// it to degrade to serial execution instead of deadlocking on wait_idle()
// when invoked from within a task (nested parallelism).
thread_local bool t_inside_worker = false;

/// The CPUs the calling thread may run on. Under a cpuset or `taskset`
/// that is fewer than hardware_concurrency(), which counts the machine's.
std::size_t default_worker_count() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    const int count = CPU_COUNT(&allowed);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware != 0 ? hardware : 2;
}
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_worker_count();
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_exception_) {
    const std::exception_ptr error = std::exchange(first_exception_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    t_inside_worker = true;
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    t_inside_worker = false;
    {
      // The worker must be marked done on every path — a throwing task
      // previously escaped to std::terminate and left in_flight_ stuck,
      // deadlocking wait_idle() forever.
      std::lock_guard lock(mutex_);
      if (error && !first_exception_) first_exception_ = std::move(error);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  std::size_t grain, const std::function<void(std::size_t)>& fn) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  grain = std::max<std::size_t>(grain, 1);
  if (pool.size() <= 1 || n <= grain || t_inside_worker) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  // Dynamic block scheduling: an atomic cursor hands out grain-sized blocks
  // so uneven per-index cost (e.g. same-class vs cross-class digest
  // comparisons) still balances across workers.
  //
  // Completion and exceptions are tracked in per-call state, not the pool:
  // this call returns as soon as ITS tasks finish rather than at a global
  // pool-quiescent instant, and concurrent batches each receive their own
  // failure. (Scheduling is still shared: tasks queue FIFO behind whatever
  // is already running, so a batch can wait for workers to free up.)
  struct BatchState {
    std::atomic<std::size_t> cursor;
    std::atomic<bool> failed{false};
    std::mutex mutex;
    std::condition_variable done_cv;
    std::size_t remaining = 0;  // tasks of THIS call still running
    std::exception_ptr error;
  };
  auto state = std::make_shared<BatchState>();
  state->cursor.store(begin);
  const std::size_t tasks = std::min(pool.size(), (n + grain - 1) / grain);
  state->remaining = tasks;
  for (std::size_t t = 0; t < tasks; ++t) {
    pool.submit([state, end, grain, &fn] {
      try {
        while (!state->failed.load(std::memory_order_relaxed)) {
          const std::size_t lo = state->cursor.fetch_add(grain);
          if (lo >= end) break;
          const std::size_t hi = std::min(end, lo + grain);
          for (std::size_t i = lo; i < hi; ++i) fn(i);
        }
      } catch (...) {
        std::lock_guard lock(state->mutex);
        if (!state->error) state->error = std::current_exception();
        state->failed.store(true, std::memory_order_relaxed);
      }
      std::lock_guard lock(state->mutex);
      if (--state->remaining == 0) state->done_cv.notify_all();
    });
  }
  {
    std::unique_lock lock(state->mutex);
    state->done_cv.wait(lock, [&state] { return state->remaining == 0; });
  }
  if (state->failed.load()) std::rethrow_exception(state->error);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  ThreadPool& pool = ThreadPool::shared();
  const std::size_t grain = std::max<std::size_t>(1, n / (pool.size() * 8));
  parallel_for(pool, 0, n, grain, fn);
}

}  // namespace fhc::util
