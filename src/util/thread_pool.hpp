// Fixed-size worker pool with a blocking task queue, plus parallel_for /
// parallel_reduce helpers used by the similarity-matrix builder and the
// random forest trainer.
//
// Design notes (shared-memory parallelism per the HPC guides):
//  * Work is partitioned into contiguous index blocks ("grains") so each
//    worker streams through cache-adjacent data.
//  * Determinism: parallel_for never reorders side effects that matter —
//    callers write to disjoint output slots indexed by the loop variable,
//    so results are independent of scheduling.
//  * The pool is explicitly sized (default: the CPUs in the calling
//    thread's affinity mask) and can be shared across subsystems; a size
//    of 0 or 1 degrades to serial execution in the calling thread, which
//    keeps unit tests simple.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace fhc::util {

class ThreadPool {
 public:
  /// Creates `threads` workers. 0 means one per CPU in the calling
  /// thread's affinity mask (sched_getaffinity), so a daemon confined to
  /// a cpuset runs as many workers as it has CPUs. Where the mask cannot
  /// be read, hardware_concurrency() is used, or 2 if that reports 0.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (>= 1).
  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task. An exception escaping a task is captured by the
  /// worker (first one wins; later ones are dropped) and rethrown from the
  /// next wait_idle() call — it never reaches the worker thread's
  /// std::thread boundary, so it cannot std::terminate the process.
  /// This pool-level capture assumes one wait_idle() client at a time;
  /// with concurrent waiters the exception surfaces in whichever returns
  /// first. parallel_for does not rely on it — it scopes completion AND
  /// failure per call, so shared-pool batches neither wait on each
  /// other's tasks nor receive each other's exceptions.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing, then
  /// rethrows the first exception captured since the previous wait_idle()
  /// (clearing it, so the pool stays usable afterwards).
  void wait_idle();

  /// Process-wide shared pool, created on first use.
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_exception_;  // guarded by mutex_
};

/// Runs fn(i) for i in [begin, end) across the pool, in contiguous blocks
/// of at least `grain` indices. fn must be safe to invoke concurrently for
/// distinct i. Runs serially when the range is small or the pool has a
/// single worker. Returns when THIS call's tasks have finished — not when
/// the whole pool is idle, so a batch never waits on another batch's
/// unfinished tasks (it may still queue behind them for worker slots).
/// If a body throws, the first exception is rethrown on
/// the calling thread once this call's workers drain; which of the
/// remaining indices still ran is unspecified.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  std::size_t grain, const std::function<void(std::size_t)>& fn);

/// parallel_for over [0, n) on the shared pool with a heuristic grain.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace fhc::util
