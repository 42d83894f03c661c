// A one-worker thread pool whose worker is held by a latch task until
// release(): tasks posted to it (a service's scoring tasks, a socket
// server's extraction and RELOAD tasks) wait, in order, until the test
// lets them run. Tests use it to park work at a known point instead of
// racing a timer.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "util/thread_pool.hpp"

namespace fhc::testsupport {

class GatedPool {
 public:
  /// Starts closed: nothing posted from now on runs until release().
  GatedPool() { close(); }

  /// Releases the gate (runs whatever queued behind it), then joins the
  /// worker. Anything using the pool must be destroyed first.
  ~GatedPool() { release(); }

  GatedPool(const GatedPool&) = delete;
  GatedPool& operator=(const GatedPool&) = delete;

  /// Lets the worker go: queued tasks run in submission order. Idempotent.
  void release() {
    {
      std::lock_guard lock(mutex_);
      opened_ = closed_;
    }
    cv_.notify_all();
  }

  /// Closes the gate again: tasks posted after this call wait for the
  /// next release(); those posted before it still run.
  void close() {
    std::uint64_t latch = 0;
    {
      std::lock_guard lock(mutex_);
      latch = ++closed_;
    }
    pool_.submit([this, latch] {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this, latch] { return opened_ >= latch; });
    });
  }

  util::ThreadPool* get() { return &pool_; }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t closed_ = 0;  // latches posted
  std::uint64_t opened_ = 0;  // latches released
  util::ThreadPool pool_{1};  // last: its worker joins before the latch state goes
};

}  // namespace fhc::testsupport
