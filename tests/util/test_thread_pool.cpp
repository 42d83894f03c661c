// Thread pool and parallel_for: coverage, determinism of effects, nesting,
// exception propagation.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace fhc::util {
namespace {

TEST(ThreadPool, HasAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  ThreadPool pool3(3);
  EXPECT_EQ(pool3.size(), 3u);
}

TEST(ThreadPool, DefaultSizeFollowsTheAffinityMask) {
  // A pool sized by default on a thread confined to one CPU (as under
  // `taskset -c N` or a one-core cpuset) has one worker, whatever
  // hardware_concurrency() says. The CPU is one the thread already has.
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(sched_getaffinity(0, sizeof original, &original), 0);
  int cpu = 0;
  while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &original)) ++cpu;
  ASSERT_LT(cpu, CPU_SETSIZE);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
  std::size_t workers = 0;
  {
    ThreadPool pool(0);
    workers = pool.size();
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof original, &original), 0);
  EXPECT_EQ(workers, 1u);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  parallel_for(pool, 0, 1000, 16, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelFor, HandlesEmptyAndReversedRanges) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(pool, 5, 5, 1, [&](std::size_t) { ++calls; });
  parallel_for(pool, 7, 3, 1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SmallRangeRunsSerially) {
  ThreadPool pool(4);
  // grain >= n forces the serial fast path; indices must still be visited.
  std::vector<int> visits(8, 0);
  parallel_for(pool, 0, 8, 100, [&](std::size_t i) { visits[i] += 1; });
  EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0), 8);
}

TEST(ParallelFor, DisjointWritesProduceDeterministicResult) {
  ThreadPool pool(4);
  std::vector<std::size_t> out_a(5000);
  std::vector<std::size_t> out_b(5000);
  parallel_for(pool, 0, 5000, 8, [&](std::size_t i) { out_a[i] = i * i; });
  parallel_for(pool, 0, 5000, 64, [&](std::size_t i) { out_b[i] = i * i; });
  EXPECT_EQ(out_a, out_b);
}

TEST(ParallelFor, NestedCallsDegradeToSerialWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  parallel_for(pool, 0, 8, 1, [&](std::size_t) {
    // Nested parallel_for on the same pool must not deadlock.
    parallel_for(pool, 0, 10, 1, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 80);
}

TEST(ParallelFor, SharedPoolConvenienceOverload) {
  std::vector<std::atomic<int>> visits(256);
  parallel_for(256, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, ThrowingTaskSurfacesInWaitIdle) {
  // Before the fix the exception escaped the worker thread and called
  // std::terminate, and in_flight_ stayed stuck so wait_idle hung forever.
  ThreadPool pool(2);
  pool.submit([] { throw std::logic_error("task failed"); });
  EXPECT_THROW(pool.wait_idle(), std::logic_error);
  // The exception is cleared and the pool stays usable.
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, FirstOfSeveralExceptionsWins) {
  ThreadPool pool(4);
  for (int i = 0; i < 16; ++i) {
    pool.submit([] { throw std::runtime_error("boom"); });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  pool.wait_idle();  // later exceptions were dropped, not queued
}

TEST(ParallelFor, ThrowingBodyRethrowsOnCallingThread) {
  ThreadPool pool(4);
  bool caught = false;
  try {
    parallel_for(pool, 0, 1000, 1, [](std::size_t i) {
      if (i == 137) throw std::runtime_error("body failed at 137");
    });
  } catch (const std::runtime_error& error) {
    caught = true;
    EXPECT_STREQ(error.what(), "body failed at 137");
  }
  EXPECT_TRUE(caught);
  // The pool is still functional after the failed loop.
  std::atomic<int> total{0};
  parallel_for(pool, 0, 100, 1, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 100);
}

TEST(ParallelFor, ThrowOnSerialFastPathPropagates) {
  ThreadPool pool(4);
  // grain >= n forces the serial path; the exception must still surface.
  EXPECT_THROW(
      parallel_for(pool, 0, 4, 100,
                   [](std::size_t) { throw std::invalid_argument("serial"); }),
      std::invalid_argument);
}

TEST(ParallelFor, NestedThrowPropagatesThroughOuterLoop) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 0, 8, 1,
                            [&](std::size_t) {
                              parallel_for(pool, 0, 10, 1, [](std::size_t j) {
                                if (j == 5) throw std::runtime_error("nested");
                              });
                            }),
               std::runtime_error);
}

TEST(ParallelFor, UnevenWorkStillCompletes) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  parallel_for(pool, 0, 100, 4, [&](std::size_t i) {
    long local = 0;
    for (std::size_t k = 0; k < i * 100; ++k) local += static_cast<long>(k % 7);
    sum.fetch_add(local >= 0 ? 1 : 0);
  });
  EXPECT_EQ(sum.load(), 100);
}

}  // namespace
}  // namespace fhc::util
