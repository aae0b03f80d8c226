#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace istc {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, SizeReflectsWorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ParallelFor, CoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, hits.size(),
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroIterations) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL(); });
  SUCCEED();
}

TEST(ParallelFor, MoreTasksThanWorkers) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  parallel_for(pool, 500, [&](std::size_t i) {
    sum.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(sum.load(), 500L * 499 / 2);
}

TEST(ParallelFor, TransientPoolOverload) {
  std::atomic<int> n{0};
  parallel_for(16, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 16);
}

TEST(ParallelFor, SerialFallbackForTinyN) {
  std::atomic<int> n{0};
  parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    n.fetch_add(1);
  });
  EXPECT_EQ(n.load(), 1);
}

// Determinism contract: per-index forked RNG streams give results that are
// independent of thread count / interleaving.
TEST(ParallelFor, DeterministicWithForkedStreams) {
  const Rng root(99);
  auto run = [&](std::size_t workers) {
    ThreadPool pool(workers);
    std::vector<double> out(64);
    parallel_for(pool, out.size(), [&](std::size_t i) {
      Rng rng = root.fork(i);
      double acc = 0;
      for (int k = 0; k < 100; ++k) acc += rng.uniform();
      out[i] = acc;
    });
    return out;
  };
  EXPECT_EQ(run(1), run(7));
}

// -- saturation gauges (bench preambles, stats verb, /metrics) ---------------

// Each ctest entry runs in its own process, so the global deltas below
// count only this test's pool.
TEST(ThreadPool, InstanceStatsCountSubmittedAndExecuted) {
  const PoolStats before = ThreadPool::global_stats();
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      pool.submit([] {});
    }
    pool.wait_idle();
  }
  const PoolStats s = ThreadPool::global_stats();
  EXPECT_EQ(s.tasks_submitted - before.tasks_submitted, 50u);
  EXPECT_EQ(s.tasks_executed - before.tasks_executed, 50u);
  EXPECT_EQ(s.pools_created - before.pools_created, 1u);
  EXPECT_EQ(s.queue_depth, 0u);
  // 50 tasks through 3 workers must have queued at least once.
  EXPECT_GE(s.queue_hwm, 1u);
  EXPECT_GE(s.busy_hwm, 1u);
}

TEST(ThreadPool, GlobalStatsAreMonotoneAcrossPools) {
  const PoolStats before = ThreadPool::global_stats();
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) {
      pool.submit([] {});
    }
    pool.wait_idle();
  }
  const PoolStats after = ThreadPool::global_stats();
  EXPECT_GE(after.tasks_submitted, before.tasks_submitted + 20);
  EXPECT_GE(after.tasks_executed, before.tasks_executed + 20);
  EXPECT_GE(after.pools_created, before.pools_created + 1);
  // Process-lifetime HWMs never move backwards.
  EXPECT_GE(after.queue_hwm, before.queue_hwm);
  EXPECT_GE(after.busy_hwm, before.busy_hwm);
}

TEST(ThreadPool, BusyWorkersReturnToZeroWhenIdle) {
  const PoolStats before = ThreadPool::global_stats();
  ThreadPool pool(4);
  std::atomic<int> n{0};
  parallel_for(pool, 64, [&](std::size_t) { n.fetch_add(1); });
  pool.wait_idle();
  const PoolStats after = ThreadPool::global_stats();
  EXPECT_EQ(after.busy_workers, before.busy_workers);
  EXPECT_EQ(after.queue_depth, before.queue_depth);
  EXPECT_EQ(n.load(), 64);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> a{0};
  parallel_for(pool, 10, [&](std::size_t) { a.fetch_add(1); });
  parallel_for(pool, 20, [&](std::size_t) { a.fetch_add(1); });
  EXPECT_EQ(a.load(), 30);
}

#ifdef GTEST_HAS_DEATH_TEST
// A task that throws must terminate the process — loudly, via the explicit
// std::terminate in worker_loop — rather than skip the active_ decrement
// and leave wait_idle() blocked on a pool that never drains.  This suite is
// named *DeathTest so the TSan CI filter (which cannot run fork-based death
// tests) excludes it by name.
TEST(ParallelForDeathTest, TaskExceptionTerminates) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        parallel_for(pool, 8, [](std::size_t i) {
          if (i == 3) throw std::runtime_error("boom");
        });
      },
      "parallel_for task threw");
}
#endif

}  // namespace
}  // namespace istc
