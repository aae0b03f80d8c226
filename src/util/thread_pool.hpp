#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

/// \file thread_pool.hpp
/// A small fixed-size worker pool plus a deterministic parallel_for.
///
/// The simulator itself is single-threaded (a discrete-event schedule is a
/// serial dependence chain), but the experiment layer runs many independent
/// replications — Monte-Carlo starts, parameter sweeps — which parallelize
/// embarrassingly.  Determinism note: each replication owns a forked RNG
/// stream keyed by its index, so results are independent of thread count.

namespace istc {

/// Process-wide default worker count, consulted wherever a pool is sized
/// implicitly: `ThreadPool(0)` and the transient `parallel_for`.  0 (the
/// initial state) means hardware concurrency.  The CLI's `--threads` flag
/// and the bench harness's ISTC_THREADS env var land here, so artifacts
/// can record — and runs can pin — the parallelism they used.
void set_default_thread_count(std::size_t threads);

/// The resolved default (>= 1): the configured count, or hardware
/// concurrency when none was set.
std::size_t default_thread_count();

/// Saturation gauges over every pool the process ever created
/// (ThreadPool::global_stats).  Wall-clock observability only: these feed
/// bench preambles and the daemon's reading list, never results.
struct PoolStats {
  std::uint64_t tasks_submitted = 0;
  std::uint64_t tasks_executed = 0;
  std::size_t queue_depth = 0;   ///< tasks currently waiting
  std::size_t queue_hwm = 0;     ///< high-water mark of queue_depth
  std::size_t busy_workers = 0;  ///< workers currently running a task
  std::size_t busy_hwm = 0;      ///< high-water mark of busy_workers
  std::uint64_t pools_created = 0;
};

class ThreadPool {
 public:
  /// \param threads 0 means default_thread_count().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; runs at some point on a worker thread.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait_idle();

  /// Process-wide gauges accumulated across every pool ever constructed —
  /// transient sweep pools included, which is what makes the numbers
  /// meaningful for a daemon that builds a pool per query.  queue_depth /
  /// busy_workers are live values across currently existing pools.
  static PoolStats global_stats();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

/// Run fn(i) for i in [0, n) across the pool; blocks until done.
/// Exceptions in tasks terminate via an explicit std::terminate in the
/// worker loop — never silently, and never by deadlocking wait_idle (the
/// experiment harness treats a failed replication as a programming error,
/// not a recoverable event).  tests/util/test_thread_pool.cpp pins the
/// death path.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

/// Convenience: run fn(i) for i in [0, n) on a transient pool sized by
/// default_thread_count(); falls back to serial execution when n is tiny.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace istc
