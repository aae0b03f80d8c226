#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>

#include "util/assert.hpp"

namespace istc {

namespace {
// 0 = unset (fall back to hardware concurrency).  Atomic because bench
// workers may size transient pools while the main thread reconfigures.
std::atomic<std::size_t> g_default_threads{0};

// Process-global saturation gauges, accumulated across every pool ever
// created (sweeps build transient pools, so per-instance numbers vanish
// with the pool).  Relaxed atomics: these are telemetry, not
// synchronization, and must never perturb results.
std::atomic<std::uint64_t> g_tasks_submitted{0};
std::atomic<std::uint64_t> g_tasks_executed{0};
std::atomic<std::size_t> g_queue_depth{0};
std::atomic<std::size_t> g_queue_hwm{0};
std::atomic<std::size_t> g_busy_workers{0};
std::atomic<std::size_t> g_busy_hwm{0};
std::atomic<std::uint64_t> g_pools_created{0};

void raise_hwm(std::atomic<std::size_t>& hwm, std::size_t v) {
  std::size_t seen = hwm.load(std::memory_order_relaxed);
  while (seen < v &&
         !hwm.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}
}  // namespace

void set_default_thread_count(std::size_t threads) {
  g_default_threads.store(threads, std::memory_order_relaxed);
}

std::size_t default_thread_count() {
  const std::size_t configured =
      g_default_threads.load(std::memory_order_relaxed);
  if (configured > 0) return configured;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  g_pools_created.fetch_add(1, std::memory_order_relaxed);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  ISTC_EXPECTS(task != nullptr);
  // The global depth rises before the enqueue: the matching decrement in
  // worker_loop can only run after the push, so the gauge never
  // underflows however the worker races the unlock.
  g_tasks_submitted.fetch_add(1, std::memory_order_relaxed);
  raise_hwm(g_queue_hwm,
            g_queue_depth.fetch_add(1, std::memory_order_relaxed) + 1);
  {
    std::lock_guard lk(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lk(mu_);
  idle_cv_.wait(lk, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    g_queue_depth.fetch_sub(1, std::memory_order_relaxed);
    raise_hwm(g_busy_hwm,
              g_busy_workers.fetch_add(1, std::memory_order_relaxed) + 1);
    // Explicit std::terminate path.  An exception escaping here would
    // terminate anyway (it leaves a thread entry function), but only after
    // skipping the active_ decrement below — so a caller already blocked in
    // wait_idle() could deadlock on the never-idle pool instead of dying.
    // Fail fast and loudly; parallel_for's contract says task exceptions
    // are programming errors, not recoverable events.
    try {
      task();
    } catch (...) {
      std::fputs(
          "istc::ThreadPool: parallel_for task threw; terminating\n",
          stderr);
      std::terminate();
    }
    g_busy_workers.fetch_sub(1, std::memory_order_relaxed);
    g_tasks_executed.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard lk(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

PoolStats ThreadPool::global_stats() {
  PoolStats s;
  s.tasks_submitted = g_tasks_submitted.load(std::memory_order_relaxed);
  s.tasks_executed = g_tasks_executed.load(std::memory_order_relaxed);
  s.queue_depth = g_queue_depth.load(std::memory_order_relaxed);
  s.queue_hwm = g_queue_hwm.load(std::memory_order_relaxed);
  s.busy_workers = g_busy_workers.load(std::memory_order_relaxed);
  s.busy_hwm = g_busy_hwm.load(std::memory_order_relaxed);
  s.pools_created = g_pools_created.load(std::memory_order_relaxed);
  return s;
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::atomic<std::size_t> next{0};
  const std::size_t workers = std::min(pool.size(), n);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.submit([&next, n, &fn] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        fn(i);
      }
    });
  }
  pool.wait_idle();
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n <= 1 || default_thread_count() == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool pool;
  parallel_for(pool, n, fn);
}

}  // namespace istc
