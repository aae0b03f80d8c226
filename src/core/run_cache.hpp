#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <tuple>

#include "cluster/presets.hpp"
#include "sched/record.hpp"
#include "util/time.hpp"

/// \file run_cache.hpp
/// Explicit cache of whole-log simulations.
///
/// Every comparison experiment replays the same canonical native log per
/// machine, and the eight Table 4 rows on a machine share two underlying
/// continual co-simulations — so those runs are computed once and reused.
/// The cache used to live in hidden file-scope globals inside
/// experiment.cpp; it is now an object that can be instantiated per test,
/// inspected (hit/miss counts, entry counts) and cleared, with one
/// process-wide default instance behind the convenience free functions in
/// experiment.hpp.

namespace istc::core {

class RunCache {
 public:
  RunCache() = default;

  RunCache(const RunCache&) = delete;
  RunCache& operator=(const RunCache&) = delete;

  /// Native-only run of the canonical site log, computed on first use.
  /// The reference stays valid until clear().
  const sched::RunResult& native_baseline(cluster::Site site);

  /// Continual co-simulation for a job shape (32 CPU x 458 s etc.), keyed
  /// by (site, cpus/job, work @1GHz, utilization cap).  Computed unlocked
  /// on miss — concurrent callers may race to simulate, first insert wins —
  /// so a slow continual run never serializes unrelated lookups.
  const sched::RunResult& continual_run(cluster::Site site, int cpus_per_job,
                                        Seconds sec_at_1ghz,
                                        double utilization_cap = 1.0);

  /// Generic memo: a whole-run result under a caller-computed 64-bit key.
  /// The what-if service keys its reference arm by (baseline epoch,
  /// frontier, point, horizon), so every query against the same epoch
  /// shares one reference simulation.  Computed unlocked on miss
  /// (concurrent callers may race to simulate; the first insert wins and
  /// later computes are discarded).  Returned by value, copied under the
  /// cache lock: a concurrent clear() — the service clears on every
  /// accepted ingest — cannot free the entry while it is being read.
  sched::RunResult memoized(std::uint64_t key,
                            const std::function<sched::RunResult()>& compute);

  /// Drop every entry (tests use this to bound memory).  Invalidates all
  /// references previously returned.
  void clear();

  /// Cached entries across both maps (diagnostics / tests).
  std::size_t size() const;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  Stats stats() const;

 private:
  // Key: site, cpus/job, work seconds @1GHz, utilization cap (scaled x1000).
  using ContinualKey = std::tuple<cluster::Site, int, Seconds, long>;

  mutable std::mutex mu_;
  std::map<cluster::Site, sched::RunResult> native_;
  std::map<ContinualKey, sched::RunResult> continual_;
  std::map<std::uint64_t, sched::RunResult> memo_;
  Stats stats_;
};

/// The process-wide instance the free functions in experiment.hpp use.
RunCache& default_run_cache();

}  // namespace istc::core
