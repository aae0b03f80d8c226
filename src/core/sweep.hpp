#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"
#include "util/time.hpp"

/// \file sweep.hpp
/// SweepRunner — the generic fork-tree sweep engine.
///
/// Every headline experiment is a *parameter sweep over a shared workload
/// prefix*: the same scenario up to a divergence time t0, then one knob
/// (utilization cap, fault process, broker policy, quota) per point.  A
/// SweepRunner turns such a sweep into a fork tree: simulate the common
/// prefix once, fork one run per point at t0, apply each point's knob to
/// its fork, and advance the forks — optionally in parallel on
/// util::ThreadPool, with results landing in index-addressed slots so the
/// output order (and content) is independent of thread count.
///
/// The runner is generic over a *Run* type providing the fork protocol:
///
///   std::unique_ptr<Run> fork();   // copy-on-write mid-run snapshot
///   void run_until(SimTime t);     // advance to the divergence time
///
/// core::SimRun (one machine) and grid::FleetRun (a whole brokered fleet)
/// both satisfy it.  Point configuration and completion live in a caller
/// callable `finish(Run&, std::size_t point) -> Result` invoked with the
/// run standing at t0 — apply the point's knobs there, then drain.
///
/// Three modes:
///   - run_forked:  prefix once + one fork per point (the fast path);
///   - run_scratch: every point re-simulated from time zero through the
///     same `finish` (the pre-fork world, kept as the reference arm and as
///     the executor for sweeps that cannot share a prefix, e.g. per-seed
///     workload regeneration);
///   - run_verified: both arms plus a caller equality predicate — the
///     fork==scratch bit-equality mode the bench exit gates are built on,
///     with per-arm wall clocks so the same call also yields the speedup.
///
/// Determinism: forks are created serially (forking freezes the source's
/// copy-on-write logs, sealing what it appended since its last fork into
/// shared immutable chunks), each fork is advanced by exactly one task,
/// and results are written to pre-sized slots — so a sweep's output is
/// bit-identical at 1, 2 or 8 threads (pinned by tests/core/test_sweep.cpp).
/// The forks then only read the chunks they share, so the tasks need no
/// lock; each fork's appends go to its own private tail.

namespace istc::core {

/// Wall-clock breakdown of the most recent sweep arm.
struct SweepTiming {
  double prefix_wall_s = 0.0;  ///< shared-prefix simulation (forked arm)
  double fork_wall_s = 0.0;    ///< serial fork creation (forked arm only)
  double points_wall_s = 0.0;  ///< per-point advancement / re-simulation
  double total_s() const { return prefix_wall_s + fork_wall_s + points_wall_s; }
};

/// Both arms of a verified sweep plus the equality verdict and the
/// end-to-end speedup prefix sharing bought.  Per-arm clocks compare
/// *simulation advancement* only: the serial fork-creation loop — a fixed
/// artifact of the forked arm, measured separately in fork_wall_s — is
/// excluded from forked_wall_s, so speedup() reports prefix reuse rather
/// than prefix reuse minus snapshot cost (the bench gates compare
/// advancement against advancement; pinned by tests/core/test_sweep.cpp).
template <class Result>
struct VerifiedSweep {
  std::vector<Result> forked;
  std::vector<Result> scratch;
  bool equal = false;       ///< every point bit-equal across the arms
  double forked_wall_s = 0.0;   ///< prefix + fork advancement, no fork setup
  double fork_wall_s = 0.0;     ///< serial fork creation (reported, ungated)
  double scratch_wall_s = 0.0;
  double speedup() const {
    return forked_wall_s > 0.0 ? scratch_wall_s / forked_wall_s : 0.0;
  }
};

template <class Run>
class SweepRunner {
 public:
  /// \param points number of sweep points.
  /// \param make_run fresh run at time zero for point `i`.  Fork mode
  ///        calls it exactly once (point 0) for the shared prefix, so the
  ///        run it builds must be point-independent there; scratch mode
  ///        calls it per point (which is what lets per-seed sweeps — whose
  ///        points differ from t=0 — share this engine).
  SweepRunner(std::size_t points,
              std::function<std::unique_ptr<Run>(std::size_t)> make_run)
      : points_(points), make_run_(std::move(make_run)) {
    ISTC_EXPECTS(points_ > 0);
    ISTC_EXPECTS(make_run_ != nullptr);
  }

  /// Worker threads for advancing points (0 = default_thread_count()).
  /// Thread count never changes results, only wall clock; bench speedup
  /// gates pin 1 so they measure prefix reuse, not host parallelism.
  void set_threads(std::size_t threads) { threads_ = threads; }

  std::size_t points() const { return points_; }

  /// Fork mode: simulate [0, t0] once, fork per point, finish each fork.
  /// `finish(Run&, i)` sees the run standing at t0 — apply point i's knobs
  /// there, then drain.  Results are in point order.
  template <class Finish>
  auto run_forked(SimTime t0, Finish&& finish)
      -> std::vector<decltype(finish(std::declval<Run&>(), std::size_t{}))> {
    using Result = decltype(finish(std::declval<Run&>(), std::size_t{}));
    const auto prefix_t0 = Clock::now();
    std::unique_ptr<Run> prefix;
    {
      obs::ScopedSpan span("sweep.prefix");
      prefix = make_run_(0);
      prefix->run_until(t0);
    }
    timing_.prefix_wall_s = since(prefix_t0);

    const auto forks_t0 = Clock::now();
    // Forking mutates the source (freezing the shared log prefixes), so
    // fork creation is serial; only the advancement fans out.  It is
    // clocked apart from the advancement so per-arm comparisons (the
    // verified-mode speedup gates) measure simulation work only.
    std::vector<std::unique_ptr<Run>> forks;
    {
      obs::ScopedSpan span("sweep.fork",
                           static_cast<std::int64_t>(points_));
      forks.reserve(points_);
      for (std::size_t i = 0; i < points_; ++i) {
        forks.push_back(prefix->fork());
      }
    }
    timing_.fork_wall_s = since(forks_t0);

    const auto points_t0 = Clock::now();
    std::vector<Result> results(points_);
    each_point([&](std::size_t i) { results[i] = finish(*forks[i], i); });
    timing_.points_wall_s = since(points_t0);
    return results;
  }

  /// Scratch mode: every point from time zero — make the run, advance to
  /// t0, then the same `finish` as fork mode.  The reference arm, and the
  /// executor for sweeps with no shared prefix (pass t0 = 0).
  template <class Finish>
  auto run_scratch(SimTime t0, Finish&& finish)
      -> std::vector<decltype(finish(std::declval<Run&>(), std::size_t{}))> {
    using Result = decltype(finish(std::declval<Run&>(), std::size_t{}));
    timing_.prefix_wall_s = 0.0;
    timing_.fork_wall_s = 0.0;
    const auto points_t0 = Clock::now();
    std::vector<Result> results(points_);
    each_point([&](std::size_t i) {
      std::unique_ptr<Run> run = make_run_(i);
      run->run_until(t0);
      results[i] = finish(*run, i);
    });
    timing_.points_wall_s = since(points_t0);
    return results;
  }

  /// Bit-equality mode: run both arms and compare point-wise with
  /// `equal(forked_result, scratch_result)`.  The bench exit gates hang
  /// off `.equal` and `.speedup()`.
  template <class Finish, class Equal>
  auto run_verified(SimTime t0, Finish&& finish, Equal&& equal)
      -> VerifiedSweep<decltype(finish(std::declval<Run&>(), std::size_t{}))> {
    using Result = decltype(finish(std::declval<Run&>(), std::size_t{}));
    VerifiedSweep<Result> v;
    v.forked = run_forked(t0, finish);
    // Advancement-only clocks: fork creation is serial bookkeeping, not
    // simulation, and must not dilute (or flatter) the speedup the gates
    // compare — it is surfaced separately in fork_wall_s.
    v.forked_wall_s = timing_.prefix_wall_s + timing_.points_wall_s;
    v.fork_wall_s = timing_.fork_wall_s;
    v.scratch = run_scratch(t0, finish);
    v.scratch_wall_s = timing_.total_s();
    v.equal = true;
    for (std::size_t i = 0; i < points_; ++i) {
      v.equal = v.equal && equal(v.forked[i], v.scratch[i]);
    }
    return v;
  }

 private:
  using Clock = std::chrono::steady_clock;

  static double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

  void each_point(const std::function<void(std::size_t)>& fn) {
    const std::size_t threads =
        threads_ > 0 ? threads_ : default_thread_count();
    std::optional<ThreadPool> pool;
    if (threads > 1 && points_ > 1) pool.emplace(threads);
    obs::traced_for(pool ? &*pool : nullptr, points_, "sweep.arm", fn);
  }

  std::size_t points_;
  std::function<std::unique_ptr<Run>(std::size_t)> make_run_;
  std::size_t threads_ = 0;
  SweepTiming timing_;
};

}  // namespace istc::core
