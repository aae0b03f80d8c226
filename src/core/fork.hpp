#pragma once

#include <memory>
#include <optional>

#include "core/driver.hpp"
#include "core/experiment.hpp"
#include "fault/fault.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"

/// \file fork.hpp
/// Run forks: copy-on-write snapshots of a live simulation.
///
/// A SimRun owns one scenario's full simulation stack (engine, scheduler,
/// driver, fault injector) and can be advanced to any sim time, *forked*,
/// and finished.  Forking captures the complete mid-run state — pending
/// event queue, SoA job store, free-CPU profile, submission bookkeeping —
/// so a sweep whose variants share a prefix (same scenario up to time T,
/// divergent knobs after) simulates the prefix once and forks per variant
/// instead of re-simulating from scratch.
///
/// What makes the fork cheap and exact:
///   - the typed event core is POD-only mid-run (job/wake/sample/repair/
///     fault events carry 32-bit args, never closures), so the queue is
///     memcpy-able (sim::Engine::adopt_state);
///   - the scheduler's append-only logs (submission table, completed
///     records) are CowLog<T>: the fork shares the frozen prefix and each
///     side appends to a private tail — indices stay stable, so queued
///     event args remain valid across the fork boundary;
///   - all randomness (native log, fault timeline) is pre-generated, so
///     there is no live RNG state to capture: the shared fault timeline is
///     an immutable shared_ptr.
///
/// Determinism: a fork advanced to the end is bit-identical to a
/// from-scratch run of the same scenario (pinned by
/// tests/core/test_fork.cpp) — the fork copies the engine's event sequence
/// counter, so post-fork events tie-break exactly as they would have.
///
/// Restrictions (ISTC_EXPECTS-enforced): forking requires an event queue
/// holding no generic callbacks (their payloads can't be copied), no
/// pending metrics sample, and no scheduler pass in flight (fork between
/// events, not inside one).  Forks start unobserved — tracer and metrics
/// are not carried over; attach a fresh tracer via set_tracer if the
/// post-fork window should be traced.

namespace istc::core {

class SimRun {
 public:
  /// Build the full simulation stack for `scenario`, exactly as
  /// run_scenario does, but leave the clock at 0.  The scenario's tracer
  /// and metrics (if any) attach to this primary run only; forks start
  /// unobserved.
  explicit SimRun(const Scenario& scenario);

  SimRun(const SimRun&) = delete;
  SimRun& operator=(const SimRun&) = delete;
  // Not movable: the driver and injector hold references into this stack.
  SimRun(SimRun&&) = delete;

  /// Fork: a new SimRun whose state is a copy-on-write snapshot of this
  /// one at the current sim time.  Cheap (no event replay; the logs share
  /// their prefix) and exact (advancing the fork reproduces the source
  /// bit-for-bit).  The source must be quiescent: between events, with no
  /// metrics sampler attached.  `this` is non-const only because forking
  /// freezes the shared log prefixes (an O(tail) fold, amortized O(1)).
  std::unique_ptr<SimRun> fork();

  /// Advance until every event at time <= t has fired.  The clock does not
  /// jump to t on an empty queue (mirrors grid::GridMachine::advance), so
  /// fork points land on real event boundaries.
  void run_until(SimTime t);

  /// Inject a failure process from here on: spec.start must be >= now().
  /// Typical use: fork a fault-free prefix, then give each fork its own
  /// fault spec (the MTBF-grid sweep).  One injector per run.
  void add_faults(fault::FaultSpec spec);

  /// Trace the rest of the run (schedule-neutral; counters and events
  /// cover the post-attach window only).  Not owned; must outlive finish().
  void set_tracer(trace::Tracer* tracer) { scheduler_->set_tracer(tracer); }

  /// Drain every remaining event and collect the result.  If the
  /// originating scenario carried metrics, they are ingested here (primary
  /// run only; forks never carry metrics).
  sched::RunResult finish();

  SimTime now() const { return engine_.now(); }
  sim::Engine& engine() { return engine_; }
  sched::BatchScheduler& scheduler() { return *scheduler_; }
  const InterstitialDriver* driver() const {
    return driver_ ? &*driver_ : nullptr;
  }
  /// Mutable driver access, for post-fork sweep knobs that only affect
  /// behavior ahead of the fork point (InterstitialDriver::set_fault_retry).
  InterstitialDriver* driver() { return driver_ ? &*driver_ : nullptr; }
  const fault::FaultInjector* injector() const {
    return injector_ ? &*injector_ : nullptr;
  }

 private:
  /// Fork constructor (use fork(); `other` is mutated only to freeze its
  /// copy-on-write log prefixes).
  explicit SimRun(SimRun& other);

  cluster::Site site_;
  SimTime span_ = 0;
  metrics::RunMetrics* metrics_ = nullptr;
  sim::Engine engine_;
  // unique_ptr keeps the scheduler's address stable (the driver and
  // injector hold references to it); engine_ is referenced by everything
  // and declared first.
  std::unique_ptr<sched::BatchScheduler> scheduler_;
  std::optional<InterstitialDriver> driver_;
  std::optional<fault::FaultInjector> injector_;
};

}  // namespace istc::core
