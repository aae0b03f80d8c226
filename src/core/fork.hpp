#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "core/driver.hpp"
#include "core/experiment.hpp"
#include "fault/fault.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "util/hash.hpp"
#include "workload/job.hpp"

/// \file fork.hpp
/// Run forks: copy-on-write snapshots of a live simulation.
///
/// A SimRun owns one machine's full simulation stack (engine, scheduler,
/// driver, fault injector) and can be advanced to any sim time, *forked*,
/// and finished.  It is the only code that builds or forks that stack:
/// scenarios and sweeps use it directly, the what-if service's
/// service::TailRun is a thin subclass, and every grid::GridMachine shard
/// holds one.  Forking captures the complete mid-run state — pending
/// event queue, SoA job store, free-CPU profile, submission bookkeeping —
/// so a sweep whose variants share a prefix (same scenario up to time T,
/// divergent knobs after) simulates the prefix once and forks per variant
/// instead of re-simulating from scratch.
///
/// What makes the fork cheap and exact:
///   - every engine event is a typed 24-byte entry carrying a 32-bit arg,
///     never a closure, so a mid-run queue is plain data and copies
///     exactly (sim::Engine::adopt_state);
///   - the scheduler's append-only logs (submission table, completed
///     records) are CowLog<T>: the fork shares their frozen chunks and
///     each side appends to a private tail — indices stay stable, so
///     queued event args remain valid across the fork boundary, and forks
///     kept side by side hold one copy of history between them;
///   - all randomness (native log, fault timeline) is pre-generated, so
///     there is no live RNG state to capture: the shared fault timeline is
///     an immutable shared_ptr.
///
/// Determinism: a fork advanced to the end is bit-identical to a
/// from-scratch run of the same scenario (pinned by
/// tests/core/test_fork.cpp) — the fork copies the engine's event sequence
/// counter, so post-fork events tie-break exactly as they would have.
///
/// Restrictions (ISTC_EXPECTS-enforced): forking requires no pending
/// metrics sample and no scheduler pass in flight (fork between events,
/// not inside one).  Forks start unobserved — tracer and metrics
/// are not carried over; attach a fresh tracer via set_tracer if the
/// post-fork window should be traced.

namespace istc::core {

/// One machine's simulation inputs: everything SimRun builds its stack
/// from.  SimRun(const Scenario&) fills it from the site presets;
/// service::TailRun fills it from its own config, and grid::MachineSetup
/// is a RunSetup plus the fleet's per-machine fields.
struct RunSetup {
  cluster::MachineSpec spec;
  cluster::DowntimeCalendar downtime;
  sched::PolicySpec policy;
  /// Native log, loaded into the scheduler at construction.  Move it in:
  /// the scheduler's copy-on-write submission table then holds the only
  /// copy, shared by every fork.
  workload::JobLog natives;
  /// Native log span: the take_result() span and the fault horizon.
  SimTime span = 0;
  /// The machine's own interstitial project / stream, run by a local
  /// InterstitialDriver; nullopt = no driver (a grid machine then takes
  /// brokered deliveries instead).
  std::optional<ProjectSpec> local_project;
  /// Interstitial job ids count up from here; nullopt = right after the
  /// native log's (see stream_first_id).
  std::optional<workload::JobId> first_interstitial_id;
  /// Unplanned-failure timeline (inert by default; stop clamped to span).
  fault::FaultSpec faults;

  /// The first interstitial job id: first_interstitial_id if set, else
  /// natives.size(), so stream ids start after the native log's.
  workload::JobId stream_first_id() const {
    return first_interstitial_id.value_or(
        static_cast<workload::JobId>(natives.size()));
  }
};

/// A run on `site` under its presets: the machine spec, downtime
/// calendar, scheduling policy and log span.  Natives, stream and faults
/// are left to the caller.
RunSetup site_setup(cluster::Site site);

class SimRun {
 public:
  /// Build the stack for one machine, leaving the clock at 0.  Order:
  /// engine, scheduler (natives loaded), driver (its initial wake), then
  /// the fault injector, so the fault timeline's event sequence numbers
  /// follow the driver's wake — times are unaffected either way.
  explicit SimRun(RunSetup setup);

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
  /// their frozen chunks) and exact (advancing the fork reproduces the
  /// source bit-for-bit).  The source must be quiescent: between events,
  /// with no metrics sampler attached.  `this` is non-const only because
  /// forking freezes the logs, which copies at most util::CowLog::kChunk
  /// entries per log; the fork then copies one pointer per chunk of
  /// history, whatever the history's length.
  std::unique_ptr<SimRun> fork();

  /// Advance until every event at time <= t has fired.  The clock does not
  /// jump to t on an empty queue, so fork points land on real event
  /// boundaries and a sliced run keeps the unsliced sim_end.
  void run_until(SimTime t);

  /// Feed one job into the live run (job.submit must be >= now()).  The
  /// submission is an engine event; nothing simulates until run_until.
  void submit(const workload::Job& job) { scheduler_->submit(job); }

  /// Attach a bounded interstitial stream from here on (spec.start_time is
  /// clamped up to now()).  One driver per run: ISTC_EXPECTS(!driver()).
  /// The what-if service uses this to evaluate speculative interstitial
  /// projects on a natives-only baseline fork.
  void add_stream(ProjectSpec spec, workload::JobId first_id);

  /// Inject a failure process from here on: spec.start must be >= now().
  /// Typical use: fork a fault-free prefix, then give each fork its own
  /// fault spec (the MTBF-grid sweep).  One injector per run.
  void add_faults(fault::FaultSpec spec);

  /// Trace the rest of the run (schedule-neutral; counters and events
  /// cover the post-attach window only).  Not owned; must outlive finish().
  void set_tracer(trace::Tracer* tracer) { scheduler_->set_tracer(tracer); }

  /// Drain every remaining event and collect the result.  Requires the run
  /// to be finite (every stream's stop_time < infinity).
  sched::RunResult finish();

  /// sched::schedule_hash over the *observable mid-run state* (completed
  /// records, kills, now()), usable without draining.  Two runs fed the
  /// same jobs and advanced to the same time hash equal.  Folds only the
  /// records completed since the previous call (hence non-const); the
  /// kills and now() are hashed afresh each time.
  std::uint64_t state_hash();

  SimTime now() const { return engine_.now(); }
  sim::Engine& engine() { return engine_; }
  sched::BatchScheduler& scheduler() { return *scheduler_; }
  const sched::BatchScheduler& scheduler() const { return *scheduler_; }
  const InterstitialDriver* driver() const {
    return driver_ ? &*driver_ : nullptr;
  }
  /// Mutable driver access, for post-fork knobs that only affect behavior
  /// ahead of the fork point (InterstitialDriver::set_fault_retry,
  /// set_stop_time).
  InterstitialDriver* driver() { return driver_ ? &*driver_ : nullptr; }
  const fault::FaultInjector* injector() const {
    return injector_ ? &*injector_ : nullptr;
  }

 protected:
  /// Fork constructor (use fork(); `other` is mutated only to freeze its
  /// copy-on-write log prefixes).  Order: the engine snapshot, then the
  /// scheduler clone registers itself as the new engine's sink, then the
  /// driver and injector clones re-register their hooks on it.
  explicit SimRun(SimRun& other);

 private:
  SimTime span_ = 0;
  sim::Engine engine_;
  // unique_ptr keeps the scheduler's address stable (the driver and
  // injector hold references to it); engine_ is referenced by everything
  // and declared first.
  std::unique_ptr<sched::BatchScheduler> scheduler_;
  std::optional<InterstitialDriver> driver_;
  std::optional<fault::FaultInjector> injector_;
  /// state_hash's running FNV-1a state over completed records
  /// [0, hashed_records_); forks inherit it with the shared log prefix.
  std::uint64_t records_hash_ = util::kFnvOffset;
  std::size_t hashed_records_ = 0;
};

}  // namespace istc::core
