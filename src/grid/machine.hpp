#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/machine.hpp"
#include "core/fork.hpp"
#include "core/project.hpp"
#include "fault/fault.hpp"
#include "sched/scheduler.hpp"
#include "trace/tracer.hpp"
#include "util/cow_log.hpp"
#include "workload/job.hpp"

/// \file machine.hpp
/// GridMachine — one shard of a federated fleet simulation.
///
/// The component/link model (after SST): a GridMachine is a component
/// wrapping one core::SimRun — the per-machine stack (Engine +
/// BatchScheduler + optional InterstitialDriver + optional FaultInjector)
/// — plus a counting tracer behind a message interface.  The only ways in
/// are timed deliveries (deliver_batch()) and the only ways out are timed
/// reports (collect_reports()), both stamped with simulation times
/// strictly ahead of the sender's clock — the "link" with its routing
/// latency.  Between epoch boundaries a machine touches no shared state,
/// which is what lets the fleet advance shards on a thread pool with
/// bit-identical results at any thread count (see fleet.hpp for the
/// conservative synchronization argument).
///
/// Deliveries are *batched*: one timed message carries a packed span of
/// jobs (everything the broker routed to this machine at one boundary),
/// so a million-job epoch costs one event per (machine, boundary) instead
/// of one per job.  The payload lives in an append-only copy-on-write log
/// and the event carries a 32-bit span index — a mid-run queue therefore
/// holds only POD entries, which is what makes a whole fleet shard
/// *forkable*: fork() snapshots the machine exactly (SimRun::fork plus the
/// port state), sharing the delivery/submission/record logs with the
/// parent, so a fleet-level sweep can simulate the common prefix once and
/// fork a shard per parameter point (core/sweep.hpp).
///
/// A machine runs one of two interstitial modes, exclusive because the
/// scheduler's post-pass hook is singular:
///   - local: the run's own InterstitialDriver and ProjectSpec (the same
///     SimRun stack core::run_scenario builds; the determinism tests pin
///     that this mode reproduces the golden schedule hashes), or
///   - brokered: a grid port — routed jobs land, are meta-backfilled
///     through the same Figure-1 gate the driver uses, and completions /
///     kills / bounces are reported back to the GridBroker.

namespace istc::grid {

/// A brokered job: fleet-wide identity plus machine-neutral work (cycles
/// per CPU, the paper's normalization), so the same job can be routed to —
/// or retried on — machines with different clocks.
struct GridJob {
  std::uint32_t gid = 0;      ///< fleet-wide id, assigned by the broker
  std::uint32_t project = 0;  ///< index into the broker's project table
  int cpus = 1;
  /// Remaining work per CPU in cycles; the full amount for fresh
  /// dispatches, the post-checkpoint remainder for fault retries.
  cluster::Cycles work_per_cpu = 0;
  /// Checkpoint cadence (from the project's FaultRetryPolicy): a kill
  /// loses only work since the last multiple of this; 0 = restart.
  Seconds checkpoint = 0;
  int attempts = 0;  ///< fault-retry resubmissions already consumed
  int bounces = 0;   ///< times this job failed to start and was re-routed
};

enum class ReportKind : std::uint8_t {
  kCompleted,  ///< ran to completion; cpu_sec is the harvested work
  kBounced,    ///< never started within the patience window; re-route
  kKilled,     ///< killed mid-run; job.work_per_cpu holds the remainder
};

/// A timed message from a machine's port back to the broker.
struct PortReport {
  ReportKind kind = ReportKind::kCompleted;
  GridJob job;
  SimTime time = 0;  ///< completion / bounce / kill time
  /// CPU-seconds consumed on this machine (full runtime for completions,
  /// elapsed for kills, 0 for bounces) — the broker's fair-share charge.
  std::uint64_t cpu_sec = 0;
};

/// Everything needed to stand up one machine of a fleet: the machine's
/// core::RunSetup (a set local_project selects local mode, see the file
/// comment) plus the fleet's per-machine fields.  Site presets (fleet.hpp)
/// fill this from cluster/workload/sched presets; tests build miniatures
/// directly.
struct MachineSetup : core::RunSetup {
  std::string name;  ///< display name; defaults to spec.name when empty
  /// How long a delivered job may sit unstarted (gate closed, no space)
  /// before the port bounces it back to the broker for re-routing.
  Seconds bounce_patience = 0;
};

class GridMachine {
 public:
  /// Port-side tallies (the broker keeps its own ledger; these let tests
  /// cross-check conservation from both ends of the link).
  struct PortStats {
    std::size_t delivered = 0;
    std::size_t started = 0;
    std::size_t completed = 0;
    std::size_t bounced = 0;
    std::size_t killed = 0;
  };

  /// Build the machine's SimRun from `setup`'s RunSetup (its native log
  /// moves into the run's scheduler); the machine keeps only the name and
  /// the bounce patience.
  explicit GridMachine(MachineSetup setup);

  GridMachine(const GridMachine&) = delete;
  GridMachine& operator=(const GridMachine&) = delete;

  /// Fork: a new GridMachine whose state is a copy-on-write snapshot of
  /// this one at the current sim time — core::SimRun::fork plus the port
  /// state.  Requires a quiescent machine (between events, i.e. at a fleet
  /// epoch boundary).  `this` is mutated only to freeze its shared log
  /// prefixes.  The fork starts with a fresh counters-only tracer; port
  /// statistics carry over.
  std::unique_ptr<GridMachine> fork();

  const std::string& name() const { return name_; }
  const cluster::Machine& machine() const {
    return run_->scheduler().machine();
  }
  bool accepts_routed() const { return driver() == nullptr; }

  // -- epoch surface (called by the fleet loop) ---------------------------

  SimTime now() const { return run_->now(); }
  SimTime next_event_time() const { return run_->engine().next_event_time(); }

  /// Process every event with time <= until (SimRun::run_until: the clock
  /// ends on the last *processed* event, so a sliced run leaves the same
  /// sim_end as an unsliced one).
  void advance(SimTime until) { run_->run_until(until); }

  /// Run to quiescence (end-of-run native drain).
  void drain() { run_->engine().run(); }

  /// Earliest future time this machine will have something to tell the
  /// broker: `asap` when reports are already queued, else the earliest of
  /// running grid jobs' (exactly known) completion times and landed jobs'
  /// bounce deadlines; kTimeInfinity when the port is idle.
  SimTime next_report_time(SimTime asap) const;

  /// A batch of routed jobs arrives at `at` (the sender's boundary time
  /// plus the link latency; must be ahead of this machine's clock).  One
  /// timed event per batch — the jobs land together, in span order, and
  /// the arrival triggers a scheduling pass so each job gets its first
  /// start attempt the instant it lands.
  void deliver_batch(SimTime at, std::span<const GridJob> jobs);

  /// Single-job delivery (tests, miniatures): a batch of one.
  void deliver(SimTime at, const GridJob& job) {
    deliver_batch(at, std::span<const GridJob>(&job, 1));
  }

  /// Drain the port's outbound link into `out` (appended): kill reports
  /// queued since the last boundary, completions with end <= now, and
  /// bounces whose patience expired.  Deterministic order (kills in event
  /// order, then completions and bounces in landing order).  One packed
  /// span per (machine, boundary) — the fleet loop reuses a single buffer
  /// across machines and epochs, so a million-job epoch performs no
  /// per-report allocation in steady state.
  void collect_reports(SimTime now, std::vector<PortReport>& out);

  /// Convenience wrapper returning a fresh vector (tests).
  std::vector<PortReport> collect_reports(SimTime now) {
    std::vector<PortReport> out;
    collect_reports(now, out);
    return out;
  }

  // -- routing surface (read by the broker at boundaries) -----------------

  int capacity() const { return machine().total_cpus(); }
  int free_cpus() const { return run_->scheduler().free_cpus(); }
  Seconds runtime_for(cluster::Cycles work) const {
    return machine().spec().runtime_for(work);
  }
  /// Snapshot of the most recent scheduling pass (gate inputs: queue
  /// emptiness and the earliest native start the gate protects).
  const sched::PassContext& last_pass() const {
    return run_->scheduler().last_pass();
  }
  /// Minimum free CPUs over [t, t+dur) per the estimate-based free-CPU
  /// profile — the "current interstice estimate" best-fit routing ranks by.
  int lookahead_min_free(SimTime t, Seconds dur) const;
  /// Planned-downtime check for a candidate start window.
  bool can_run_at(SimTime t, Seconds dur) const {
    return machine().downtime().can_run(t, dur);
  }
  sched::SchedulerProbe probe() const { return run_->scheduler().probe(); }

  // -- results ------------------------------------------------------------

  const PortStats& port_stats() const { return stats_; }
  /// Packed delivery spans received (one timed arrival event each); the
  /// message-batching win is port_stats().delivered / delivery_batches().
  std::size_t delivery_batches() const { return delivery_spans_.size(); }
  /// The machine's counting tracer.  The engine's counts (events drained,
  /// queue gauges) reach it when take_result() runs.
  const trace::Tracer& tracer() const { return tracer_; }
  const core::InterstitialDriver* driver() const { return run_->driver(); }
  const fault::FaultInjector* injector() const { return run_->injector(); }

  /// Collect the run result (requires the machine to have drained).
  sched::RunResult take_result() { return run_->finish(); }

 private:
  /// A delivered job waiting for a pass that can start it.
  struct Landed {
    GridJob job;
    SimTime arrived = 0;
  };
  /// A started grid job; `end` is exact (interstitial runtimes are known),
  /// so completions are detected by a boundary sweep, no callback needed.
  struct RunningGrid {
    workload::JobId local_id = workload::kInvalidJob;
    GridJob job;
    SimTime start = 0;
    SimTime end = 0;
  };
  /// One batched delivery: a packed [begin, begin+count) range of
  /// delivery_jobs_.  kGridArrival events carry an index into this log.
  struct DeliverySpan {
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
  };

  /// Fork constructor (use fork(); `other` is mutated only to freeze its
  /// copy-on-write log prefixes).
  explicit GridMachine(GridMachine& other);

  /// Attach the counting tracer and, in brokered mode, register the port
  /// hooks (post-pass backfill, kill accounting, grid-arrival dispatch)
  /// on the run's scheduler and engine.  Both constructors call it after
  /// the run is built: hooks are identities of a stack, never copied by
  /// the clone ctors, and registering one schedules no event.
  void attach_port();
  void on_arrival(std::uint32_t span_index);
  void on_pass(const sched::PassContext& ctx);
  void on_kill(const sched::JobRecord& victim, sched::KillReason reason);

  std::string name_;
  Seconds bounce_patience_ = 0;
  trace::Tracer tracer_;
  // Declared after the tracer it reports into.  unique_ptr because
  // SimRun::fork returns one (a SimRun is not movable).
  std::unique_ptr<core::SimRun> run_;

  workload::JobId next_local_id_ = 0;
  /// Arrival times of delivery batches still in flight (scheduled, not
  /// yet landed), FIFO since boundaries are monotone.  Keeps the fleet
  /// loop live: an in-flight batch guarantees a boundary at (or after)
  /// its arrival even when everything else is idle.
  std::deque<SimTime> arrivals_;
  std::vector<Landed> landed_;
  std::vector<RunningGrid> running_;
  /// Outbound reports queued mid-slice (kills); drained at boundaries.
  std::vector<PortReport> reports_;
  /// Batched-delivery payloads: jobs in routing order plus the span table
  /// the 32-bit event args index.  Copy-on-write so forks share the
  /// prefix and queued arrival events stay valid across the fork.
  util::CowLog<GridJob> delivery_jobs_;
  util::CowLog<DeliverySpan> delivery_spans_;
  PortStats stats_;
};

}  // namespace istc::grid
