#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "cluster/machine.hpp"
#include "sched/fairshare.hpp"
#include "sched/job_store.hpp"
#include "sched/record.hpp"
#include "sched/resource_profile.hpp"
#include "sched/timeofday.hpp"
#include "sim/engine.hpp"
#include "trace/tracer.hpp"
#include "util/cow_log.hpp"
#include "workload/job.hpp"

/// \file scheduler.hpp
/// The space-shared batch scheduler: priority queue + backfill, the
/// simulator's stand-in for PBS / LSF / DPCS.
///
/// One scheduling pass runs per distinct event timestamp (engine quiescent
/// hook).  The pass runs four stages in fixed order: priorities are
/// re-established (dynamic re-prioritization), jobs start in priority
/// order, blocked jobs backfill under the selected policy, and the
/// post-pass gate hands control to the interstitial driver.  The scheduler
/// only ever consults *estimated* runtimes — exactly the information a
/// real resource manager has — which is what lets fallible interstitial
/// submission disturb native jobs (paper §4.3).
///
/// The future free-CPU ResourceProfile is pass-persistent: job starts,
/// finishes, and kills apply incremental deltas and each pass merely
/// advances the origin, instead of rebuilding the profile from every
/// running job.  Blocked-job reservations never touch it: a pass's first
/// reservation copies it into a pass-local plan, which the rest of the
/// pass queries and reserves on.  A pass whose inputs provably did not
/// change since the last full pass replays that pass's verdicts instead
/// of walking the queue.  Build with -DISTC_PARANOID=ON to cross-check the
/// incremental profile against a rebuild from the running jobs at every
/// pass, and every replayed pass against a full walk.
///
/// Live jobs (waiting / running / killed-awaiting-stale-finish) live in a
/// structure-of-arrays JobStore (job_store.hpp); the queue is a vector of
/// slot numbers, finish events carry the slot, and every "walk the running
/// jobs" loop (victim selection, profile rebuild) scans parallel arrays.

namespace istc::sched {

enum class BackfillMode : std::uint8_t {
  /// EASY: only the highest-priority blocked job holds a reservation.
  kEasy,
  /// Conservative: every blocked job holds a reservation (Ross/PBS's
  /// "more restrictive" backfill, paper §4.3.2.1).
  kConservative,
  /// No backfill at all: strict priority order, nothing may overtake a
  /// blocked job.  Not used by any site preset — it exists as the ablation
  /// baseline showing why backfill matters to interstitial computing.
  kNone,
};

struct PolicySpec {
  std::string name = "easy-equal";
  BackfillMode backfill = BackfillMode::kEasy;
  FairShareConfig fairshare;
  MaybeTimeOfDayRule time_of_day;
  /// Extension beyond the paper (its jobs are strictly non-preemptive):
  /// when a native job cannot start, kill just enough *interstitial* jobs
  /// (youngest first — least work lost) to start it immediately.  Native
  /// impact collapses to ~zero; the price is the killed jobs' wasted
  /// cycles, reported via RunResult::killed.
  bool preempt_interstitial = false;
};

/// Snapshot handed to the post-pass hook (the interstitial driver).
struct PassContext {
  SimTime now = 0;
  /// Free CPUs after every startable native job has started.
  int free_cpus = 0;
  /// True when no native job is waiting.
  bool queue_empty = true;
  /// Earliest (estimate-based) start of the highest-priority waiting job;
  /// the paper's "backfillWallTime".  kTimeInfinity when queue_empty.
  SimTime head_earliest_start = kTimeInfinity;
  /// Minimum earliest start over *all* waiting jobs.  The interstitial
  /// driver gates on this: protecting only the head livelocks mid-size
  /// waiters when the head is pinned far away by overestimated runtimes
  /// (scavenged CPUs would be re-taken the instant they free).
  SimTime queue_earliest_start = kTimeInfinity;
};

/// Cheap counters exposed for diagnostics, tests, and the micro benches.
/// What a counting tracer's TraceSummary records (passes, reservations,
/// kills, priority recomputes and reuses) is counted there only.
struct SchedulerStats {
  std::uint64_t native_starts = 0;
  std::uint64_t interstitial_starts = 0;
  /// Native jobs started while a higher-priority job stayed blocked in the
  /// same pass — i.e. genuine backfill starts.
  std::uint64_t backfilled_starts = 0;
  std::uint64_t wakeups = 0;
  /// Passes that replayed the last full pass's verdicts instead of
  /// walking the queue (see BatchScheduler::replay()).
  std::uint64_t replayed_passes = 0;
};

/// Instantaneous scheduler state as seen by the metrics sampler.  Every
/// field is sim-time derived, so equal-seed runs probe identical values.
/// CPU accounting satisfies busy_native_cpus + busy_interstitial_cpus +
/// free_cpus + offline_cpus == machine capacity at every instant by
/// construction: BatchScheduler::free_cpus is capacity minus the other
/// three.
struct SchedulerProbe {
  SimTime now = 0;
  int busy_native_cpus = 0;         ///< CPUs held by running native jobs
  int busy_interstitial_cpus = 0;   ///< CPUs held by running interstitials
  int free_cpus = 0;                ///< idle, allocatable CPUs
  int offline_cpus = 0;             ///< CPUs down from unplanned failures
  std::size_t queue_native = 0;     ///< waiting native jobs
  std::size_t running_native = 0;
  std::size_t running_interstitial = 0;
  /// Seconds until the head waiting job's earliest (estimate-based) start —
  /// the paper's backfill wall time, from the most recent pass; -1 when no
  /// job is blocked.
  Seconds head_backfill_wall = -1;
  /// Free CPUs per the free-CPU profile at `now` — the current interstice
  /// width in the estimated schedule (equals free_cpus between passes).
  int interstice_cpus = 0;
  /// Seconds until the free-CPU profile next changes value (how long the
  /// current interstice holds, per estimates); -1 when constant forever.
  Seconds interstice_hold = -1;
  /// Breakpoints in the free-CPU profile (scheduling-state complexity).
  std::size_t profile_steps = 0;
  /// Cumulative busy CPU-seconds by class, projected to `now`.  Exact
  /// integers; per-interval deltas reproduce metrics::utilization_series
  /// numerators for kill-free runs.
  std::uint64_t native_cpu_sec = 0;
  std::uint64_t interstitial_cpu_sec = 0;
};

class BatchScheduler : private sim::JobEventSink {
 public:
  BatchScheduler(sim::Engine& engine, cluster::Machine machine,
                 PolicySpec policy);

  /// Run-fork clone: become a mid-run copy of `other`, attached to
  /// `engine` (which must already hold a copy of the source engine's
  /// state; see sim::Engine::adopt_state and core::SimRun).  The big
  /// append-only logs (submission table, completed records) are shared
  /// copy-on-write — `other` is non-const only to freeze them.  Hooks and
  /// the tracer are NOT copied: they are identities of the forked stack,
  /// which re-registers its own.
  BatchScheduler(sim::Engine& engine, BatchScheduler& other);

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Schedule arrival events for every job in the log.  Pre-reserves the
  /// engine's event queue for all submissions, so loading a multi-month
  /// log performs one allocation instead of a growth cascade.
  void load(const workload::JobLog& log);

  /// Submit one job at its submit time (must be >= engine.now()).  The
  /// arrival is a typed event carrying an index into the submission table,
  /// not a job-capturing closure.
  void submit(const workload::Job& job);

  /// Hook invoked after each native scheduling pass; the interstitial
  /// driver lives here.  At most one hook.
  void set_post_pass_hook(std::function<void(const PassContext&)> hook);

  /// Hook invoked just before a job's CPUs are allocated, with the free-CPU
  /// count at that instant (the interstice width an interstitial dispatch
  /// landed in).  Purely observational — it must not touch the scheduler.
  /// At most one hook; metrics::RunMetrics installs it.
  void set_start_hook(std::function<void(const workload::Job&, int)> hook) {
    on_start_ = std::move(hook);
  }

  /// Hook invoked whenever a running job is killed before completion —
  /// preemption or an unplanned failure; the record's end is the kill time
  /// and the reason says which path killed it.  The driver uses it for
  /// retry / checkpoint-restart accounting.  At most one hook; it fires
  /// exactly once per entry appended to RunResult::killed.
  void set_kill_hook(std::function<void(const JobRecord&, KillReason)> hook);

  /// Start a job right now, bypassing the queue (interstitial path).
  /// Returns false if it does not fit (space, downtime, or time-of-day).
  bool try_start_immediately(const workload::Job& job);

  /// Unplanned failure (fault::FaultInjector): take `cpus` CPUs offline
  /// until `until`, killing running jobs youngest-first — natives and
  /// interstitials alike, a crash spares nobody — when the free pool is
  /// short.  Kill records (end = kill time) land in RunResult::killed, the
  /// kill hook fires per victim with `reason`, and the returned copies let
  /// the injector requeue natives.  The free-CPU profile sees the capacity
  /// loss immediately; repair is self-scheduled and restores the CPUs at
  /// `until`.  The requested width is clamped to the capacity still up, so
  /// overlapping failures compose.
  std::vector<JobRecord> fail_capacity(int cpus, SimTime until,
                                       KillReason reason);

  /// CPUs currently held offline by unplanned failures.
  int failed_cpus() const { return failed_cpus_; }

  /// Idle, allocatable CPUs: capacity minus the CPUs running jobs hold and
  /// those failures hold offline.  The scheduler's busy counters are the
  /// run's only CPU tally.
  int free_cpus() const {
    return machine_.total_cpus() - busy_native_cpus_ -
           busy_interstitial_cpus_ - failed_cpus_;
  }

  /// Wake the scheduler at time t (schedules a no-op event; passes run
  /// after every event timestamp).  Deduplicated: if a wake is already
  /// queued in (now, t], that pass re-evaluates and re-arms as needed, so
  /// no new event is scheduled.
  void wake_at(SimTime t);

  /// Attach a tracer (nullptr detaches): job lifecycle, reservations, and
  /// pass cost flow into it, and the downtime calendar is recorded once up
  /// front.  The engine's counts (sim::EngineStats, events processed) are
  /// folded into the tracer's counters when take_result runs and when
  /// this call swaps the tracer out; drained events and timesteps cover
  /// only the attached window, and gauges fold by max.  Tracing observes
  /// the schedule, never perturbs it.
  void set_tracer(trace::Tracer* tracer);
  trace::Tracer* tracer() const { return tracer_; }

  const cluster::Machine& machine() const { return machine_; }
  const PolicySpec& policy() const { return policy_; }
  sim::Engine& engine() { return engine_; }

  std::size_t running_count() const {
    return running_native_ + running_interstitial_;
  }
  std::size_t completed_count() const { return records_.size(); }

  /// Mid-run view of the completed-job log (completion order).  take_result
  /// moves the records out; this accessor lets a live observer — the
  /// what-if service hashing its baseline frontier — read them while the
  /// run is still in flight.
  const util::CowLog<JobRecord>& completed_records() const { return records_; }
  /// Mid-run view of the kill log (preemptions and faults, kill order).
  const std::vector<JobRecord>& killed_records() const {
    return killed_records_;
  }

  /// The structure-of-arrays job storage (diagnostics / tests).
  const JobStore& store() const { return store_; }
  const SchedulerStats& stats() const { return stats_; }

  /// The pass-persistent future free-CPU profile.  It describes running
  /// jobs and capacity outages only (reservations go on a pass-local plan).
  const ResourceProfile& profile() const { return profile_; }

  /// From-scratch profile at `now`: capacity minus every running job's
  /// estimated remainder and every open capacity outage.  The reference
  /// the incremental profile must equal between passes — checked every
  /// pass under ISTC_PARANOID, and by tests from the post-pass hook.
  ResourceProfile rebuild_profile(SimTime now) const;

  /// Snapshot from the most recent completed scheduling pass (zero-valued
  /// before the first pass).  Cached by the gate stage whether or not a
  /// post-pass hook is installed.
  const PassContext& last_pass() const { return last_pass_; }

  /// Instantaneous state probe for the metrics sampler; see SchedulerProbe.
  SchedulerProbe probe() const;

  /// Collect results; requires the simulation to have drained (no pending
  /// or running jobs).  Folds the engine's counts into the attached
  /// tracer first, so RunResult::trace and the tracer agree.
  RunResult take_result(SimTime span);

 private:
  // -- sim::JobEventSink (typed event dispatch) ---------------------------
  /// A submission event fired: move submission_table_[index] into the
  /// pending queue.
  void job_submit(std::uint32_t index) override;
  /// A job-finish event fired: the typed replacement for the old
  /// completion lambda; carries the job-store slot.
  void job_finish(std::uint32_t slot) override;
  /// A capacity-repair event fired: give the outage's CPUs back (the
  /// matching profile reservation expires at the same instant).
  void capacity_repair(std::uint32_t outage_id) override;

  /// Capacity held offline by an unplanned failure until its repair time;
  /// rebuild_profile must re-reserve these (they are not running jobs).
  /// The id travels in the typed kCapacityRepair event, which erases the
  /// entry when the repair fires.
  struct CapacityOutage {
    std::uint32_t id = 0;
    int cpus = 0;
    SimTime until = 0;
  };

  /// Mutable state one scheduling pass threads through its stages.  Reset
  /// per pass; vectors keep their capacity so a pass allocates nothing in
  /// steady state.
  struct PassState {
    SimTime now = 0;
    /// Indices into pending_, in priority order (prioritize() output; the
    /// identity permutation when the cached order is still valid).
    std::vector<std::size_t> order;
    /// True when prioritize() reused the cached order.
    bool order_reused = false;
    /// started[i] marks pending_[i] as started this pass (gate() drops it).
    std::vector<char> started;
    /// True once a job could not start now; set by dispatch().
    bool saw_blocked = false;
    /// True once backfill() started a job behind the blocked head.
    bool backfilled = false;
    /// Position in `order` where dispatch() stopped; backfill() resumes
    /// there.
    std::size_t resume_pos = 0;
    /// Earliest (estimate-based) start of the blocked head / of any waiter.
    SimTime head_earliest = kTimeInfinity;
    SimTime queue_earliest = kTimeInfinity;

    void reset(SimTime t, std::size_t queue_len) {
      now = t;
      order.resize(queue_len);
      started.assign(queue_len, 0);
      order_reused = false;
      saw_blocked = false;
      backfilled = false;
      resume_pos = 0;
      head_earliest = kTimeInfinity;
      queue_earliest = kTimeInfinity;
    }
  };

  /// The scheduling pass (engine quiescent hook): advance the profile's
  /// origin to now, then run the four stages below in order, with replay()
  /// standing in for dispatch() and backfill() when it applies.  With a
  /// tracer attached, one chain of clock reads times the setup and each
  /// stage into its TraceSummary.
  void pass(SimTime now);

  /// Stage 1: recompute fair-share priorities and sort the queue, or prove
  /// nothing changed (same fair-share ledger epoch, no new submissions)
  /// and reuse the order left by the previous pass.  Reuse is exact, not
  /// approximate: between charges every principal's deficit is constant
  /// and queue aging shifts all priorities by the same amount, so the
  /// relative order cannot change (see FairShareTracker::epoch).
  void prioritize();

  /// Stage 2: start jobs in priority order until the first one that cannot
  /// start now; that head job receives the pass's reservation (its shadow
  /// time).  With preemption enabled, a blocked native may evict
  /// interstitial jobs first.
  void dispatch();

  /// Stage 3: walk the jobs behind the blocked head under the configured
  /// discipline: EASY lets them start wherever the head's reservation
  /// leaves room, conservative adds a reservation per blocked job, none
  /// (the ablation baseline) starts nothing but still computes earliest
  /// starts for the interstitial gate.
  void backfill();

  /// Stage 4: drop the pass's plan, drop started jobs from the queue
  /// keeping it in priority order, guarantee a future pass at the head's
  /// earliest start, note whether the next pass may replay this one, and
  /// hand the PassContext to the post-pass hook (the interstitial driver).
  void gate();

  /// True when this pass may replay the last full pass's verdicts: the
  /// cached priority order held (no submission, no fair-share charge),
  /// replay_ok_ says every profile change since only removed capacity
  /// before the queue's earliest start M, and now < M.
  bool replayable() const;

  /// Stages 2 and 3 of a pass whose inputs did not change: no waiter can
  /// start, and each keeps the earliest start the last full pass gave it
  /// (DESIGN.md §5 has the exactness argument).  Does the full pass's
  /// bookkeeping (scan and reservation counts, kReservationMade events at
  /// the times held in reserved_start_) without one earliest_start.
  void replay();

#ifdef ISTC_PARANOID
  /// Re-derive a replayed pass's verdicts with a full walk on a copy of
  /// the profile and assert they match.
  void check_replay() const;
#endif

  /// The profile a pass queries: its plan once a reservation made one,
  /// else the live profile.
  const ResourceProfile& plan() const { return plan_live_ ? plan_ : profile_; }

  /// Handle one queued job within the dispatch/backfill walk; shared by
  /// dispatch() and backfill().  Returns true when the job started;
  /// otherwise earliest_out holds its earliest (estimate-based) start.
  bool try_dispatch(std::uint32_t slot, SimTime now, bool may_start,
                    SimTime& earliest_out);

  /// Blocked-job reservation: reserve [t, t+estimate) on the pass's plan
  /// (the first one copies the live profile into it), count it, and record
  /// the reservation event (head job always; every blocked job under
  /// conservative backfill).
  void make_reservation(std::uint32_t slot, SimTime t);

  /// Do the downtime calendar and the time-of-day rule let `job` start at
  /// t?  The start constraints other than space, shared by the immediate
  /// interstitial path and the preemption check.
  bool calendar_allows(const workload::Job& job, SimTime t) const;

  /// Preemption (policy.preempt_interstitial): can `job` start now if we
  /// killed every running interstitial job?  (space, downtime, gating).
  bool could_start_with_kills(const workload::Job& job, SimTime now) const;

  /// Kill youngest-first interstitial jobs, releasing them from the
  /// profile, until `job` fits at `now` per the pass's plan; returns false
  /// (killing nothing further helps) if the fit never materializes.
  bool preempt_for(const workload::Job& job, SimTime now);

  /// Fill victim_buf_ with the running jobs' slots (interstitials only,
  /// or every class), youngest first: start descending, then id
  /// descending, so kill order is independent of storage order.
  void collect_victims(bool interstitial_only);

  /// Kill one running job: release its CPUs and profile remainder (on the
  /// plan too while one is live), append the kill record, park the slot as
  /// a zombie for its stale completion event, and fire the kill hook.
  /// Shared by preemption and fail_capacity.
  void kill_running_job(std::uint32_t slot, KillReason reason);

  /// Allocate CPUs, apply the profile delta (to the plan too while one is
  /// live), schedule completion.  The slot must be kPending (queued, or
  /// freshly acquired by the immediate interstitial path).
  void start_job(std::uint32_t slot, SimTime now);

  /// Accumulate busy-CPU integrals up to `now` (lazy: called at every
  /// start/complete/kill, i.e. whenever a busy count is about to change).
  void advance_busy_integrals(SimTime now);

  /// Add the engine's drained events and timesteps since the last fold
  /// (or attach) to the tracer's counters, max-merge its gauges, and
  /// restart the window.  Requires a tracer.
  void fold_engine_counters();

  /// Record a job-lifecycle trace event (no-op without a full tracer).
  void trace_job(trace::EventKind kind, const workload::Job& job,
                 std::int64_t value = 0, SimTime aux_time = 0);

  void complete_job(std::uint32_t slot, SimTime now);

  /// Earliest start >= from satisfying profile space, downtime drain, and
  /// time-of-day gating, all per the *estimate*: the fixed point of the
  /// three constraints' "earliest feasible start at or after t" answers.
  SimTime earliest_start(const ResourceProfile& profile,
                         const workload::Job& job, SimTime from) const;

  sim::Engine& engine_;
  cluster::Machine machine_;
  PolicySpec policy_;
  FairShareTracker fairshare_;

  /// Submitted-but-not-yet-arrived jobs, indexed by the 32-bit argument of
  /// their kJobSubmit event.  Grows monotonically (the log is finite);
  /// keeping entries after arrival keeps indices stable — including across
  /// fork boundaries, which is why this is a CowLog: forks share its
  /// frozen chunks instead of copying the whole native log.
  util::CowLog<workload::Job> submission_table_;

  /// SoA storage for every live job (pending / running / zombie); finish
  /// events and the queue below refer to its slots.
  JobStore store_;

  /// Waiting native jobs as job-store slots.  After every pass this is in
  /// priority order (gate() compacts along the sorted walk), which is
  /// what lets prioritize() reuse the order when nothing changed.
  std::vector<std::uint32_t> pending_;
  /// Completed-job records; copy-on-write so a fork late in a run shares
  /// the (large) history's chunks instead of duplicating it.
  util::CowLog<JobRecord> records_;
  std::vector<JobRecord> killed_records_;
  std::function<void(const PassContext&)> post_pass_;
  std::function<void(const JobRecord&, KillReason)> on_kill_;
  std::function<void(const workload::Job&, int)> on_start_;
  SchedulerStats stats_;

  // -- live utilization accounting (SchedulerProbe) ------------------------
  // Busy CPUs by class plus lazily advanced cumulative busy integrals;
  // the integral at time T is invariant to same-instant event ordering,
  // which is what makes sampled series deterministic.
  int busy_native_cpus_ = 0;
  int busy_interstitial_cpus_ = 0;
  std::size_t running_native_ = 0;
  std::size_t running_interstitial_ = 0;
  std::uint64_t native_cpu_sec_ = 0;
  std::uint64_t interstitial_cpu_sec_ = 0;
  SimTime busy_integral_at_ = 0;
  /// Snapshot of the most recent pass (see last_pass()).
  PassContext last_pass_;
  trace::Tracer* tracer_ = nullptr;
  /// Engine counts at the last fold or attach; see fold_engine_counters.
  std::uint64_t events_folded_ = 0;
  std::uint64_t timesteps_folded_ = 0;
  /// Reservation each waiting job last held, by job-store slot
  /// (kTimeInfinity: none), scored honored/violated when the job starts.
  /// Filled whenever a tracer is attached; a waiting slot is released only
  /// after its job starts, which clears the entry, so a recycled slot
  /// never inherits one.
  std::vector<SimTime> reserved_start_;

  // -- pass state ----------------------------------------------------------
  PassState pass_state_;
  /// Pass-persistent future free-CPU profile: running jobs' estimated
  /// remainders and open capacity outages, never a reservation.
  ResourceProfile profile_;
  /// Pass-local plan: a copy of profile_ plus this pass's reservations,
  /// live from the pass's first reservation until gate().  A member so its
  /// storage is reused from pass to pass.
  ResourceProfile plan_;
  bool plan_live_ = false;
  /// True while last_pass_'s head and queue earliest starts (H, M) came
  /// from a full pass that ended with a blocked waiter and no backfill
  /// start, and every profile change since only removed capacity on an
  /// interval ending at or before M.  Any release, a later-ending
  /// decrease, or set_tracer clears it.
  bool replay_ok_ = false;
#ifdef ISTC_PARANOID
  /// The reservation times of the last full pass, in walk order, for
  /// check_replay().
  std::vector<SimTime> verdict_reserved_;
#endif
  /// Priority cache: valid while the fair-share ledger epoch matches and
  /// no job entered the queue since the last sort.
  std::vector<double> prio_;
  std::uint64_t prio_epoch_ = 0;
  /// Scratch for prioritize(): the deficit of each (user, group) principal
  /// in the current recompute, open-addressed by user << 16 | group.
  struct DeficitSlot {
    std::uint64_t stamp = 0;  ///< the recompute that filled the slot
    std::uint32_t key = 0;
    double deficit = 0.0;
  };
  std::vector<DeficitSlot> deficit_memo_;
  std::uint64_t memo_stamp_ = 0;
  bool pending_dirty_ = true;
  bool order_cached_ = false;
  /// Scratch for gate()'s in-order queue compaction.
  std::vector<std::uint32_t> compact_buf_;
  /// Scratch for collect_victims (preempt_for / fail_capacity).
  std::vector<std::uint32_t> victim_buf_;

  /// Future wake timestamps with a queued engine event, pruned each pass;
  /// wake_at dedups against the earliest of these.
  std::set<SimTime> queued_wakes_;
  bool in_pass_ = false;

  /// Unrepaired fail_capacity outages (usually zero or one entry).
  std::vector<CapacityOutage> outages_;
  std::uint32_t next_outage_id_ = 0;
  int failed_cpus_ = 0;
};

}  // namespace istc::sched
