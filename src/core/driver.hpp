#pragma once

#include <cstddef>
#include <deque>
#include <unordered_map>
#include <vector>

#include "core/project.hpp"
#include "sched/scheduler.hpp"

/// \file driver.hpp
/// The interstitial submission engine — the paper's Figure 1:
///
///   (native head-of-queue dispatch and backfill happen first)
///   nInterstitialJobs = floor(nodesAvailable / interstitialJobSize)
///   if (jobsInQueue == 0)                          submit(nInterstitialJobs)
///   else if (backFillWallTime > interstitialRuntime) submit(nInterstitialJobs)
///
/// The driver runs as the scheduler's post-pass hook, i.e. whenever the
/// system checks for new jobs: on submissions, completions, and timer
/// wake-ups.  Interstitial jobs are "meta-backfilled" directly onto free
/// CPUs, never entering the native queue, and never start when their
/// (exactly known) runtime would cross a downtime window.

namespace istc::core {

/// The Figure 1 gate over the whole waiting queue
/// (GatePolicy::kQueueProtective): an interstitial job of `runtime` may
/// start at `t` when no native is waiting, or when no waiter could (per
/// estimates) start before the job would finish.  `pass` is the latest
/// scheduling pass; the grid broker evaluates it remotely at a job's
/// arrival time, the driver and grid port at the pass itself.
inline bool queue_gate_open(const sched::PassContext& pass, SimTime t,
                            Seconds runtime) {
  return pass.queue_empty || pass.queue_earliest_start - t > runtime;
}

/// Seconds of a killed job's `elapsed` run that survive the kill: work up
/// to the last multiple of the checkpoint `interval` (0 = none survives).
inline Seconds checkpointed_seconds(Seconds elapsed, Seconds interval) {
  return interval > 0 ? (elapsed / interval) * interval : 0;
}

class InterstitialDriver {
 public:
  /// \param scheduler the native scheduler to attach to (registers the
  ///        post-pass hook; one driver per scheduler).
  /// \param spec the project / stream to run.
  /// \param first_job_id ids for interstitial jobs count up from here
  ///        (callers pass the native log size to keep ids unique).
  InterstitialDriver(sched::BatchScheduler& scheduler, ProjectSpec spec,
                     workload::JobId first_job_id);

  /// Run-fork clone: copy `other`'s mid-run submission state and attach to
  /// `scheduler` (the forked scheduler; registers the post-pass and kill
  /// hooks there).  Unlike the primary constructor this schedules no
  /// initial wake — the forked engine's queue already holds every wake the
  /// source had armed.
  InterstitialDriver(sched::BatchScheduler& scheduler,
                     const InterstitialDriver& other);

  InterstitialDriver(const InterstitialDriver&) = delete;
  InterstitialDriver& operator=(const InterstitialDriver&) = delete;

  std::size_t submitted() const { return submitted_; }

  /// All project jobs have been *submitted* (always false for continual
  /// streams before stop_time).
  bool exhausted() const {
    return !spec_.continual() && submitted_ >= spec_.total_jobs;
  }

  const ProjectSpec& spec() const { return spec_; }
  Seconds job_runtime() const { return job_runtime_; }

  /// Sweep support: swap the fault-retry policy (max retries, backoff,
  /// checkpoint cadence) mid-run.  The policy is only consulted when a
  /// fault kill is handled, so setting it on a freshly forked run whose
  /// fault window lies entirely ahead is exactly equivalent to having
  /// constructed the driver with it (the fork determinism gate in
  /// bench/extension_faults.cpp checks that equivalence every run).
  void set_fault_retry(const FaultRetryPolicy& policy) {
    spec_.fault_retry = policy;
  }

  /// Sweep support: swap the instantaneous utilization cap (Table 8's
  /// limited mode) mid-run.  The cap is consulted per pass when sizing the
  /// next submission burst, so setting it on a freshly forked run caps the
  /// stream from the fork point on — the windowed-cap semantics the
  /// fork-tree cap sweep measures (bench/sweep_forks.cpp, gate 1), with the
  /// fork==scratch gate pinning that a scratch run receiving the same cap
  /// at the same instant behaves bit-identically.
  void set_utilization_cap(double cap) {
    ISTC_EXPECTS(cap > 0 && cap <= 1.0);
    spec_.utilization_cap = cap;
  }

  /// What-if service support: cut the stream's submission window short (or
  /// extend it) mid-run.  Like the cap, stop_time is consulted per pass
  /// when sizing the next burst, so setting it on a freshly forked run
  /// stops the stream from the fork point on — which is what lets a query
  /// fork of a continual (stop = infinity) baseline drain: the speculative
  /// run's stream ends at the query horizon while the live baseline keeps
  /// flowing.  Already-running jobs are unaffected.
  void set_stop_time(SimTime stop) { spec_.stop_time = stop; }

  /// Redo work still owed: checkpointed preemption fragments
  /// (PreemptionRecovery) and fault retries waiting out their backoff
  /// (ProjectSpec::fault_retry).  What kills and retries cost is counted
  /// in the tracer's TraceSummary (interstitial_killed, fault_*).
  std::size_t resume_fragments_pending() const { return resume_.size(); }
  std::size_t fault_retries_pending() const { return retry_queue_.size(); }

 private:
  /// A fault-killed job waiting to be resubmitted: the runtime still owed
  /// (post-checkpoint remainder), the retries its lineage has consumed,
  /// and the earliest submission time (kill time + backoff).
  struct FaultRetry {
    Seconds remaining = 0;
    int attempts = 0;
    SimTime eligible_at = 0;
  };

  void on_pass(const sched::PassContext& ctx);
  void on_kill(const sched::JobRecord& victim, sched::KillReason reason);

  /// Handle a fault kill per spec_.fault_retry: charge lost/recovered
  /// work, then requeue the remainder or abandon the lineage.
  void on_fault_kill(const sched::JobRecord& victim);

  /// floor(free/size) clamped by the utilization cap and remaining jobs.
  std::size_t submittable(const sched::PassContext& ctx) const;

  sched::BatchScheduler& scheduler_;
  ProjectSpec spec_;
  Seconds job_runtime_;
  workload::JobId next_id_;
  std::size_t submitted_ = 0;
  /// Remaining runtimes of checkpointed victims awaiting resubmission.
  std::vector<Seconds> resume_;
  /// Fault-killed jobs awaiting retry, ordered by eligible_at (kills
  /// arrive in simulation-time order and the backoff is constant).
  std::deque<FaultRetry> retry_queue_;
  /// Retries consumed by each currently *running* retry job, keyed by the
  /// id it ran under; consulted (and erased) if that job is killed again.
  std::unordered_map<workload::JobId, int> retry_attempts_;
};

}  // namespace istc::core
