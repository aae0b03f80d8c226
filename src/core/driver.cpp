#include "core/driver.hpp"

#include <algorithm>
#include <cmath>

#include "trace/tracer.hpp"
#include "util/assert.hpp"

namespace istc::core {

InterstitialDriver::InterstitialDriver(sched::BatchScheduler& scheduler,
                                       ProjectSpec spec,
                                       workload::JobId first_job_id)
    : scheduler_(scheduler),
      spec_(spec),
      job_runtime_(spec.runtime_on(scheduler.machine().spec())),
      next_id_(first_job_id) {
  spec_.check();
  scheduler_.set_post_pass_hook(
      [this](const sched::PassContext& ctx) { on_pass(ctx); });
  // Always registered (fault kills can happen regardless of the preemption
  // recovery mode); the hook only observes, so registration is
  // schedule-neutral.
  scheduler_.set_kill_hook(
      [this](const sched::JobRecord& victim, sched::KillReason reason) {
        on_kill(victim, reason);
      });
  // Guarantee a pass at the project start even if no native event lands
  // there (an idle machine would otherwise never wake the driver).
  scheduler_.wake_at(std::max(spec_.start_time, scheduler.engine().now()));
}

InterstitialDriver::InterstitialDriver(sched::BatchScheduler& scheduler,
                                       const InterstitialDriver& other)
    : scheduler_(scheduler),
      spec_(other.spec_),
      job_runtime_(other.job_runtime_),
      next_id_(other.next_id_),
      submitted_(other.submitted_),
      resume_(other.resume_),
      retry_queue_(other.retry_queue_),
      retry_attempts_(other.retry_attempts_) {
  scheduler_.set_post_pass_hook(
      [this](const sched::PassContext& ctx) { on_pass(ctx); });
  scheduler_.set_kill_hook(
      [this](const sched::JobRecord& victim, sched::KillReason reason) {
        on_kill(victim, reason);
      });
}

void InterstitialDriver::on_kill(const sched::JobRecord& victim,
                                 sched::KillReason reason) {
  if (!victim.interstitial()) return;
  if (reason != sched::KillReason::kPreempted) {
    on_fault_kill(victim);
    return;
  }
  switch (spec_.recovery) {
    case PreemptionRecovery::kNone:
      break;
    case PreemptionRecovery::kRestart:
      // The whole job must be redone; reopen one submission slot.
      ISTC_ASSERT(submitted_ > 0);
      --submitted_;
      break;
    case PreemptionRecovery::kCheckpoint: {
      const Seconds remaining = victim.job.runtime - (victim.end - victim.start);
      if (remaining >= 1) {
        resume_.push_back(remaining);
      }
      // Fully-executed victims (killed at the completion instant) count as
      // done; nothing to resubmit.
      break;
    }
  }
}

void InterstitialDriver::on_fault_kill(const sched::JobRecord& victim) {
  const FaultRetryPolicy& policy = spec_.fault_retry;
  const Seconds elapsed = victim.end - victim.start;
  // Work up to the last checkpoint survives the kill; the rest is redone.
  const Seconds saved =
      checkpointed_seconds(elapsed, policy.checkpoint_interval);
  const Seconds remaining = victim.job.runtime - saved;
  const Seconds lost = elapsed - saved;
  int attempts = 0;
  if (const auto it = retry_attempts_.find(victim.job.id);
      it != retry_attempts_.end()) {
    attempts = it->second;
    retry_attempts_.erase(it);
  }
  trace::Tracer* tracer = scheduler_.tracer();
  if (ISTC_TRACE_COUNTERS_ON(tracer)) {
    trace::TraceSummary& c = tracer->counters();
    const auto cpus = static_cast<std::uint64_t>(victim.job.cpus);
    c.fault_cpu_sec_lost += cpus * static_cast<std::uint64_t>(lost);
    c.fault_cpu_sec_recovered += cpus * static_cast<std::uint64_t>(saved);
  }
  if (attempts >= policy.max_retries) {
    if (ISTC_TRACE_COUNTERS_ON(tracer)) {
      ++tracer->counters().fault_retries_exhausted;
    }
    return;  // lineage abandoned (a continual stream refills naturally)
  }
  if (remaining < 1) return;  // killed at the completion instant: done
  const SimTime eligible = victim.end + policy.backoff;
  retry_queue_.push_back(FaultRetry{remaining, attempts + 1, eligible});
  // The backoff expiring is a submission opportunity no other event may
  // land on; on_pass re-arms this every pass while retries wait.
  if (eligible < spec_.stop_time) scheduler_.wake_at(eligible);
}

std::size_t InterstitialDriver::submittable(
    const sched::PassContext& ctx) const {
  const auto& machine = scheduler_.machine();
  std::size_t k = static_cast<std::size_t>(
      ctx.free_cpus / spec_.cpus_per_job);
  std::size_t backlog = resume_.size();
  for (const FaultRetry& r : retry_queue_) {
    if (r.eligible_at > ctx.now) break;  // ordered by eligible_at
    ++backlog;
  }
  if (!spec_.continual()) {
    ISTC_ASSERT(submitted_ <= spec_.total_jobs);
    backlog += spec_.total_jobs - submitted_;
  }
  if (spec_.utilization_cap < 1.0) {
    // Table 8: keep (busy + k*n) / N strictly below the cap.
    const double n = static_cast<double>(machine.total_cpus());
    const double busy = n - static_cast<double>(ctx.free_cpus);
    const double room = spec_.utilization_cap * n - busy;
    const double cap_k = std::floor(room / static_cast<double>(
                                               spec_.cpus_per_job));
    k = std::min(k, static_cast<std::size_t>(std::max(0.0, cap_k)));
  }
  if (!spec_.continual()) k = std::min(k, backlog);
  return k;
}

void InterstitialDriver::on_pass(const sched::PassContext& ctx) {
  if (ctx.now < spec_.start_time || ctx.now >= spec_.stop_time) return;
  if (exhausted() && resume_.empty() && retry_queue_.empty()) return;

  // Figure 1 gating: only when the queue is empty, or when no protected
  // waiting job could start (per estimates) before our jobs would finish.
  // The default protects the whole queue rather than only its head, which
  // keeps freed CPUs flowing to mid-priority waiters when the head is
  // pinned far in the future by overestimated native runtimes.
  bool gate_open = true;
  switch (spec_.gate) {
    case GatePolicy::kQueueProtective:
      gate_open = queue_gate_open(ctx, ctx.now, job_runtime_);
      break;
    case GatePolicy::kHeadOnly:
      gate_open = ctx.queue_empty ||
                  ctx.head_earliest_start - ctx.now > job_runtime_;
      break;
    case GatePolicy::kAlways:
      gate_open = true;
      break;
  }
  const auto& machine = scheduler_.machine();

  // The wall time the gate actually compared against (paper's
  // "backFillWallTime"; the whole-queue variant for the default policy).
  const SimTime wall_time = spec_.gate == GatePolicy::kHeadOnly
                                ? ctx.head_earliest_start
                                : ctx.queue_earliest_start;
  std::size_t started = 0;

  if (gate_open) {
    const std::size_t k = submittable(ctx);
    for (std::size_t i = 0; i < k; ++i) {
      workload::Job job = spec_.make_job(next_id_, ctx.now, machine.spec());
      // Redo work goes out before fresh submissions: checkpointed
      // preemption fragments first, then fault retries whose backoff has
      // expired.  Both run a remainder, never longer than a full job.
      const bool is_fragment = !resume_.empty();
      const bool is_retry =
          !is_fragment && !retry_queue_.empty() &&
          retry_queue_.front().eligible_at <= ctx.now;
      if (is_fragment) {
        job.runtime = resume_.back();
        job.estimate = job.runtime;
      } else if (is_retry) {
        job.runtime = retry_queue_.front().remaining;
        job.estimate = job.runtime;
      }
      if (!scheduler_.try_start_immediately(job)) break;  // downtime ahead
      ++started;
      if (is_fragment) {
        resume_.pop_back();
      } else if (is_retry) {
        retry_attempts_.emplace(job.id, retry_queue_.front().attempts);
        retry_queue_.pop_front();
        if (trace::Tracer* t = scheduler_.tracer();
            ISTC_TRACE_COUNTERS_ON(t)) {
          ++t->counters().fault_retries;
        }
      } else {
        ++submitted_;
      }
      ++next_id_;
    }
  }

  // Every gate evaluation becomes one trace record: verdict, the wall time
  // it compared, and the k it submitted (open) or withheld (closed).
  trace::Tracer* tracer = scheduler_.tracer();
  if (ISTC_TRACE_COUNTERS_ON(tracer)) {
    const std::size_t rejected = gate_open ? 0 : submittable(ctx);
    trace::TraceSummary& c = tracer->counters();
    ++c.gate_decisions;
    ++(gate_open ? c.gate_open : c.gate_closed);
    c.interstitial_submitted += started;
    c.interstitial_rejected_by_gate += rejected;
    if (ISTC_TRACE_EVENTS_ON(tracer)) {
      trace::TraceEvent e;
      e.time = ctx.now;
      e.kind = trace::EventKind::kGateDecision;
      e.open = gate_open;
      e.aux_time = ctx.queue_empty ? kTimeInfinity : wall_time;
      e.value = static_cast<std::int64_t>(gate_open ? started : rejected);
      tracer->record(e);
    }
  }

  // Keep the stream alive across machine-idle stretches: if nothing is
  // running, nothing is offline and nothing is queued, no completion event
  // will retrigger us — wake after the blocking downtime window (the only
  // reason an empty machine refuses an interstitial job).
  if (scheduler_.free_cpus() == machine.total_cpus() && ctx.queue_empty &&
      (!exhausted() || !resume_.empty() || !retry_queue_.empty())) {
    const SimTime wake = machine.downtime().next_clear(ctx.now, job_runtime_);
    if (wake != ctx.now && wake < spec_.stop_time) scheduler_.wake_at(wake);
  }

  // Retries still serving their backoff: re-arm the wake every pass so
  // wake_at's "an earlier wake covers this one" dedup stays sound (each
  // covering pass lands here and re-arms until the backoff expires).
  if (!retry_queue_.empty() && retry_queue_.front().eligible_at > ctx.now &&
      retry_queue_.front().eligible_at < spec_.stop_time) {
    scheduler_.wake_at(retry_queue_.front().eligible_at);
  }
}

}  // namespace istc::core
