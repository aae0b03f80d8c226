#include "sched/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <numeric>

#include "util/assert.hpp"

namespace istc::sched {

BatchScheduler::BatchScheduler(sim::Engine& engine, cluster::Machine machine,
                               PolicySpec policy)
    : engine_(engine),
      machine_(std::move(machine)),
      policy_(std::move(policy)),
      fairshare_(policy_.fairshare),
      profile_(engine_.now(), machine_.total_cpus()),
      plan_(engine_.now(), machine_.total_cpus()) {
  busy_integral_at_ = engine_.now();
  engine_.set_job_sink(this);
  engine_.on_quiescent([this](SimTime now) { pass(now); });
}

BatchScheduler::BatchScheduler(sim::Engine& engine, BatchScheduler& other)
    : engine_(engine),
      machine_(other.machine_),
      policy_(other.policy_),
      fairshare_(other.fairshare_),
      store_(other.store_),
      pending_(other.pending_),
      killed_records_(other.killed_records_),
      stats_(other.stats_),
      busy_native_cpus_(other.busy_native_cpus_),
      busy_interstitial_cpus_(other.busy_interstitial_cpus_),
      running_native_(other.running_native_),
      running_interstitial_(other.running_interstitial_),
      native_cpu_sec_(other.native_cpu_sec_),
      interstitial_cpu_sec_(other.interstitial_cpu_sec_),
      busy_integral_at_(other.busy_integral_at_),
      last_pass_(other.last_pass_),
      reserved_start_(other.reserved_start_),
      profile_(other.profile_),
      plan_(engine_.now(), machine_.total_cpus()),
      replay_ok_(other.replay_ok_),
#ifdef ISTC_PARANOID
      verdict_reserved_(other.verdict_reserved_),
#endif
      prio_(other.prio_),
      prio_epoch_(other.prio_epoch_),
      pending_dirty_(other.pending_dirty_),
      order_cached_(other.order_cached_),
      queued_wakes_(other.queued_wakes_),
      outages_(other.outages_),
      next_outage_id_(other.next_outage_id_),
      failed_cpus_(other.failed_cpus_) {
  ISTC_EXPECTS(!other.in_pass_);
  // The big append-only logs travel copy-on-write: freeze the source's
  // logs into shared chunks, then share them.
  other.submission_table_.freeze();
  other.records_.freeze();
  submission_table_ = other.submission_table_;
  records_ = other.records_;
  engine_.set_job_sink(this);
  engine_.on_quiescent([this](SimTime now) { pass(now); });
}

void BatchScheduler::load(const workload::JobLog& log) {
  // One reservation sizes the event queue's sorted window for the arrival
  // burst; its calendar buckets warm up on first contact.
  engine_.reserve_events(log.size());
  submission_table_.reserve_extra(log.size());
  for (const auto& job : log.jobs()) submit(job);
}

void BatchScheduler::submit(const workload::Job& job) {
  job.check();
  ISTC_EXPECTS(job.cpus <= machine_.total_cpus());
  ISTC_EXPECTS(job.submit >= engine_.now());
  const auto index = static_cast<std::uint32_t>(submission_table_.size());
  submission_table_.push_back(job);
  engine_.schedule_job_submit(job.submit, index);
}

void BatchScheduler::job_submit(std::uint32_t index) {
  const workload::Job& job = submission_table_[index];
  trace_job(trace::EventKind::kJobSubmit, job, job.estimate);
  pending_.push_back(store_.acquire(job));
  pending_dirty_ = true;  // cached priority order no longer covers it
}

void BatchScheduler::job_finish(std::uint32_t slot) {
  complete_job(slot, engine_.now());
}

void BatchScheduler::set_tracer(trace::Tracer* tracer) {
  if (tracer_ != nullptr) fold_engine_counters();
  tracer_ = tracer;
  events_folded_ = engine_.events_processed();
  timesteps_folded_ = engine_.stats().timesteps;
  // A replay emits reservation events from reserved_start_, which only an
  // attached tracer fills: the next pass must walk the queue.
  replay_ok_ = false;
  if (!ISTC_TRACE_EVENTS_ON(tracer_)) return;
  // The outage calendar is static; record it once so every exporter can
  // draw the windows without consulting the cluster model.
  for (const auto& w : machine_.downtime().windows()) {
    trace::TraceEvent begin;
    begin.time = w.start;
    begin.kind = trace::EventKind::kDowntimeBegin;
    begin.aux_time = w.end;
    tracer_->record(begin);
    trace::TraceEvent end;
    end.time = w.end;
    end.kind = trace::EventKind::kDowntimeEnd;
    end.aux_time = w.start;
    tracer_->record(end);
  }
}

void BatchScheduler::fold_engine_counters() {
  const sim::EngineStats& e = engine_.stats();
  trace::TraceSummary& c = tracer_->counters();
  c.engine_events_drained += engine_.events_processed() - events_folded_;
  c.engine_timesteps += e.timesteps - timesteps_folded_;
  events_folded_ = engine_.events_processed();
  timesteps_folded_ = e.timesteps;
  // Gauges, not increments: a tracer shared by several runs reports the
  // largest value seen.
  const auto gauge = [](std::uint64_t& into, std::uint64_t value) {
    into = std::max(into, value);
  };
  const auto scheduled = [&e](sim::EventType type) {
    return e.scheduled_by_type[static_cast<int>(type)];
  };
  gauge(c.engine_peak_queue_depth, e.peak_queue_depth);
  gauge(c.engine_max_timestep_batch, e.max_timestep_batch);
  gauge(c.engine_heap_allocations, e.heap_allocations);
  gauge(c.engine_events_job_submit, scheduled(sim::EventType::kJobSubmit));
  gauge(c.engine_events_job_finish, scheduled(sim::EventType::kJobFinish));
  gauge(c.engine_events_wake, scheduled(sim::EventType::kSchedulerWake));
  gauge(c.engine_events_sample, scheduled(sim::EventType::kSample));
  gauge(c.engine_events_repair, scheduled(sim::EventType::kCapacityRepair));
  gauge(c.engine_events_fault, scheduled(sim::EventType::kFaultFire));
  gauge(c.engine_events_grid_arrival,
        scheduled(sim::EventType::kGridArrival));
}

void BatchScheduler::trace_job(trace::EventKind kind, const workload::Job& job,
                               std::int64_t value, SimTime aux_time) {
  if (!ISTC_TRACE_EVENTS_ON(tracer_)) return;
  trace::TraceEvent e;
  e.time = engine_.now();
  e.kind = kind;
  e.interstitial = job.interstitial();
  e.job = static_cast<std::int64_t>(job.id);
  e.cpus = job.cpus;
  e.aux_time = aux_time;
  e.value = value;
  tracer_->record(e);
}

void BatchScheduler::set_post_pass_hook(
    std::function<void(const PassContext&)> hook) {
  post_pass_ = std::move(hook);
}

void BatchScheduler::set_kill_hook(
    std::function<void(const JobRecord&, KillReason)> hook) {
  on_kill_ = std::move(hook);
}

void BatchScheduler::wake_at(SimTime t) {
  const SimTime now = engine_.now();
  if (t < now) return;
  if (t == now && in_pass_) return;  // this pass is already running
  // Any wake already queued in (now, t] covers this one: the pass it
  // triggers re-evaluates the queue and re-arms a later wake if still
  // needed.  (The set, pruned as wakes fire, is what the old single
  // next_wake_ register got wrong: after its wake fired the stale value
  // kept "covering" nothing while duplicate events piled up.)
  const auto it = queued_wakes_.upper_bound(now);
  if (it != queued_wakes_.end() && *it <= t) return;
  queued_wakes_.insert(t);
  ++stats_.wakeups;
  engine_.schedule_wake(t);
}

SimTime BatchScheduler::earliest_start(const ResourceProfile& profile,
                                       const workload::Job& job,
                                       SimTime from) const {
  const auto& downtime = machine_.downtime();
  SimTime t = from;
  // Each constraint moves t forward only past times it forbids, so the
  // fixed point is the least t all three allow.  It converges because the
  // downtime calendar is finite and a time-of-day window opens every day.
  for (int iter = 0; iter < 1000; ++iter) {
    // The earliest fit at or after t fits at itself, so the profile is
    // asked again only when another constraint moved t.
    t = profile.earliest_fit(job.cpus, job.estimate, t);
    SimTime next = t;
    if (policy_.time_of_day) {
      next = policy_.time_of_day->earliest_allowed(job, next);
    }
    next = downtime.next_clear(next, job.estimate);
    if (next == t) return t;
    t = next;
  }
  ISTC_ASSERT(false);  // non-convergence means an unschedulable job
  return kTimeInfinity;
}

void BatchScheduler::advance_busy_integrals(SimTime now) {
  ISTC_ASSERT(now >= busy_integral_at_);
  const SimTime dt = now - busy_integral_at_;
  if (dt > 0) {
    native_cpu_sec_ +=
        static_cast<std::uint64_t>(busy_native_cpus_) * static_cast<std::uint64_t>(dt);
    interstitial_cpu_sec_ += static_cast<std::uint64_t>(busy_interstitial_cpus_) *
                             static_cast<std::uint64_t>(dt);
    busy_integral_at_ = now;
  }
}

void BatchScheduler::start_job(std::uint32_t slot, SimTime now) {
  const workload::Job& job = store_.job(slot);
  // Observational start hook: fires before the allocation so the reported
  // free-CPU count is the interstice width this dispatch landed in.
  if (on_start_) on_start_(job, free_cpus());
  advance_busy_integrals(now);
  if (job.interstitial()) {
    ++stats_.interstitial_starts;
    busy_interstitial_cpus_ += job.cpus;
    ++running_interstitial_;
  } else {
    ++stats_.native_starts;
    busy_native_cpus_ += job.cpus;
    ++running_native_;
  }
  ISTC_ASSERT(free_cpus() >= 0);
  trace_job(trace::EventKind::kJobStart, job, job.runtime, now + job.estimate);
  if (slot < reserved_start_.size() &&
      reserved_start_[slot] != kTimeInfinity) {
    const SimTime reserved = reserved_start_[slot];
    reserved_start_[slot] = kTimeInfinity;
    const bool honored = now <= reserved;
    if (ISTC_TRACE_COUNTERS_ON(tracer_)) {
      ++(honored ? tracer_->counters().reservations_honored
                 : tracer_->counters().reservations_violated);
    }
    trace_job(honored ? trace::EventKind::kReservationHonored
                      : trace::EventKind::kReservationViolated,
              job, honored ? 0 : now - reserved, reserved);
  }
  // Persistent-profile delta: the job occupies cpus until its estimate.
  profile_.reserve(now, now + job.estimate, job.cpus);
  if (plan_live_) plan_.reserve(now, now + job.estimate, job.cpus);
  store_.mark_running(slot, now, now + job.estimate);
  engine_.schedule_job_finish(now + job.runtime, slot);
}

void BatchScheduler::complete_job(std::uint32_t slot, SimTime now) {
  if (store_.state(slot) == SlotState::kZombie) {
    // Stale completion event of a killed job — the last reference to the
    // zombie slot; free it.
    store_.release(slot);
    return;
  }
  ISTC_ASSERT(store_.state(slot) == SlotState::kRunning);
  const workload::Job& job = store_.job(slot);
  const SimTime start = store_.start(slot);
  const SimTime est_end = store_.est_end(slot);
  advance_busy_integrals(now);
  if (job.interstitial()) {
    busy_interstitial_cpus_ -= job.cpus;
    --running_interstitial_;
  } else {
    busy_native_cpus_ -= job.cpus;
    --running_native_;
  }
  ISTC_ASSERT(busy_native_cpus_ >= 0 && busy_interstitial_cpus_ >= 0);
  trace_job(trace::EventKind::kJobFinish, job, 0, start);
  // Persistent-profile delta: return the estimated remainder.  When the
  // estimate was exact (est_end == now) nothing of it lies in the future.
  // Freed capacity may pull a waiter's earliest start forward.
  if (est_end > now) {
    profile_.release(now, est_end, job.cpus);
    replay_ok_ = false;
  }
  // Interstitial jobs run outside the fair-share ledger: they are a
  // facility-level scavenger stream, not a competing allocation.
  if (!job.interstitial()) {
    fairshare_.charge(job.user, job.group, job.cpu_seconds(), now);
  }
  records_.push_back(JobRecord{job, start, now});
  ISTC_ASSERT(now - start == job.runtime);
  store_.release(slot);
}

ResourceProfile BatchScheduler::rebuild_profile(SimTime now) const {
  // Future free-CPU profile from running jobs' *estimated* completions —
  // the only schedule knowledge a real resource manager has.
  ResourceProfile profile(now, machine_.total_cpus());
  for (std::uint32_t s = 0; s < store_.slots(); ++s) {
    if (store_.state(s) != SlotState::kRunning) continue;
    ISTC_ASSERT(store_.est_end(s) > now);
    profile.reserve(now, store_.est_end(s), store_.cpus(s));
  }
  // Failed capacity is allocated on the machine but backed by no running
  // job; re-reserve it or the rebuilt profile would offer downed CPUs.
  // (Repair events fire before the pass at their timestamp, so every
  // surviving outage strictly outlives now.)
  for (const auto& outage : outages_) {
    ISTC_ASSERT(outage.until > now);
    profile.reserve(now, outage.until, outage.cpus);
  }
  return profile;
}

void BatchScheduler::make_reservation(std::uint32_t slot, SimTime t) {
  const workload::Job& job = store_.job(slot);
  if (!plan_live_) {
    plan_.assign(profile_);
    plan_live_ = true;
  }
  plan_.reserve(t, t + job.estimate, job.cpus);
#ifdef ISTC_PARANOID
  verdict_reserved_.push_back(t);
#endif
  if (!ISTC_TRACE_COUNTERS_ON(tracer_)) return;
  ++tracer_->counters().reservations_made;
  // Only the newest reservation per job is scored honored/violated;
  // reservations drift every pass as estimates expire.
  if (slot >= reserved_start_.size()) {
    reserved_start_.resize(store_.slots(), kTimeInfinity);
  }
  reserved_start_[slot] = t;
  trace_job(trace::EventKind::kReservationMade, job, 0, t);
}

bool BatchScheduler::try_dispatch(std::uint32_t slot, SimTime now,
                                  bool may_start, SimTime& earliest_out) {
  if (ISTC_TRACE_COUNTERS_ON(tracer_)) {
    ++tracer_->counters().backfill_scans;
  }
  const workload::Job& job = store_.job(slot);
  SimTime t = earliest_start(plan(), job, now);
  // Preemption extension: a blocked native may evict running interstitial
  // jobs instead of waiting on them.
  if (policy_.preempt_interstitial && t != now && may_start &&
      !job.interstitial() && could_start_with_kills(job, now)) {
    if (preempt_for(job, now)) {
      t = earliest_start(plan(), job, now);
    }
  }
  earliest_out = t;
  if (t == now && may_start) {
    start_job(slot, now);  // applies the profile delta itself
    return true;
  }
  return false;
}

SchedulerProbe BatchScheduler::probe() const {
  SchedulerProbe p;
  const SimTime now = engine_.now();
  p.now = now;
  p.busy_native_cpus = busy_native_cpus_;
  p.busy_interstitial_cpus = busy_interstitial_cpus_;
  p.free_cpus = free_cpus();
  p.offline_cpus = failed_cpus_;
  p.queue_native = pending_.size();
  p.running_native = running_native_;
  p.running_interstitial = running_interstitial_;
  if (!last_pass_.queue_empty &&
      last_pass_.head_earliest_start != kTimeInfinity) {
    // The head's earliest start was computed at the last pass; clamp in
    // case the probe fires after that estimate has already arrived.
    p.head_backfill_wall = std::max<SimTime>(0, last_pass_.head_earliest_start - now);
  }
  if (now >= profile_.origin()) {
    const auto step = profile_.step_at(now);
    p.interstice_cpus = step.free;
    if (step.until != kTimeInfinity) p.interstice_hold = step.until - now;
    p.profile_steps = profile_.steps();
  }
  // Project the lazily advanced integrals to now without mutating state.
  const std::uint64_t dt = static_cast<std::uint64_t>(now - busy_integral_at_);
  p.native_cpu_sec =
      native_cpu_sec_ + static_cast<std::uint64_t>(busy_native_cpus_) * dt;
  p.interstitial_cpu_sec =
      interstitial_cpu_sec_ +
      static_cast<std::uint64_t>(busy_interstitial_cpus_) * dt;
  return p;
}

void BatchScheduler::pass(SimTime now) {
  ISTC_ASSERT(!in_pass_);
  in_pass_ = true;
  // Pass timing is one chained sequence of clock reads at segment
  // boundaries (setup, then each stage), handed to the summary in ns;
  // TraceSummary::add_pass keeps stage_setup_us + sum(stage_us) ==
  // sched_pass_us_total exactly (pinned by tests).  Wall-clock cost lands
  // in the summary only, never the event stream.
  using Clock = std::chrono::steady_clock;
  const bool timed = ISTC_TRACE_COUNTERS_ON(tracer_);
  std::uint64_t segment_ns[trace::TraceSummary::kNumStages + 1] = {};
  Clock::time_point mark{};
  if (timed) mark = Clock::now();
  const auto lap = [&](int segment) {
    if (!timed) return;
    const auto t1 = Clock::now();
    segment_ns[segment] = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - mark)
            .count());
    mark = t1;
  };

  // Wakes scheduled at or before this instant have fired.
  queued_wakes_.erase(queued_wakes_.begin(), queued_wakes_.upper_bound(now));

  profile_.advance_origin(now);
#ifdef ISTC_PARANOID
  // Cross-check the incrementally maintained profile against a
  // from-scratch reconstruction: they must be the same step function.
  if (ISTC_TRACE_COUNTERS_ON(tracer_)) {
    ++tracer_->counters().profile_rebuilds;
  }
  ISTC_ASSERT(profile_.same_function(rebuild_profile(now)));
#endif

  pass_state_.reset(now, pending_.size());
  lap(0);
  prioritize();
  lap(1);
  const bool replay_pass = replayable();
  if (replay_pass) {
    replay();
  } else {
    dispatch();
  }
  lap(2);
  if (!replay_pass) backfill();
  lap(3);
  gate();
  lap(4);
  if (timed) tracer_->counters().add_pass(segment_ns);
  // gate() cleared in_pass_ and ran the post-pass hook.
  ISTC_ASSERT(!in_pass_);
}

void BatchScheduler::prioritize() {
  PassState& st = pass_state_;
  const std::size_t n = pending_.size();
  std::iota(st.order.begin(), st.order.end(), std::size_t{0});
  if (n == 0) return;

  // The cached order (pending_ left in priority order by the previous
  // pass's gate()) is exact while the fair-share ledger is unchanged and
  // nothing new entered the queue: between charges every principal's
  // normalized usage is constant (all accounts decay at the same rate) and
  // queue aging shifts each pairwise priority gap by a constant, so the
  // relative order cannot move.
  const bool reuse =
      order_cached_ && !pending_dirty_ && prio_epoch_ == fairshare_.epoch();
  st.order_reused = reuse;
  if (ISTC_TRACE_COUNTERS_ON(tracer_)) {
    auto& c = tracer_->counters();
    ++(reuse ? c.priority_reuses : c.priority_recomputes);
  }
  if (!reuse) {
    prio_.resize(n);
    // One deficit evaluation per (user, group) principal instead of one per
    // job; priority() is pure, so the memo is bit-identical to recomputing.
    // The memo is an open-addressed table in reused scratch, at most half
    // full.  A slot counts only when this recompute stamped it, so the
    // table is never cleared and a recompute allocates nothing.
    if (deficit_memo_.size() < 2 * n) {
      deficit_memo_.assign(std::bit_ceil(2 * n), DeficitSlot{});
    }
    ++memo_stamp_;
    const std::size_t mask = deficit_memo_.size() - 1;
    for (std::size_t i = 0; i < n; ++i) {
      const workload::Job& job = store_.job(pending_[i]);
      const std::uint32_t key =
          (static_cast<std::uint32_t>(job.user) << 16) | job.group;
      std::size_t h =
          static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) & mask;
      while (deficit_memo_[h].stamp == memo_stamp_ &&
             deficit_memo_[h].key != key) {
        h = (h + 1) & mask;
      }
      DeficitSlot& slot = deficit_memo_[h];
      if (slot.stamp != memo_stamp_) {
        slot = {memo_stamp_, key,
                fairshare_.deficit(job.user, job.group, st.now)};
      }
      prio_[i] = fairshare_.priority_with_deficit(slot.deficit, job, st.now);
    }
    std::stable_sort(st.order.begin(), st.order.end(),
                     [&](std::size_t a, std::size_t b) {
                       if (prio_[a] != prio_[b]) return prio_[a] > prio_[b];
                       const workload::Job& ja = store_.job(pending_[a]);
                       const workload::Job& jb = store_.job(pending_[b]);
                       if (ja.submit != jb.submit) {
                         return ja.submit < jb.submit;
                       }
                       return ja.id < jb.id;
                     });
    prio_epoch_ = fairshare_.epoch();
    pending_dirty_ = false;
  }

  // Dynamic re-prioritization is observable every pass regardless of
  // whether the order was reused — the event marks "priorities are current
  // as of now", and exports depend on that cadence.
  if (ISTC_TRACE_EVENTS_ON(tracer_)) {
    trace::TraceEvent e;
    e.time = st.now;
    e.kind = trace::EventKind::kFairShareRecompute;
    e.value = static_cast<std::int64_t>(n);
    tracer_->record(e);
  }
}

void BatchScheduler::dispatch() {
  PassState& st = pass_state_;
#ifdef ISTC_PARANOID
  verdict_reserved_.clear();
#endif
  std::size_t pos = 0;
  for (; pos < st.order.size(); ++pos) {
    const std::size_t idx = st.order[pos];
    const std::uint32_t slot = pending_[idx];
    SimTime t = kTimeInfinity;
    if (try_dispatch(slot, st.now, /*may_start=*/true, t)) {
      st.started[idx] = 1;
      continue;
    }
    // The highest-priority job that cannot start now: it always holds the
    // pass's reservation (its shadow time), whatever the backfill mode.
    st.saw_blocked = true;
    st.head_earliest = t;
    st.queue_earliest = std::min(st.queue_earliest, t);
    make_reservation(slot, t);
    ++pos;
    break;
  }
  st.resume_pos = pos;
}

void BatchScheduler::backfill() {
  PassState& st = pass_state_;
  if (!st.saw_blocked) return;  // dispatch drained the queue
  // kNone (ablation baseline): strict priority order — nothing junior may
  // start, but earliest times still feed the interstitial gate.
  const bool may_start = policy_.backfill != BackfillMode::kNone;
  for (std::size_t pos = st.resume_pos; pos < st.order.size(); ++pos) {
    const std::size_t idx = st.order[pos];
    const std::uint32_t slot = pending_[idx];
    SimTime t = kTimeInfinity;
    if (try_dispatch(slot, st.now, may_start, t)) {
      // Started while a higher-priority job stayed blocked: backfill.
      ++stats_.backfilled_starts;
      st.backfilled = true;
      st.started[idx] = 1;
      continue;
    }
    st.queue_earliest = std::min(st.queue_earliest, t);
    // EASY: only the head reserves, so later jobs may start now as long as
    // they cannot delay it.  Conservative: every blocked job reserves, so
    // nothing may delay any higher-priority waiter (Ross's more
    // restrictive backfill).
    if (policy_.backfill == BackfillMode::kConservative) {
      make_reservation(slot, t);
    }
  }
}

bool BatchScheduler::replayable() const {
  return pass_state_.order_reused && replay_ok_ &&
         pass_state_.now < last_pass_.queue_earliest_start;
}

void BatchScheduler::replay() {
  PassState& st = pass_state_;
  ++stats_.replayed_passes;
  st.saw_blocked = true;
  st.head_earliest = last_pass_.head_earliest_start;
  st.queue_earliest = last_pass_.queue_earliest_start;
  // The head always reserves; under conservative backfill every waiter.
  const std::size_t reserving =
      policy_.backfill == BackfillMode::kConservative ? pending_.size() : 1;
  if (ISTC_TRACE_COUNTERS_ON(tracer_)) {
    auto& c = tracer_->counters();
    c.backfill_scans += pending_.size();
    c.reservations_made += reserving;
  }
  if (ISTC_TRACE_EVENTS_ON(tracer_)) {
    for (std::size_t i = 0; i < reserving; ++i) {
      const std::uint32_t slot = pending_[i];
      trace_job(trace::EventKind::kReservationMade, store_.job(slot), 0,
                reserved_start_[slot]);
    }
  }
#ifdef ISTC_PARANOID
  check_replay();
#endif
}

#ifdef ISTC_PARANOID
void BatchScheduler::check_replay() const {
  const PassState& st = pass_state_;
  const bool conservative = policy_.backfill == BackfillMode::kConservative;
  ResourceProfile walk = profile_;
  SimTime queue_earliest = kTimeInfinity;
  std::size_t reserved = 0;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const std::uint32_t slot = pending_[i];
    const workload::Job& job = store_.job(slot);
    const SimTime t = earliest_start(walk, job, st.now);
    ISTC_ASSERT(t > st.now);
    if (i == 0) ISTC_ASSERT(t == st.head_earliest);
    queue_earliest = std::min(queue_earliest, t);
    if (i > 0 && !conservative) continue;
    ISTC_ASSERT(reserved < verdict_reserved_.size());
    ISTC_ASSERT(verdict_reserved_[reserved] == t);
    ++reserved;
    if (ISTC_TRACE_COUNTERS_ON(tracer_)) {
      ISTC_ASSERT(reserved_start_[slot] == t);
    }
    walk.reserve(t, t + job.estimate, job.cpus);
  }
  ISTC_ASSERT(reserved == verdict_reserved_.size());
  ISTC_ASSERT(queue_earliest == st.queue_earliest);
}
#endif

void BatchScheduler::gate() {
  PassState& st = pass_state_;
  // The reservations lived on the plan only; the persistent profile saw
  // just the starts and kills.
  plan_live_ = false;

  // Drop started jobs, leaving pending_ in priority order.  The priority
  // comparator is a strict total order (ids are unique), so the sorted
  // sequence is unique regardless of storage order — and storing it sorted
  // is what makes next pass's cached order the identity permutation.
  if (!pending_.empty()) {
    compact_buf_.clear();
    compact_buf_.reserve(pending_.size());
    for (const std::size_t idx : st.order) {
      if (!st.started[idx]) compact_buf_.push_back(pending_[idx]);
    }
    pending_.swap(compact_buf_);
  }
  order_cached_ = true;

  // If the head job cannot start now, guarantee a future pass at its
  // earliest possible start even if no completion event lands earlier.
  if (!pending_.empty() && st.head_earliest < kTimeInfinity) {
    wake_at(st.head_earliest);
  }

  in_pass_ = false;

  // A pass that leaves a blocked waiter and starts nothing behind it gives
  // verdicts the next passes may replay (a replayed pass keeps them).
  // Preemption may kill at any pass, so it never replays.
  replay_ok_ = !pending_.empty() && st.saw_blocked && !st.backfilled &&
               !policy_.preempt_interstitial;

  // Snapshot the pass outcome unconditionally: the metrics probe reads the
  // cached context (head backfill wall time) even when no post-pass hook
  // is installed.
  PassContext ctx;
  ctx.now = st.now;
  ctx.free_cpus = free_cpus();
  ctx.queue_empty = pending_.empty();
  ctx.head_earliest_start = pending_.empty() ? kTimeInfinity : st.head_earliest;
  ctx.queue_earliest_start =
      pending_.empty() ? kTimeInfinity : st.queue_earliest;
  last_pass_ = ctx;

  if (post_pass_) post_pass_(ctx);
}

bool BatchScheduler::calendar_allows(const workload::Job& job,
                                     SimTime t) const {
  return machine_.downtime().can_run(t, job.estimate) &&
         (!policy_.time_of_day || policy_.time_of_day->allowed(job, t));
}

bool BatchScheduler::could_start_with_kills(const workload::Job& job,
                                            SimTime now) const {
  // Killing every running interstitial frees exactly the CPUs they hold.
  return free_cpus() + busy_interstitial_cpus_ >= job.cpus &&
         calendar_allows(job, now);
}

void BatchScheduler::kill_running_job(std::uint32_t slot, KillReason reason) {
  ISTC_ASSERT(store_.state(slot) == SlotState::kRunning);
  const workload::Job& job = store_.job(slot);
  const SimTime start = store_.start(slot);
  const SimTime est_end = store_.est_end(slot);
  const SimTime now = engine_.now();
  advance_busy_integrals(now);
  if (job.interstitial()) {
    busy_interstitial_cpus_ -= job.cpus;
    --running_interstitial_;
  } else {
    busy_native_cpus_ -= job.cpus;
    --running_native_;
  }
  ISTC_ASSERT(busy_native_cpus_ >= 0 && busy_interstitial_cpus_ >= 0);
  trace_job(trace::EventKind::kJobKill, job, static_cast<std::int64_t>(reason),
            start);
  // Permanent profile delta: the victim's remaining reservation goes away
  // (its origin-side history was already chopped by advance_origin).  A
  // fault kill can race a same-instant completion estimate: when est_end
  // == now nothing of the reservation lies in the future.
  if (est_end > now) {
    profile_.release(now, est_end, job.cpus);
    if (plan_live_) plan_.release(now, est_end, job.cpus);
  }
  replay_ok_ = false;
  killed_records_.push_back(JobRecord{job, start, now});
  // The slot parks as a zombie: the queued finish event still references
  // it, and its firing frees the slot.
  store_.mark_zombie(slot);
  if (ISTC_TRACE_COUNTERS_ON(tracer_)) {
    auto& c = tracer_->counters();
    if (reason == KillReason::kPreempted) {
      ++c.interstitial_killed;
    } else {
      ++(job.interstitial() ? c.fault_killed_interstitial
                            : c.fault_killed_native);
    }
  }
  if (on_kill_) on_kill_(killed_records_.back(), reason);
}

void BatchScheduler::collect_victims(bool interstitial_only) {
  // Youngest first: the least work is thrown away.  One scan over the hot
  // state/class columns collects the candidates.
  victim_buf_.clear();
  for (std::uint32_t s = 0; s < store_.slots(); ++s) {
    if (store_.state(s) == SlotState::kRunning &&
        (!interstitial_only || store_.interstitial(s))) {
      victim_buf_.push_back(s);
    }
  }
  std::sort(victim_buf_.begin(), victim_buf_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              if (store_.start(a) != store_.start(b)) {
                return store_.start(a) > store_.start(b);
              }
              return store_.id(a) > store_.id(b);
            });
}

bool BatchScheduler::preempt_for(const workload::Job& job, SimTime now) {
  collect_victims(/*interstitial_only=*/true);
  for (const std::uint32_t v : victim_buf_) {
    if (plan().min_free(now, now + job.estimate) >= job.cpus) break;
    kill_running_job(v, KillReason::kPreempted);
  }
  return plan().min_free(now, now + job.estimate) >= job.cpus;
}

std::vector<JobRecord> BatchScheduler::fail_capacity(int cpus, SimTime until,
                                                     KillReason reason) {
  const SimTime now = engine_.now();
  ISTC_EXPECTS(until > now);
  ISTC_EXPECTS(reason != KillReason::kPreempted);
  // Overlapping failures compose: a second fault can only take down what
  // is still up.
  cpus = std::min(cpus, machine_.total_cpus() - failed_cpus_);
  if (cpus <= 0) return {};
  const std::size_t first_killed = killed_records_.size();
  if (free_cpus() < cpus) {
    // Youngest running job first, natives and interstitials alike: an
    // unplanned failure spares nobody.
    collect_victims(/*interstitial_only=*/false);
    for (const std::uint32_t s : victim_buf_) {
      if (free_cpus() >= cpus) break;
      kill_running_job(s, reason);
    }
  }
  ISTC_ASSERT(free_cpus() >= cpus);
  failed_cpus_ += cpus;
  // The downed capacity is a reservation ending at the repair time, so
  // backfill plans around the outage exactly like around running jobs.
  // Lost capacity that returns by the queue's earliest start M moves no
  // waiter's earliest start.
  profile_.reserve(now, until, cpus);
  if (until > last_pass_.queue_earliest_start) replay_ok_ = false;
  const std::uint32_t outage_id = next_outage_id_++;
  outages_.push_back(CapacityOutage{outage_id, cpus, until});
  // Typed repair event: the queue holds a POD entry carrying the outage
  // id, not a closure (run forks require a closure-free mid-run queue).
  engine_.schedule_capacity_repair(until, outage_id);
  return {killed_records_.begin() +
              static_cast<std::ptrdiff_t>(first_killed),
          killed_records_.end()};
}

void BatchScheduler::capacity_repair(std::uint32_t outage_id) {
  const auto it =
      std::find_if(outages_.begin(), outages_.end(),
                   [outage_id](const CapacityOutage& o) {
                     return o.id == outage_id;
                   });
  ISTC_ASSERT(it != outages_.end());
  const int cpus = it->cpus;
  ISTC_ASSERT(it->until == engine_.now());
  failed_cpus_ -= cpus;
  ISTC_ASSERT(failed_cpus_ >= 0);
  outages_.erase(it);
  // The matching profile reservation ran [failure, until) and expires at
  // this very instant — no release needed; the quiescent pass that follows
  // this event re-dispatches onto the restored CPUs.
  if (ISTC_TRACE_EVENTS_ON(tracer_)) {
    trace::TraceEvent e;
    e.time = engine_.now();
    e.kind = trace::EventKind::kFaultRepair;
    e.cpus = cpus;
    tracer_->record(e);
  }
}

bool BatchScheduler::try_start_immediately(const workload::Job& job) {
  job.check();
  const SimTime now = engine_.now();
  if (job.cpus > free_cpus() || !calendar_allows(job, now)) return false;
  // Meta-backfilled jobs never enter the queue: submit and start coincide.
  // A start whose estimate ends by the queue's earliest start M moves no
  // waiter's earliest start.
  trace_job(trace::EventKind::kJobSubmit, job, job.estimate);
  if (now + job.estimate > last_pass_.queue_earliest_start) replay_ok_ = false;
  start_job(store_.acquire(job), now);
  return true;
}

RunResult BatchScheduler::take_result(SimTime span) {
  ISTC_EXPECTS(pending_.empty());
  ISTC_EXPECTS(running_count() == 0);
  // A drained run has fired every finish event, so no zombie slot (or any
  // live slot) can remain.
  ISTC_EXPECTS(store_.live() == 0);
  RunResult result;
  result.machine = machine_.spec();
  result.span = span;
  result.sim_end = engine_.now();
  result.records = records_.take();
  result.killed = std::move(killed_records_);
  if (tracer_ != nullptr) {
    fold_engine_counters();
    result.trace = tracer_->summary();
  }
  killed_records_.clear();
  return result;
}

}  // namespace istc::sched
