#include "grid/machine.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace istc::grid {

GridMachine::GridMachine(MachineSetup setup)
    : name_(setup.name.empty() ? setup.spec.name : setup.name),
      bounce_patience_(setup.bounce_patience),
      tracer_(trace::TraceMode::kCountersOnly),
      next_local_id_(setup.stream_first_id()) {
  run_ = std::make_unique<core::SimRun>(std::move(setup));
  attach_port();
}

GridMachine::GridMachine(GridMachine& other)
    : name_(other.name_),
      bounce_patience_(other.bounce_patience_),
      tracer_(trace::TraceMode::kCountersOnly),
      run_(other.run_->fork()),
      next_local_id_(other.next_local_id_),
      arrivals_(other.arrivals_),
      landed_(other.landed_),
      running_(other.running_),
      reports_(other.reports_),
      stats_(other.stats_) {
  // Share the delivery logs copy-on-write: freeze the source's logs into
  // shared chunks so both sides append privately, and in-flight
  // kGridArrival events (whose args index these logs) resolve identically
  // in either machine.
  other.delivery_jobs_.freeze();
  other.delivery_spans_.freeze();
  delivery_jobs_ = other.delivery_jobs_;
  delivery_spans_ = other.delivery_spans_;
  attach_port();
}

std::unique_ptr<GridMachine> GridMachine::fork() {
  return std::unique_ptr<GridMachine>(new GridMachine(*this));
}

void GridMachine::attach_port() {
  run_->set_tracer(&tracer_);
  if (!accepts_routed()) return;  // local mode: the driver owns the hooks
  sched::BatchScheduler& scheduler = run_->scheduler();
  scheduler.set_post_pass_hook(
      [this](const sched::PassContext& ctx) { on_pass(ctx); });
  scheduler.set_kill_hook(
      [this](const sched::JobRecord& victim, sched::KillReason reason) {
        on_kill(victim, reason);
      });
  run_->engine().set_grid_hook(
      [this](std::uint32_t span) { on_arrival(span); });
}

SimTime GridMachine::next_report_time(SimTime asap) const {
  SimTime t = kTimeInfinity;
  if (!reports_.empty()) t = asap;
  // An in-flight or landed job resolves (start or bounce) no later than
  // its arrival plus the patience window.
  for (const SimTime at : arrivals_) {
    t = std::min(t, std::max(at + bounce_patience_, asap));
  }
  for (const auto& l : landed_) {
    t = std::min(t, std::max(l.arrived + bounce_patience_, asap));
  }
  for (const auto& r : running_) t = std::min(t, r.end);
  return t;
}

void GridMachine::deliver_batch(SimTime at, std::span<const GridJob> jobs) {
  obs::ScopedSpan span("grid.deliver",
                       static_cast<std::int64_t>(jobs.size()));
  ISTC_EXPECTS(accepts_routed());
  ISTC_EXPECTS(at >= now());
  ISTC_EXPECTS(!jobs.empty());
  const std::size_t begin = delivery_jobs_.size();
  for (const GridJob& job : jobs) delivery_jobs_.push_back(job);
  const std::size_t span_index = delivery_spans_.size();
  ISTC_ASSERT(begin + jobs.size() <= UINT32_MAX && span_index <= UINT32_MAX);
  delivery_spans_.push_back({static_cast<std::uint32_t>(begin),
                             static_cast<std::uint32_t>(jobs.size())});
  stats_.delivered += jobs.size();
  arrivals_.push_back(at);
  run_->engine().schedule_grid_arrival(at,
                                       static_cast<std::uint32_t>(span_index));
}

void GridMachine::on_arrival(std::uint32_t span_index) {
  ISTC_ASSERT(!arrivals_.empty());
  arrivals_.pop_front();
  const DeliverySpan s = delivery_spans_[span_index];
  for (std::uint32_t k = 0; k < s.count; ++k) {
    landed_.push_back({delivery_jobs_[s.begin + k], now()});
  }
}

void GridMachine::on_pass(const sched::PassContext& ctx) {
  if (landed_.empty()) return;
  std::size_t kept = 0;
  for (auto& l : landed_) {
    const Seconds runtime = runtime_for(l.job.work_per_cpu);
    bool started = false;
    if (core::queue_gate_open(ctx, ctx.now, runtime)) {
      workload::Job j;
      j.id = next_local_id_;
      j.klass = workload::JobClass::kInterstitial;
      j.user = core::kInterstitialUser;
      j.group = core::kInterstitialGroup;
      j.cpus = l.job.cpus;
      j.submit = l.arrived;
      j.runtime = runtime;
      j.estimate = runtime;
      if (run_->scheduler().try_start_immediately(j)) {
        ++next_local_id_;
        ++stats_.started;
        running_.push_back({j.id, l.job, ctx.now, ctx.now + runtime});
        started = true;
      }
    }
    if (!started) landed_[kept++] = l;
  }
  landed_.resize(kept);
}

void GridMachine::on_kill(const sched::JobRecord& victim,
                          sched::KillReason /*reason*/) {
  if (!victim.job.interstitial()) return;  // native requeue is the injector's
  const auto it =
      std::find_if(running_.begin(), running_.end(),
                   [&](const RunningGrid& r) { return r.local_id == victim.job.id; });
  if (it == running_.end()) return;
  const Seconds elapsed = victim.end - victim.start;
  // The remainder is re-routed by the broker, possibly to a machine with a
  // different clock, which is why it travels as machine-neutral cycles.
  const Seconds saved = core::checkpointed_seconds(elapsed, it->job.checkpoint);
  GridJob rest = it->job;
  rest.work_per_cpu -= machine().spec().cycles_in(saved);
  ISTC_ASSERT(rest.work_per_cpu > 0);
  ++stats_.killed;
  reports_.push_back(
      {ReportKind::kKilled, rest, victim.end,
       static_cast<std::uint64_t>(it->job.cpus) *
           static_cast<std::uint64_t>(elapsed)});
  running_.erase(it);
}

void GridMachine::collect_reports(SimTime now, std::vector<PortReport>& out) {
  out.insert(out.end(), reports_.begin(), reports_.end());
  reports_.clear();
  std::size_t kept = 0;
  for (auto& r : running_) {
    if (r.end <= now) {
      ++stats_.completed;
      out.push_back({ReportKind::kCompleted, r.job, r.end,
                     static_cast<std::uint64_t>(r.job.cpus) *
                         static_cast<std::uint64_t>(r.end - r.start)});
    } else {
      running_[kept++] = r;
    }
  }
  running_.resize(kept);
  kept = 0;
  for (auto& l : landed_) {
    if (l.arrived + bounce_patience_ <= now) {
      ++stats_.bounced;
      out.push_back({ReportKind::kBounced, l.job, now, 0});
    } else {
      landed_[kept++] = l;
    }
  }
  landed_.resize(kept);
}

int GridMachine::lookahead_min_free(SimTime t, Seconds dur) const {
  const sched::ResourceProfile& profile = run_->scheduler().profile();
  const SimTime start = std::max(t, profile.origin());
  return profile.min_free(start, start + std::max<Seconds>(dur, 1));
}

}  // namespace istc::grid
