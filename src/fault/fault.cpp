#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>

#include "trace/tracer.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace istc::fault {

namespace {

/// Resubmitted natives need ids that collide with neither the native log
/// (ids count up from 0) nor the interstitial stream (ids count up from
/// the log size): a duplicate id would let the dead original's stale
/// completion event finish its replacement early.  Ids from this base up
/// are reserved for fault resubmissions.
constexpr workload::JobId kResubmitIdBase = 0xF0000000u;

}  // namespace

void FaultSpec::check() const {
  ISTC_ASSERT(crash_mtbf >= 0);
  ISTC_ASSERT(node_mtbf >= 0);
  ISTC_ASSERT(start >= 0);
  ISTC_ASSERT(stop > start);
  if (crash_mtbf > 0) ISTC_ASSERT(crash_repair > 0);
  if (node_mtbf > 0) {
    ISTC_ASSERT(node_repair > 0);
    ISTC_ASSERT(node_cpus > 0);
  }
  // An unbounded horizon would make the pre-generated timeline infinite;
  // callers clamp stop to the run span (run_scenario does).
  if (enabled()) ISTC_ASSERT(stop < kTimeInfinity);
}

FaultInjector::FaultInjector(sched::BatchScheduler& scheduler, FaultSpec spec)
    : scheduler_(scheduler), spec_(spec) {
  spec_.check();
  // The whole timeline is drawn up front from per-class RNG streams, so
  // the crash process is independent of the node-failure process and both
  // depend only on the seed — never on what the simulation does.
  const Rng root(spec_.seed);
  std::vector<FaultEvent> timeline;
  const auto generate = [this, &root, &timeline](
                            Seconds mtbf, std::uint64_t stream, bool crash) {
    if (mtbf <= 0) return;
    Rng rng = root.fork(stream);
    SimTime t = spec_.start;
    for (;;) {
      const auto gap = static_cast<Seconds>(
          std::llround(rng.exponential(static_cast<double>(mtbf))));
      t += std::max<Seconds>(1, gap);
      if (t >= spec_.stop) break;
      timeline.push_back(FaultEvent{t, crash});
    }
  };
  generate(spec_.crash_mtbf, 1, true);
  generate(spec_.node_mtbf, 2, false);
  // Merge the streams; at equal times the crash fires first (it subsumes
  // any node failure anyway).
  std::sort(timeline.begin(), timeline.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.crash && !b.crash;
            });
  timeline_ =
      std::make_shared<const std::vector<FaultEvent>>(std::move(timeline));
  sim::Engine& engine = scheduler_.engine();
  engine.reserve_events(timeline_->size());
  // Typed fault events: the queue entry carries the timeline index, not a
  // closure, so a mid-run queue stays POD-only (run forks depend on it).
  engine.set_fault_hook([this](std::uint32_t i) { fire(i); });
  for (std::size_t i = 0; i < timeline_->size(); ++i) {
    engine.schedule_fault((*timeline_)[i].time, static_cast<std::uint32_t>(i));
  }
}

FaultInjector::FaultInjector(sched::BatchScheduler& scheduler,
                             const FaultInjector& other)
    : scheduler_(scheduler),
      spec_(other.spec_),
      timeline_(other.timeline_),
      resubmits_(other.resubmits_) {
  scheduler_.engine().set_fault_hook([this](std::uint32_t i) { fire(i); });
}

void FaultInjector::fire(std::size_t index) {
  const FaultEvent& ev = (*timeline_)[index];
  const SimTime now = scheduler_.engine().now();
  ISTC_ASSERT(now == ev.time);
  const int total = scheduler_.machine().total_cpus();
  const Seconds repair = ev.crash ? spec_.crash_repair : spec_.node_repair;
  const int cpus = ev.crash ? total : std::min(spec_.node_cpus, total);

  const std::vector<sched::JobRecord> victims = scheduler_.fail_capacity(
      cpus, now + repair,
      ev.crash ? sched::KillReason::kMachineCrash
               : sched::KillReason::kNodeFailure);

  trace::Tracer* tracer = scheduler_.tracer();
  if (ISTC_TRACE_COUNTERS_ON(tracer)) {
    trace::TraceSummary& c = tracer->counters();
    ++c.faults_injected;
    ++(ev.crash ? c.fault_crashes : c.fault_node_failures);
  }
  if (ISTC_TRACE_EVENTS_ON(tracer)) {
    trace::TraceEvent e;
    e.time = now;
    e.kind = ev.crash ? trace::EventKind::kMachineCrash
                      : trace::EventKind::kNodeFailure;
    e.cpus = cpus;
    e.aux_time = now + repair;
    e.value = static_cast<std::int64_t>(victims.size());
    tracer->record(e);
  }

  // Requeue killed natives under fresh ids with their original runtime and
  // estimate: the batch system reruns them from scratch and the executed
  // CPU-time is lost.  Killed interstitials reach the driver through the
  // scheduler's kill hook instead (ProjectSpec::fault_retry).
  for (const sched::JobRecord& v : victims) {
    if (v.interstitial()) continue;
    workload::Job again = v.job;
    again.id = kResubmitIdBase + resubmits_++;
    again.submit = now;
    scheduler_.submit(again);
    if (ISTC_TRACE_COUNTERS_ON(tracer)) {
      trace::TraceSummary& c = tracer->counters();
      c.fault_cpu_sec_lost +=
          static_cast<std::uint64_t>(v.job.cpus) *
          static_cast<std::uint64_t>(v.end - v.start);
      ++c.fault_native_resubmits;
    }
  }
}

}  // namespace istc::fault
