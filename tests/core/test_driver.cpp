#include "core/driver.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"
#include "trace/tracer.hpp"

namespace istc::core {
namespace {

cluster::Machine machine_of(int cpus, cluster::DowntimeCalendar cal = {}) {
  return cluster::Machine(
      {.name = "m", .site = "", .queue_system = "", .cpus = cpus,
       .clock_ghz = 1.0},
      std::move(cal));
}

sched::PolicySpec easy() {
  sched::PolicySpec p;
  p.fairshare.age_weight_per_hour = 0.0;
  return p;
}

workload::Job native(workload::JobId id, SimTime submit, int cpus,
                     Seconds run, Seconds est = 0) {
  workload::Job j;
  j.id = id;
  j.submit = submit;
  j.cpus = cpus;
  j.runtime = run;
  j.estimate = est ? est : run;
  return j;
}

TEST(Driver, FillsEmptyMachine) {
  // 100 cpus, 10-cpu jobs: 10 at a time; project of 25 jobs of 50 s
  // finishes in 3 waves = 150 s.
  sim::Engine eng;
  sched::BatchScheduler s(eng, machine_of(100), easy());
  ProjectSpec spec = ProjectSpec::paper(25, 10, 50);
  InterstitialDriver driver(s, spec, 1000);
  eng.run();
  const auto r = s.take_result(1000);
  EXPECT_EQ(driver.submitted(), 25u);
  EXPECT_TRUE(driver.exhausted());
  EXPECT_EQ(r.interstitial_count(), 25u);
  SimTime last_end = 0;
  for (const auto& rec : r.records) last_end = std::max(last_end, rec.end);
  EXPECT_EQ(last_end, 150);
}

TEST(Driver, RespectsStartTime) {
  sim::Engine eng;
  sched::BatchScheduler s(eng, machine_of(100), easy());
  ProjectSpec spec = ProjectSpec::paper(5, 10, 50);
  spec.start_time = 500;
  InterstitialDriver driver(s, spec, 1000);
  eng.run();
  const auto r = s.take_result(1000);
  for (const auto& rec : r.records) EXPECT_GE(rec.start, 500);
}

TEST(Driver, RespectsStopTime) {
  sim::Engine eng;
  sched::BatchScheduler s(eng, machine_of(10), easy());
  ProjectSpec spec = ProjectSpec::continual_stream(10, 100, /*stop=*/250);
  InterstitialDriver driver(s, spec, 1000);
  eng.run();
  const auto r = s.take_result(1000);
  // Jobs at t=0, 100, 200 — none at 300 (>= stop).
  EXPECT_EQ(r.interstitial_count(), 3u);
  for (const auto& rec : r.records) EXPECT_LT(rec.start, 250);
}

TEST(Driver, SubmitsFloorOfFreeOverSize) {
  sim::Engine eng;
  sched::BatchScheduler s(eng, machine_of(100), easy());
  // Native occupies 45: free 55 -> floor(55/10) = 5 interstitial jobs.
  s.submit(native(0, 0, 45, 1000));
  ProjectSpec spec = ProjectSpec::paper(100, 10, 50);
  InterstitialDriver driver(s, spec, 1000);
  eng.run(10);  // first wave only
  EXPECT_EQ(driver.submitted(), 5u);
  eng.run();
  s.take_result(2000);
}

TEST(Driver, GateClosedWhenHeadJobImminent) {
  // Native J0 occupies the machine [0,100) with an accurate estimate; J1
  // queues behind it.  backfillWallTime (100) minus now (50) = 50 < the
  // interstitial runtime (80): the driver must NOT submit at t=50.
  sim::Engine eng;
  sched::BatchScheduler s(eng, machine_of(10), easy());
  s.submit(native(0, 0, 10, 100));
  s.submit(native(1, 50, 10, 100));
  ProjectSpec spec = ProjectSpec::paper(100, 1, 80);
  spec.start_time = 0;
  InterstitialDriver driver(s, spec, 1000);
  eng.run(60);
  EXPECT_EQ(driver.submitted(), 0u);
  eng.run();
  s.take_result(2000);
}

TEST(Driver, GateOpenWhenShadowFar) {
  // Same setup but the queued job's start is far (native est 1000):
  // interstitial of runtime 80 fits before the shadow.
  sim::Engine eng;
  sched::BatchScheduler s(eng, machine_of(20), easy());
  s.submit(native(0, 0, 15, 1000, 1000));
  s.submit(native(1, 10, 20, 100, 100));  // queued; shadow at 1000
  ProjectSpec spec = ProjectSpec::paper(100, 5, 80);
  InterstitialDriver driver(s, spec, 1000);
  eng.run(50);
  EXPECT_GT(driver.submitted(), 0u);
  eng.run();
  s.take_result(5000);
}

TEST(Driver, NativeDelayBoundedByInterstitialRuntime) {
  // The paper's core impact claim: a native job that could have started at
  // a native completion is deferred at most ~one interstitial runtime.
  // J0 [0,100) actual but estimate 500 (gross overestimate).  Interstitial
  // jobs (runtime 80 < 500-0) are admitted and hold the cpus when J0 ends
  // early at t=100.  J1 (arrives t=5, needs all 20 cpus) must wait for the
  // last interstitial wave started before t=100.
  sim::Engine eng;
  sched::BatchScheduler s(eng, machine_of(20), easy());
  s.submit(native(0, 0, 15, 100, 500));
  s.submit(native(1, 5, 20, 50, 50));
  ProjectSpec spec = ProjectSpec::continual_stream(5, 80, 90);
  InterstitialDriver driver(s, spec, 1000);
  eng.run();
  const auto r = s.take_result(2000);
  SimTime j1_start = -1;
  for (const auto& rec : r.records) {
    if (!rec.interstitial() && rec.job.id == 1) j1_start = rec.start;
  }
  ASSERT_GE(j1_start, 0);
  // Without interstitial, J1 starts at 100.  With it, at most one
  // interstitial runtime later.
  EXPECT_GE(j1_start, 100);
  EXPECT_LE(j1_start, 100 + 80);
}

TEST(Driver, QueueProtectiveGatePreventsHeadPinnedLivelock) {
  // The Ross livelock in miniature (DESIGN.md): the head job is pinned far
  // in the future by a long-estimated runner, so the head-only gate stays
  // open; freed interstitial CPUs come back in waves *smaller than the
  // junior's width* and are re-scavenged the same instant — the junior
  // starves.  The queue-protective gate sees the junior's imminent
  // earliest start, stops refilling, and lets capacity accumulate.
  auto junior_start_with = [](GatePolicy gate) {
    sim::Engine eng;
    sched::PolicySpec policy;  // EASY
    policy.fairshare.age_weight_per_hour = 0.0;
    policy.fairshare.size_weight = 0.0;
    sched::BatchScheduler s(eng, machine_of(20), policy);
    s.submit(native(0, 0, 10, 5000, 5000));  // long runner, accurate est
    s.submit(native(1, 0, 4, 20, 20));       // staggers interstitial waves
    // t=0: free 6 -> 3 interstitial; t=20: free 4 -> 2 more (staggered).
    s.submit(native(2, 25, 16, 100, 100));   // head: earliest ~5000 (far)
    s.submit(native(3, 26, 10, 50, 50));     // junior: needs a full drain
    ProjectSpec spec = ProjectSpec::continual_stream(2, 100, 1500);
    spec.gate = gate;
    InterstitialDriver driver(s, spec, 1000);
    eng.run();
    SimTime junior_start = -1;
    for (const auto& r : s.take_result(10000).records) {
      if (!r.interstitial() && r.job.id == 3) junior_start = r.start;
    }
    return junior_start;
  };
  const SimTime protective = junior_start_with(GatePolicy::kQueueProtective);
  const SimTime head_only = junior_start_with(GatePolicy::kHeadOnly);
  ASSERT_GE(protective, 0);
  ASSERT_GE(head_only, 0);
  // Queue-protective: the junior runs within a couple of wave lengths.
  EXPECT_LE(protective, 26 + 3 * 100);
  // Head-only: the junior starves until the stream stops at t=1500.
  EXPECT_GE(head_only, 1000);
}

TEST(Driver, TraceRecordsHeadPinnedLivelock) {
  // Same miniature as above, but now read the story out of the trace: the
  // head-only gate keeps deciding "open" against the *same* pinned wall
  // time (the head's far-future earliest start never moves) while the
  // junior starves; the queue-protective gate instead emits repeated
  // rejected-by-gate decisions against the junior's imminent start.
  auto run_traced = [](GatePolicy gate, trace::Tracer* tracer) {
    sim::Engine eng;
    sched::PolicySpec policy;  // EASY
    policy.fairshare.age_weight_per_hour = 0.0;
    policy.fairshare.size_weight = 0.0;
    sched::BatchScheduler s(eng, machine_of(20), policy);
    s.set_tracer(tracer);
    s.submit(native(0, 0, 10, 5000, 5000));
    s.submit(native(1, 0, 4, 20, 20));
    s.submit(native(2, 25, 16, 100, 100));  // head: earliest ~5000 (far)
    s.submit(native(3, 26, 10, 50, 50));    // junior: needs a full drain
    ProjectSpec spec = ProjectSpec::continual_stream(2, 100, 1500);
    spec.gate = gate;
    InterstitialDriver driver(s, spec, 1000);
    eng.run();
    s.take_result(10000);
  };
  auto gate_events = [](const trace::Tracer& t) {
    std::vector<trace::TraceEvent> out;
    for (const auto& e : t.sorted_events()) {
      if (e.kind == trace::EventKind::kGateDecision) out.push_back(e);
    }
    return out;
  };

  trace::Tracer head_trace(trace::TraceMode::kFull);
  run_traced(GatePolicy::kHeadOnly, &head_trace);
  std::size_t head_open = 0;
  std::size_t same_wall = 0;
  for (const auto& e : gate_events(head_trace)) {
    if (!e.open || e.time < 25 || e.time >= 1500) continue;
    ++head_open;
    // The pinned head: wall time is the long runner's completion at
    // t=5000, identical pass after pass while the junior waits.
    if (e.aux_time == 5000) ++same_wall;
  }
  EXPECT_GE(head_open, 5u);
  EXPECT_EQ(same_wall, head_open);
  EXPECT_EQ(head_trace.summary().interstitial_rejected_by_gate, 0u);

  trace::Tracer prot_trace(trace::TraceMode::kFull);
  run_traced(GatePolicy::kQueueProtective, &prot_trace);
  std::size_t closed = 0;
  std::int64_t withheld = 0;
  for (const auto& e : gate_events(prot_trace)) {
    if (e.open) continue;
    ++closed;
    withheld += e.value;
    // A closed decision always carries the finite wall time it compared.
    EXPECT_LT(e.aux_time, kTimeInfinity);
  }
  EXPECT_GE(closed, 2u);
  EXPECT_EQ(prot_trace.summary().gate_closed, closed);
  EXPECT_EQ(prot_trace.summary().interstitial_rejected_by_gate,
            static_cast<std::uint64_t>(withheld));
}

TEST(Driver, AlwaysGateHarvestsMoreThanProtectiveGate) {
  auto harvested = [](GatePolicy gate) {
    sim::Engine eng;
    sched::PolicySpec policy;
    sched::BatchScheduler s(eng, machine_of(20), policy);
    for (workload::JobId i = 0; i < 10; ++i) {
      s.submit(native(i, i * 30, 12, 60, 600));  // overestimates
    }
    ProjectSpec spec = ProjectSpec::continual_stream(4, 50, 400);
    spec.gate = gate;
    InterstitialDriver driver(s, spec, 1000);
    eng.run();
    const auto r = s.take_result(5000);
    return r.interstitial_count();
  };
  EXPECT_GE(harvested(GatePolicy::kAlways),
            harvested(GatePolicy::kQueueProtective));
}

TEST(Driver, UtilizationCapLimitsSubmission) {
  sim::Engine eng;
  sched::BatchScheduler s(eng, machine_of(100), easy());
  s.submit(native(0, 0, 50, 1000));
  ProjectSpec spec = ProjectSpec::paper(100, 10, 50);
  spec.utilization_cap = 0.8;  // 80 cpus max busy: room for 3 jobs of 10
  InterstitialDriver driver(s, spec, 1000);
  eng.run(10);
  EXPECT_EQ(driver.submitted(), 3u);
  eng.run();
  s.take_result(3000);
}

TEST(Driver, CapBelowCurrentUseSubmitsNothing) {
  sim::Engine eng;
  sched::BatchScheduler s(eng, machine_of(100), easy());
  s.submit(native(0, 0, 90, 200));
  ProjectSpec spec = ProjectSpec::paper(10, 5, 50);
  spec.utilization_cap = 0.5;
  spec.stop_time = 150;  // give up before the native completes
  InterstitialDriver driver(s, spec, 1000);
  eng.run(100);
  EXPECT_EQ(driver.submitted(), 0u);
  eng.run();
  s.take_result(2000);
}

TEST(Driver, SurvivesDowntimeOnIdleMachine) {
  // Machine idle, queue empty, a downtime window ahead: the driver must
  // wake itself after the window and resume the project.
  cluster::DowntimeCalendar cal({{100, 200}});
  sim::Engine eng;
  sched::BatchScheduler s(eng, machine_of(10, cal), easy());
  ProjectSpec spec = ProjectSpec::paper(30, 10, 60);
  InterstitialDriver driver(s, spec, 1000);
  eng.run();
  const auto r = s.take_result(1000);
  EXPECT_EQ(r.interstitial_count(), 30u);
  for (const auto& rec : r.records) {
    EXPECT_TRUE(cal.can_run(rec.start, rec.job.runtime));
  }
}

sched::PolicySpec preempting_easy() {
  sched::PolicySpec p;
  p.preempt_interstitial = true;
  p.fairshare.age_weight_per_hour = 0.0;
  p.fairshare.size_weight = 0.0;
  return p;
}

TEST(Driver, CheckpointRecoveryResubmitsRemainingWork) {
  // Bounded project on an empty 10-cpu machine; a native eviction at t=40
  // kills one 100-second job; checkpoint recovery resubmits a 60-second
  // fragment, so the *completed* interstitial work still totals the
  // project work.
  sim::Engine eng;
  sched::BatchScheduler s(eng, machine_of(10), preempting_easy());
  trace::Tracer tracer(trace::TraceMode::kCountersOnly);
  s.set_tracer(&tracer);
  ProjectSpec spec = ProjectSpec::paper(4, 10, 100);  // serial waves
  spec.recovery = PreemptionRecovery::kCheckpoint;
  InterstitialDriver driver(s, spec, 1000);
  s.submit(native(0, 40, 10, 30));  // evicts the first wave at t=40
  eng.run();
  const auto r = s.take_result(5000);
  ASSERT_EQ(r.killed.size(), 1u);
  EXPECT_EQ(r.trace.interstitial_killed, 1u);
  EXPECT_EQ(driver.resume_fragments_pending(), 0u);  // fragment completed
  // Completed interstitial runtime: 3 full jobs + one 40 s executed-lost
  // + one 60 s fragment... executed work of the victim is *lost* under
  // checkpoint-as-implemented?  No: the fragment is runtime-60, and the
  // victim's first 40 s count as useful (checkpointed).  Completed records
  // hold 3 x 100 + 60 = 360 s; the killed record holds the 40 s.
  Seconds completed = 0;
  for (const auto& rec : r.records) {
    if (rec.interstitial()) completed += rec.job.runtime;
  }
  EXPECT_EQ(completed, 360);
  EXPECT_DOUBLE_EQ(r.wasted_cpu_seconds(), 10.0 * 40.0);
}

TEST(Driver, RestartRecoveryRedoesWholeJob) {
  sim::Engine eng;
  sched::BatchScheduler s(eng, machine_of(10), preempting_easy());
  ProjectSpec spec = ProjectSpec::paper(4, 10, 100);
  spec.recovery = PreemptionRecovery::kRestart;
  InterstitialDriver driver(s, spec, 1000);
  s.submit(native(0, 40, 10, 30));
  eng.run();
  const auto r = s.take_result(5000);
  ASSERT_EQ(r.killed.size(), 1u);
  // All 4 project jobs complete at full length despite the kill.
  Seconds completed = 0;
  std::size_t n = 0;
  for (const auto& rec : r.records) {
    if (rec.interstitial()) {
      completed += rec.job.runtime;
      ++n;
    }
  }
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(completed, 400);
}

TEST(Driver, NoRecoveryLosesKilledJob) {
  sim::Engine eng;
  sched::BatchScheduler s(eng, machine_of(10), preempting_easy());
  ProjectSpec spec = ProjectSpec::paper(4, 10, 100);
  spec.recovery = PreemptionRecovery::kNone;
  InterstitialDriver driver(s, spec, 1000);
  s.submit(native(0, 40, 10, 30));
  eng.run();
  const auto r = s.take_result(5000);
  ASSERT_EQ(r.killed.size(), 1u);
  EXPECT_EQ(r.interstitial_count(), 3u);  // one job's work is simply gone
}

TEST(Driver, PreemptionWithRecoveryProtectsNativesCompletely) {
  // Under fill-and-evict with checkpoint recovery, natives start exactly
  // when they would on an interstitial-free machine, and the project's
  // work still completes in full.
  auto run_mode = [](bool with_stream) {
    sim::Engine eng;
    sched::BatchScheduler s(eng, machine_of(20), preempting_easy());
    for (workload::JobId i = 0; i < 12; ++i) {
      s.submit(native(i, i * 120, 16, 100, 110));
    }
    std::optional<InterstitialDriver> driver;
    if (with_stream) {
      ProjectSpec spec = ProjectSpec::paper(10, 8, 90);
      spec.gate = GatePolicy::kAlways;
      spec.recovery = PreemptionRecovery::kCheckpoint;
      driver.emplace(s, spec, 1000);
    }
    eng.run();
    std::map<workload::JobId, SimTime> starts;
    // Under checkpoint recovery, useful interstitial seconds = completed
    // fragment runtimes + the executed (checkpointed) part of every kill.
    Seconds useful = 0;
    const auto r = s.take_result(20000);
    for (const auto& rec : r.records) {
      if (rec.interstitial()) {
        useful += rec.job.runtime;
      } else {
        starts[rec.job.id] = rec.start;
      }
    }
    for (const auto& rec : r.killed) useful += rec.end - rec.start;
    return std::pair{starts, useful};
  };
  const auto [base_starts, zero] = run_mode(false);
  const auto [with_starts, harvested] = run_mode(true);
  EXPECT_EQ(base_starts, with_starts);      // natives untouched
  EXPECT_EQ(zero, 0);
  EXPECT_EQ(harvested, 10 * 90);  // the project's work is fully conserved
}

TEST(Driver, IdsCountUpFromFirstJobId) {
  sim::Engine eng;
  sched::BatchScheduler s(eng, machine_of(50), easy());
  ProjectSpec spec = ProjectSpec::paper(5, 10, 50);
  InterstitialDriver driver(s, spec, 7777);
  eng.run();
  const auto r = s.take_result(1000);
  std::vector<workload::JobId> ids;
  for (const auto& rec : r.records) ids.push_back(rec.job.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids.front(), 7777u);
  EXPECT_EQ(ids.back(), 7781u);
}

TEST(Driver, AccurateEstimatesBoundDelayToOneInterstitialRuntime) {
  // With *accurate* native estimates (and a stable priority order — one
  // user, no aging) the Figure 1 gate bounds every native delay by one
  // interstitial runtime: a job blocked by scavenged CPUs waits only until
  // that interstitial wave drains.  (With the paper's gross overestimates
  // and fair-share re-prioritization, cascades can exceed this — that is
  // §4.3's point, covered by the integration tests.)
  constexpr Seconds kInterstitialRuntime = 30;
  auto run_natives = [&](bool with_interstitial) {
    sim::Engine eng;
    sched::BatchScheduler s(eng, machine_of(20), easy());
    for (workload::JobId i = 0; i < 12; ++i) {
      s.submit(native(i, i * 40, 5 + static_cast<int>(i % 3) * 5, 120));
    }
    std::optional<InterstitialDriver> d;
    ProjectSpec spec =
        ProjectSpec::continual_stream(4, kInterstitialRuntime, 2000);
    if (with_interstitial) d.emplace(s, spec, 1000);
    eng.run();
    std::map<workload::JobId, SimTime> starts;
    for (const auto& rec : s.take_result(3000).records) {
      if (!rec.interstitial()) starts[rec.job.id] = rec.start;
    }
    return starts;
  };
  const auto base = run_natives(false);
  const auto with = run_natives(true);
  ASSERT_EQ(base.size(), with.size());
  for (const auto& [id, t0] : base) {
    EXPECT_GE(with.at(id), t0) << "job " << id;
    EXPECT_LE(with.at(id), t0 + kInterstitialRuntime) << "job " << id;
  }
}

}  // namespace
}  // namespace istc::core
