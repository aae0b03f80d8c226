// The preemptible-interstitial extension: natives evict scavenger jobs
// instead of waiting on them (beyond the paper, whose jobs never preempt).

#include <gtest/gtest.h>

#include <map>

#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "trace/tracer.hpp"

namespace istc::sched {
namespace {

using workload::Job;
using workload::JobClass;

cluster::Machine machine_of(int cpus) {
  return cluster::Machine({.name = "p", .site = "", .queue_system = "",
                           .cpus = cpus, .clock_ghz = 1.0});
}

PolicySpec preempting_policy() {
  PolicySpec p;
  p.preempt_interstitial = true;
  p.fairshare.age_weight_per_hour = 0.0;
  p.fairshare.size_weight = 0.0;
  return p;
}

Job native_job(workload::JobId id, SimTime submit, int cpus, Seconds run) {
  Job j;
  j.id = id;
  j.submit = submit;
  j.cpus = cpus;
  j.runtime = run;
  j.estimate = run;
  return j;
}

Job interstitial_job(workload::JobId id, int cpus, Seconds run) {
  Job j = native_job(id, 0, cpus, run);
  j.klass = JobClass::kInterstitial;
  return j;
}

// Fill the machine with interstitial jobs at t=0, then watch a native
// arrival evict exactly enough of them.
struct Harness {
  sim::Engine eng;
  BatchScheduler sched;
  explicit Harness(PolicySpec policy, int cpus = 20)
      : sched(eng, machine_of(cpus), std::move(policy)) {}
};

TEST(Preemption, NativeStartsImmediatelyByEvicting) {
  Harness s(preempting_policy());
  trace::Tracer tracer(trace::TraceMode::kCountersOnly);
  s.sched.set_tracer(&tracer);
  s.eng.run(0);
  for (workload::JobId i = 100; i < 105; ++i) {
    ASSERT_TRUE(s.sched.try_start_immediately(interstitial_job(i, 4, 500)));
  }
  s.eng.schedule_wake(0);
  s.sched.submit(native_job(0, 10, 12, 100));
  s.eng.run();
  const auto r = s.sched.take_result(1000);
  // The native started at its submit time, not at the interstitial drain.
  SimTime native_start = -1;
  for (const auto& rec : r.records) {
    if (!rec.interstitial()) native_start = rec.start;
  }
  EXPECT_EQ(native_start, 10);
  // Exactly 3 victims (12 CPUs needed, 4 per victim; 0 free).
  EXPECT_EQ(r.killed.size(), 3u);
  EXPECT_EQ(tracer.summary().interstitial_killed, 3u);
  // Survivors completed normally.
  EXPECT_EQ(r.interstitial_count(), 2u);
}

TEST(Preemption, KilledRecordsCarryPartialExecution) {
  Harness s(preempting_policy());
  s.eng.run(0);
  ASSERT_TRUE(s.sched.try_start_immediately(interstitial_job(100, 20, 500)));
  s.eng.schedule_wake(0);
  s.sched.submit(native_job(0, 42, 20, 100));
  s.eng.run();
  const auto r = s.sched.take_result(1000);
  ASSERT_EQ(r.killed.size(), 1u);
  EXPECT_EQ(r.killed[0].start, 0);
  EXPECT_EQ(r.killed[0].end, 42);  // killed at the native's arrival
  EXPECT_DOUBLE_EQ(r.wasted_cpu_seconds(), 20.0 * 42.0);
}

TEST(Preemption, DisabledPolicyNeverKills) {
  PolicySpec p = preempting_policy();
  p.preempt_interstitial = false;
  Harness s(std::move(p));
  s.eng.run(0);
  ASSERT_TRUE(s.sched.try_start_immediately(interstitial_job(100, 20, 500)));
  s.eng.schedule_wake(0);
  s.sched.submit(native_job(0, 10, 20, 100));
  s.eng.run();
  const auto r = s.sched.take_result(1000);
  EXPECT_TRUE(r.killed.empty());
  SimTime native_start = -1;
  for (const auto& rec : r.records) {
    if (!rec.interstitial()) native_start = rec.start;
  }
  EXPECT_EQ(native_start, 500);  // had to wait out the scavenger
}

TEST(Preemption, YoungestVictimsDieFirst) {
  Harness s(preempting_policy());
  s.eng.run(0);
  ASSERT_TRUE(s.sched.try_start_immediately(interstitial_job(100, 8, 500)));
  s.eng.schedule_wake(0);
  s.eng.run(50);
  ASSERT_TRUE(s.sched.try_start_immediately(interstitial_job(101, 8, 500)));
  s.eng.schedule_wake(50);
  // Native needs 12: one victim (8) + 4 free suffices -> kill only #101.
  s.sched.submit(native_job(0, 100, 12, 50));
  s.eng.run();
  const auto r = s.sched.take_result(2000);
  ASSERT_EQ(r.killed.size(), 1u);
  EXPECT_EQ(r.killed[0].job.id, 101u);  // the younger one
}

TEST(Preemption, NativesNeverKillNatives) {
  Harness s(preempting_policy());
  s.sched.submit(native_job(0, 0, 20, 300));
  s.sched.submit(native_job(1, 10, 20, 50));
  s.eng.run();
  const auto r = s.sched.take_result(1000);
  EXPECT_TRUE(r.killed.empty());
  // Job 1 waited for job 0's completion like any batch job.
  for (const auto& rec : r.records) {
    if (rec.job.id == 1) {
      EXPECT_EQ(rec.start, 300);
    }
  }
}

TEST(Preemption, NoSpuriousKillsWhenEvictionCannotHelp) {
  // Native needs 20; interstitial holds 8 and a native holds 12: evicting
  // all scavengers still leaves only 8 free -> nothing should die yet.
  Harness s(preempting_policy());
  s.sched.submit(native_job(0, 0, 12, 300));
  s.eng.run(1);
  ASSERT_TRUE(s.sched.try_start_immediately(interstitial_job(100, 8, 100)));
  s.eng.schedule_wake(1);
  s.sched.submit(native_job(1, 10, 20, 50));
  s.eng.run(200);
  EXPECT_TRUE(s.sched.killed_records().empty());
  s.eng.run();
  s.sched.take_result(2000);
}

TEST(Preemption, StaleCompletionEventIsHarmless) {
  // After a kill, the victim's completion event still fires at its
  // original end time; the scheduler must swallow it exactly once.
  Harness s(preempting_policy());
  s.eng.run(0);
  ASSERT_TRUE(s.sched.try_start_immediately(interstitial_job(100, 20, 500)));
  s.eng.schedule_wake(0);
  s.sched.submit(native_job(0, 10, 20, 100));
  s.eng.run();  // drains past t=500 without aborting
  const auto r = s.sched.take_result(1000);
  EXPECT_EQ(r.killed.size(), 1u);
  EXPECT_EQ(r.interstitial_count(), 0u);
}

TEST(Preemption, MachineNeverOversubscribedAroundKills) {
  Harness s(preempting_policy(), 16);
  // A rolling scavenger load plus native arrivals that evict repeatedly.
  s.eng.run(0);
  for (workload::JobId i = 100; i < 104; ++i) {
    ASSERT_TRUE(s.sched.try_start_immediately(interstitial_job(i, 4, 300)));
  }
  s.eng.schedule_wake(0);
  for (workload::JobId i = 0; i < 5; ++i) {
    s.sched.submit(native_job(i, 20 + i * 40, 8, 30));
  }
  s.eng.run();
  const auto r = s.sched.take_result(2000);
  // Rebuild occupancy from completed + killed records.
  std::map<SimTime, int> delta;
  for (const auto& rec : r.records) {
    delta[rec.start] += rec.job.cpus;
    delta[rec.end] -= rec.job.cpus;
  }
  for (const auto& rec : r.killed) {
    delta[rec.start] += rec.job.cpus;
    delta[rec.end] -= rec.job.cpus;
  }
  int busy = 0;
  for (const auto& [t, d] : delta) {
    busy += d;
    ASSERT_LE(busy, 16) << "oversubscribed at " << t;
    ASSERT_GE(busy, 0);
  }
}

}  // namespace
}  // namespace istc::sched
