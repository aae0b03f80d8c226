#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/driver.hpp"
#include "sim/engine.hpp"
#include "trace/tracer.hpp"

// Unit and miniature tests for the unplanned-failure layer: fail_capacity
// kill/repair mechanics, the injector's native resubmission, the driver's
// retry / checkpoint accounting, and determinism of faulty runs.

namespace istc::fault {
namespace {

cluster::Machine machine_of(int cpus) {
  return cluster::Machine({.name = "m", .site = "", .queue_system = "",
                           .cpus = cpus, .clock_ghz = 1.0},
                          {});
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

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t hash_run(const sched::RunResult& run) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto* list : {&run.records, &run.killed}) {
    for (const auto& r : *list) {
      h = fnv1a_u64(h, static_cast<std::uint64_t>(r.job.id));
      h = fnv1a_u64(h, static_cast<std::uint64_t>(r.start));
      h = fnv1a_u64(h, static_cast<std::uint64_t>(r.end));
      h = fnv1a_u64(h, static_cast<std::uint64_t>(r.job.cpus));
    }
  }
  h = fnv1a_u64(h, static_cast<std::uint64_t>(run.sim_end));
  return h;
}

TEST(FaultSpec, DefaultIsInert) {
  FaultSpec spec;
  EXPECT_FALSE(spec.enabled());
  spec.check();  // a disabled spec needs no stop bound
}

TEST(FaultSpec, EnabledNeedsFiniteStop) {
  FaultSpec spec;
  spec.crash_mtbf = kSecondsPerWeek;
  EXPECT_TRUE(spec.enabled());
#ifdef GTEST_HAS_DEATH_TEST
  EXPECT_DEATH(spec.check(), "");
#endif
  spec.stop = 30 * kSecondsPerDay;
  spec.check();
}

// fail_capacity kills youngest-first (natives included), fires the kill
// hook exactly once per killed record, and gives the CPUs back at repair.
TEST(FailCapacity, KillsYoungestFirstAndRepairs) {
  sim::Engine eng;
  sched::BatchScheduler s(eng, machine_of(10), easy());
  s.submit(native(0, 0, 4, 200));
  s.submit(native(1, 0, 3, 200));
  s.submit(native(2, 10, 3, 200));

  std::vector<workload::JobId> hook_kills;
  s.set_kill_hook([&](const sched::JobRecord& r, sched::KillReason reason) {
    EXPECT_EQ(reason, sched::KillReason::kNodeFailure);
    hook_kills.push_back(r.job.id);
  });

  std::vector<sched::JobRecord> victims;
  eng.run(50);
  victims = s.fail_capacity(5, 100, sched::KillReason::kNodeFailure);
  EXPECT_EQ(s.failed_cpus(), 5);
  eng.schedule_wake(50);
  bool checked_mid_outage = false;
  eng.run(70);
  EXPECT_EQ(s.failed_cpus(), 5);
  checked_mid_outage = true;
  eng.schedule_wake(70);
  eng.run();

  // Free pool was 0; killing job 2 (start 10, youngest) frees 3 < 5, so
  // job 1 (same start as 0 but higher id) dies too.  Job 0 survives.
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0].job.id, 2u);
  EXPECT_EQ(victims[1].job.id, 1u);
  EXPECT_EQ(victims[0].end, 50);
  EXPECT_EQ(hook_kills, (std::vector<workload::JobId>{2, 1}));
  EXPECT_TRUE(checked_mid_outage);
  EXPECT_EQ(s.failed_cpus(), 0);  // repaired at t=100

  const auto run = s.take_result(1000);
  ASSERT_EQ(run.records.size(), 1u);
  EXPECT_EQ(run.records[0].job.id, 0u);
  EXPECT_EQ(run.records[0].end, 200);
  ASSERT_EQ(run.killed.size(), 2u);
}

TEST(FailCapacity, SpareCpusAbsorbOutageWithoutKills) {
  sim::Engine eng;
  sched::BatchScheduler s(eng, machine_of(10), easy());
  s.submit(native(0, 0, 4, 200));
  int hook_fired = 0;
  s.set_kill_hook(
      [&](const sched::JobRecord&, sched::KillReason) { ++hook_fired; });
  std::size_t victims = 99;
  eng.run(50);
  victims = s.fail_capacity(6, 100, sched::KillReason::kNodeFailure).size();
  eng.schedule_wake(50);
  eng.run();
  EXPECT_EQ(victims, 0u);
  EXPECT_EQ(hook_fired, 0);
  const auto run = s.take_result(1000);
  EXPECT_EQ(run.records.size(), 1u);
  EXPECT_EQ(run.killed.size(), 0u);
}

// The injector resubmits a crash-killed native with its original estimate;
// the rerun completes after repair under a fresh id (a reused id would let
// the dead original's stale finish event complete the replacement early).
TEST(FaultInjector, CrashedNativeIsResubmittedAndReruns) {
  sim::Engine eng;
  sched::BatchScheduler s(eng, machine_of(10), easy());
  trace::Tracer tracer(trace::TraceMode::kCountersOnly);
  s.set_tracer(&tracer);
  s.submit(native(7, 0, 10, 500));

  FaultSpec spec;
  spec.seed = 3;
  spec.crash_mtbf = 1;
  spec.crash_repair = 50;
  spec.start = 100;
  spec.stop = 110;
  FaultInjector injector(s, spec);
  ASSERT_GE(injector.scheduled_faults(), 1u);

  eng.run();
  const auto run = s.take_result(1000);

  const auto& c = run.trace;
  EXPECT_EQ(c.fault_crashes, injector.scheduled_faults());
  EXPECT_EQ(c.faults_injected, injector.scheduled_faults());
  EXPECT_EQ(c.fault_killed_native, 1u);
  EXPECT_EQ(c.fault_native_resubmits, 1u);
  ASSERT_EQ(run.killed.size(), 1u);
  EXPECT_EQ(run.killed[0].job.id, 7u);
  // Killed at the first crash (t > 100) after starting at 0: every CPU
  // of the executed prefix is lost.
  EXPECT_EQ(c.fault_cpu_sec_lost,
            10u * static_cast<std::uint64_t>(run.killed[0].end));

  ASSERT_EQ(run.records.size(), 1u);
  const auto& rerun = run.records[0];
  EXPECT_GE(rerun.job.id, 0xF0000000u);  // fresh id, not 7
  EXPECT_EQ(rerun.job.cpus, 10);
  EXPECT_EQ(rerun.job.runtime, 500);              // restart from scratch
  EXPECT_EQ(rerun.end - rerun.start, 500);
  EXPECT_GT(rerun.start, run.killed[0].end);      // after the repair
}

// Driver retry with checkpointing: runtime 100, checkpoint every 30 s,
// killed at t=50 -> 30 s survive, 20 s are lost, and a 70 s remainder is
// resubmitted once the 10 s backoff expires.
TEST(FaultRetry, CheckpointRetryResubmitsRemainder) {
  sim::Engine eng;
  sched::BatchScheduler s(eng, machine_of(10), easy());
  trace::Tracer tracer(trace::TraceMode::kCountersOnly);
  s.set_tracer(&tracer);

  core::ProjectSpec spec = core::ProjectSpec::paper(1, 10, 100);
  spec.fault_retry.max_retries = 3;
  spec.fault_retry.backoff = 10;
  spec.fault_retry.checkpoint_interval = 30;
  core::InterstitialDriver driver(s, spec, 1000);

  eng.run(50);
  s.fail_capacity(10, 55, sched::KillReason::kMachineCrash);
  eng.schedule_wake(50);
  eng.run();
  const auto run = s.take_result(1000);

  ASSERT_EQ(run.killed.size(), 1u);
  EXPECT_EQ(run.killed[0].end - run.killed[0].start, 50);
  ASSERT_EQ(run.records.size(), 1u);
  EXPECT_EQ(run.records[0].job.runtime, 70);  // remainder only
  EXPECT_EQ(run.records[0].start, 60);        // kill + backoff
  EXPECT_EQ(run.records[0].end, 130);

  EXPECT_EQ(driver.fault_retries_pending(), 0u);
  const auto& c = run.trace;
  EXPECT_EQ(c.fault_killed_interstitial, 1u);
  EXPECT_EQ(c.fault_cpu_sec_lost, 10u * 20u);
  EXPECT_EQ(c.fault_cpu_sec_recovered, 10u * 30u);
  EXPECT_EQ(c.fault_retries, 1u);
  EXPECT_EQ(c.fault_retries_exhausted, 0u);
}

TEST(FaultRetry, ZeroRetriesAbandonsTheLineage) {
  sim::Engine eng;
  sched::BatchScheduler s(eng, machine_of(10), easy());
  trace::Tracer tracer(trace::TraceMode::kCountersOnly);
  s.set_tracer(&tracer);

  core::ProjectSpec spec = core::ProjectSpec::paper(1, 10, 100);
  spec.fault_retry.max_retries = 0;
  core::InterstitialDriver driver(s, spec, 1000);

  eng.run(50);
  s.fail_capacity(10, 55, sched::KillReason::kNodeFailure);
  eng.schedule_wake(50);
  eng.run();
  const auto run = s.take_result(1000);

  EXPECT_EQ(run.records.size(), 0u);  // nothing ever completes
  ASSERT_EQ(run.killed.size(), 1u);
  EXPECT_EQ(driver.fault_retries_pending(), 0u);
  EXPECT_EQ(run.trace.fault_retries_exhausted, 1u);
  // No checkpointing: the whole 50 executed seconds are lost.
  EXPECT_EQ(run.trace.fault_cpu_sec_lost, 10u * 50u);
  EXPECT_EQ(run.trace.fault_cpu_sec_recovered, 0u);
}

// The satellite accounting miniature: a continual stream under repeated
// node failures.  Every killed record's occupied cpu-time must be fully
// classified as lost or recovered-by-checkpoint (useful + lost + recovered
// = occupied), and each killed record is counted exactly once.
TEST(FaultAccounting, CpuTimeConservesAcrossKills) {
  sim::Engine eng;
  sched::BatchScheduler s(eng, machine_of(20), easy());
  trace::Tracer tracer(trace::TraceMode::kCountersOnly);
  s.set_tracer(&tracer);

  core::ProjectSpec spec = core::ProjectSpec::continual_stream(5, 60, 4000);
  spec.fault_retry.max_retries = 2;
  spec.fault_retry.backoff = 15;
  spec.fault_retry.checkpoint_interval = 25;
  core::InterstitialDriver driver(s, spec, 1000);

  FaultSpec faults;
  faults.seed = 11;
  faults.node_mtbf = 300;
  faults.node_repair = 100;
  faults.node_cpus = 7;
  faults.stop = 4000;
  FaultInjector injector(s, faults);
  ASSERT_GT(injector.scheduled_faults(), 5u);

  eng.run();
  const auto run = s.take_result(4000);

  ASSERT_GT(run.killed.size(), 0u);
  ASSERT_GT(run.records.size(), 0u);

  std::uint64_t occupied_by_killed = 0;
  double useful = 0;
  for (const auto& r : run.killed) {
    EXPECT_TRUE(r.interstitial());
    occupied_by_killed += static_cast<std::uint64_t>(r.job.cpus) *
                          static_cast<std::uint64_t>(r.end - r.start);
  }
  for (const auto& r : run.records) {
    EXPECT_EQ(r.end - r.start, r.job.runtime);
    useful += r.cpu_seconds();
  }
  const auto& c = run.trace;
  // Occupied cpu-time of killed jobs splits exactly into lost work and
  // checkpoint-recovered work; completed jobs are the useful remainder.
  EXPECT_EQ(c.fault_cpu_sec_lost + c.fault_cpu_sec_recovered,
            occupied_by_killed);
  EXPECT_GT(c.fault_cpu_sec_recovered, 0u);
  EXPECT_GT(useful, 0.0);
  EXPECT_EQ(c.fault_killed_interstitial, run.killed.size());
  EXPECT_EQ(c.fault_killed_native, 0u);
  EXPECT_EQ(c.interstitial_killed, 0u);  // no preemption, faults only
  EXPECT_EQ(c.faults_injected, injector.scheduled_faults());
}

sched::RunResult faulty_miniature(std::uint64_t fault_seed,
                                  bool attach_injector = true) {
  sim::Engine eng;
  sched::BatchScheduler s(eng, machine_of(20), easy());
  s.submit(native(0, 0, 8, 900));
  s.submit(native(1, 300, 12, 400));
  core::ProjectSpec spec = core::ProjectSpec::continual_stream(5, 60, 3000);
  spec.fault_retry.checkpoint_interval = 25;
  core::InterstitialDriver driver(s, spec, 1000);
  FaultSpec faults;
  faults.seed = fault_seed;
  if (attach_injector) {
    faults.crash_mtbf = 900;
    faults.node_mtbf = 450;
    faults.node_cpus = 6;
    faults.node_repair = 120;
    faults.crash_repair = 200;
    faults.stop = 3000;
  }
  std::optional<FaultInjector> injector;
  if (faults.enabled()) injector.emplace(s, faults);
  eng.run();
  return s.take_result(3000);
}

TEST(FaultDeterminism, SameSeedSameSchedule) {
  const auto a = faulty_miniature(5);
  const auto b = faulty_miniature(5);
  EXPECT_EQ(hash_run(a), hash_run(b));
  EXPECT_GT(a.killed.size(), 0u);
}

TEST(FaultDeterminism, DifferentSeedDifferentSchedule) {
  EXPECT_NE(hash_run(faulty_miniature(5)), hash_run(faulty_miniature(6)));
}

TEST(FaultDeterminism, DisabledSpecMatchesFaultFreeRun) {
  // A disabled FaultSpec schedules nothing: bit-identical to no injector.
  const auto off = faulty_miniature(5, /*attach_injector=*/false);
  EXPECT_EQ(off.killed.size(), 0u);
  sim::Engine eng;
  sched::BatchScheduler s(eng, machine_of(20), easy());
  s.submit(native(0, 0, 8, 900));
  s.submit(native(1, 300, 12, 400));
  core::ProjectSpec spec = core::ProjectSpec::continual_stream(5, 60, 3000);
  spec.fault_retry.checkpoint_interval = 25;
  core::InterstitialDriver driver(s, spec, 1000);
  eng.run();
  EXPECT_EQ(hash_run(s.take_result(3000)), hash_run(off));
}

}  // namespace
}  // namespace istc::fault
