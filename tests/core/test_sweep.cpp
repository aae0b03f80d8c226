// SweepRunner determinism: a fork-tree sweep must produce bit-identical
// results at any thread count, and each forked point must match the same
// point re-simulated from scratch — including when the shared prefix
// itself carries a fault process.  This pins the contract the bench exit
// gates (sweep_forks, extension_faults) are built on.

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/presets.hpp"
#include "core/experiment.hpp"
#include "core/fork.hpp"
#include "core/sweep.hpp"
#include "fault/fault.hpp"
#include "trace/tracer.hpp"

namespace istc::core {
namespace {

bool same_records(const std::vector<sched::JobRecord>& a,
                  const std::vector<sched::JobRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].job.id != b[i].job.id || a[i].job.cpus != b[i].job.cpus ||
        a[i].job.submit != b[i].job.submit || a[i].start != b[i].start ||
        a[i].end != b[i].end) {
      return false;
    }
  }
  return true;
}

bool same_run(const sched::RunResult& a, const sched::RunResult& b) {
  return a.sim_end == b.sim_end && same_records(a.records, b.records) &&
         same_records(a.killed, b.killed);
}

Scenario fast_scenario() {
  Scenario s;
  s.site = cluster::Site::kRoss;  // smallest canonical site = fastest run
  s.project = ProjectSpec::continual_stream(
      32, 458, cluster::site_span(cluster::Site::kRoss));
  return s;
}

const double kCaps[] = {0.90, 0.95, 1.0};
constexpr std::size_t kPoints = std::size(kCaps);

// The finish callable shared by every cap-sweep test below: apply point
// i's cap at the fork time, then drain.
sched::RunResult finish_cap(SimRun& run, std::size_t i) {
  if (kCaps[i] < 1.0) run.driver()->set_utilization_cap(kCaps[i]);
  return run.finish();
}

SweepRunner<SimRun> cap_sweep() {
  return SweepRunner<SimRun>(kPoints, [](std::size_t) {
    return std::make_unique<SimRun>(fast_scenario());
  });
}

// Fork mode at 1, 2 and 8 worker threads: the thread count must change
// only the wall clock, never a single record.
TEST(SweepRunner, ForkedResultsIdenticalAcrossThreadCounts) {
  const SimTime t0 = cluster::site_span(cluster::Site::kRoss) / 2;
  auto sweep = cap_sweep();
  sweep.set_threads(1);
  const auto r1 = sweep.run_forked(t0, finish_cap);
  sweep.set_threads(2);
  const auto r2 = sweep.run_forked(t0, finish_cap);
  sweep.set_threads(8);
  const auto r8 = sweep.run_forked(t0, finish_cap);
  ASSERT_EQ(r1.size(), kPoints);
  for (std::size_t i = 0; i < kPoints; ++i) {
    EXPECT_TRUE(same_run(r1[i], r2[i])) << "point " << i << " @2 threads";
    EXPECT_TRUE(same_run(r1[i], r8[i])) << "point " << i << " @8 threads";
  }
  // The capped points genuinely diverged from the uncapped one (else the
  // equality above proves nothing about per-point isolation).
  EXPECT_FALSE(same_run(r1[0], r1[kPoints - 1]));
}

// run_verified is the bench gate: every forked point bit-equal to the
// same point simulated from scratch, with a real speedup measured.
TEST(SweepRunner, VerifiedForkMatchesScratch) {
  const SimTime t0 = cluster::site_span(cluster::Site::kRoss) / 4 * 3;
  auto sweep = cap_sweep();
  sweep.set_threads(1);
  const auto v = sweep.run_verified(t0, finish_cap, same_run);
  EXPECT_TRUE(v.equal);
  ASSERT_EQ(v.forked.size(), kPoints);
  ASSERT_EQ(v.scratch.size(), kPoints);
  EXPECT_GT(v.forked_wall_s, 0.0);
  EXPECT_GT(v.scratch_wall_s, 0.0);
  // Sharing three quarters of the run must buy *some* speedup; the hard
  // 2x floor lives in the bench gates where the geometry is tuned.
  EXPECT_GT(v.speedup(), 1.0);
}

// A faulted shared prefix: the fault process starts before t0, so crash
// and node-failure events are part of the prefix every fork inherits.
// Fork==scratch must still hold bit for bit.
TEST(SweepRunner, VerifiedSweepWithFaultedPrefix) {
  const SimTime span = cluster::site_span(cluster::Site::kRoss);
  const SimTime t0 = span / 2;
  const auto make_faulted = [](std::size_t) {
    auto run = std::make_unique<SimRun>(fast_scenario());
    fault::FaultSpec faults;
    faults.crash_mtbf = 30 * kSecondsPerHour;
    faults.start = 0;
    run->add_faults(faults);
    return run;
  };
  SweepRunner<SimRun> sweep(kPoints, make_faulted);
  sweep.set_threads(2);
  const auto v = sweep.run_verified(t0, finish_cap, same_run);
  EXPECT_TRUE(v.equal);
  // The prefix really faulted (otherwise this is just the clean test).
  SimRun probe(fast_scenario());
  fault::FaultSpec faults;
  faults.crash_mtbf = 30 * kSecondsPerHour;
  faults.start = 0;
  probe.add_faults(faults);
  trace::Tracer tracer(trace::TraceMode::kCountersOnly);
  probe.set_tracer(&tracer);
  probe.run_until(t0);
  EXPECT_GT(tracer.counters().fault_crashes, 0u);
}

// Scratch mode builds one run per point, so points may differ from t=0 —
// the per-seed sweep shape.  Results must land in point order regardless
// of which thread finished first.
TEST(SweepRunner, ScratchModeKeepsPointOrder) {
  const std::uint64_t seeds[] = {1, 2, 3, 4};
  SweepRunner<SimRun> sweep(std::size(seeds), [&](std::size_t i) {
    Scenario s = fast_scenario();
    s.log_seed = seeds[i];
    return std::make_unique<SimRun>(s);
  });
  const auto finish = [&](SimRun& run, std::size_t i) {
    auto result = run.finish();
    // Tag the result with the point index via a probe rerun below.
    (void)i;
    return result;
  };
  sweep.set_threads(4);
  const auto parallel = sweep.run_scratch(0, finish);
  sweep.set_threads(1);
  const auto serial = sweep.run_scratch(0, finish);
  ASSERT_EQ(parallel.size(), std::size(seeds));
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_TRUE(same_run(parallel[i], serial[i])) << "point " << i;
  }
  // Distinct seeds produce distinct schedules, so an ordering bug could
  // not hide behind identical points.
  EXPECT_FALSE(same_run(parallel[0], parallel[1]));
}

// A run whose fork is deliberately slow and whose advancement is fast:
// isolates where SweepRunner's clocks charge the serial fork loop.
struct SleepyRun {
  static constexpr std::chrono::milliseconds kForkDelay{60};
  static constexpr std::chrono::milliseconds kAdvanceDelay{5};
  std::unique_ptr<SleepyRun> fork() {
    std::this_thread::sleep_for(kForkDelay);
    return std::make_unique<SleepyRun>();
  }
  void run_until(SimTime) { std::this_thread::sleep_for(kAdvanceDelay); }
};

// Verified-mode arm clocks compare advancement against advancement: the
// serial fork-creation loop is reported in fork_wall_s and excluded from
// forked_wall_s, so a slow snapshot cannot masquerade as slow simulation
// (or deflate the speedup the bench gates enforce).
TEST(SweepRunner, VerifiedTimingExcludesForkCreation) {
  SweepRunner<SleepyRun> sweep(
      3, [](std::size_t) { return std::make_unique<SleepyRun>(); });
  sweep.set_threads(1);
  const auto v = sweep.run_verified(
      1, [](SleepyRun&, std::size_t i) { return static_cast<int>(i); },
      [](int a, int b) { return a == b; });
  EXPECT_TRUE(v.equal);
  // Three serial forks at 60 ms each are visible in fork_wall_s...
  EXPECT_GE(v.fork_wall_s, 0.15);
  // ...and absent from the forked arm's advancement clock, which saw only
  // one 5 ms prefix run_until plus three trivial finishes.
  EXPECT_LT(v.forked_wall_s, v.fork_wall_s / 2);
  EXPECT_GT(v.scratch_wall_s, 0.0);
}

// The knob-at-fork-time contract in isolation: forked point with the cap
// applied at t0 equals a scratch run advanced to t0 with the same cap.
TEST(SweepRunner, WindowedKnobSemantics) {
  const Scenario scenario = fast_scenario();
  const SimTime t0 = cluster::site_span(scenario.site) / 2;

  SimRun prefix(scenario);
  prefix.run_until(t0);
  auto forked = prefix.fork();
  forked->driver()->set_utilization_cap(0.9);
  const auto via_fork = forked->finish();

  SimRun scratch(scenario);
  scratch.run_until(t0);
  scratch.driver()->set_utilization_cap(0.9);
  const auto via_scratch = scratch.finish();

  EXPECT_TRUE(same_run(via_fork, via_scratch));
  // And it genuinely differs from the uncapped run.
  EXPECT_FALSE(same_run(via_fork, run_scenario(scenario)));
}

}  // namespace
}  // namespace istc::core
