// GridMachine port semantics: a machine with no grid traffic is exactly
// the bare scheduler stack; delivered jobs start through the Figure-1
// gate and report completions with the right harvest charge; kills
// report the checkpoint remainder in machine-neutral cycles; jobs that
// cannot start within the patience window bounce.

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "grid/fleet.hpp"
#include "grid/machine.hpp"
#include "grid/report.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"

namespace istc::grid {
namespace {

constexpr SimTime kSpan = 5000;

workload::Job native(workload::JobId id, SimTime submit, int cpus,
                     Seconds runtime) {
  workload::Job j;
  j.id = id;
  j.submit = submit;
  j.cpus = cpus;
  j.runtime = runtime;
  j.estimate = runtime;
  return j;
}

MachineSetup mini_setup(std::vector<workload::Job> natives) {
  MachineSetup setup;
  setup.spec = {.name = "port-mini", .site = "", .queue_system = "",
                .cpus = 64, .clock_ghz = 1.0};
  setup.natives = workload::JobLog(std::move(natives));
  setup.span = kSpan;
  setup.bounce_patience = 400;
  return setup;
}

TEST(GridMachine, NativeOnlyMatchesBareSchedulerStack) {
  std::vector<workload::Job> jobs;
  for (workload::JobId id = 0; id < 20; ++id)
    jobs.push_back(native(id, id * 37, 1 + static_cast<int>(id % 16),
                          50 + static_cast<Seconds>(id) * 11));

  GridMachine m(mini_setup(jobs));
  m.drain();
  const auto grid_run = m.take_result();

  sim::Engine eng;
  cluster::Machine machine({.name = "port-mini", .site = "",
                            .queue_system = "", .cpus = 64,
                            .clock_ghz = 1.0},
                           {});
  sched::BatchScheduler s(eng, machine, {});
  s.load(workload::JobLog(jobs));
  eng.run();
  const auto bare_run = s.take_result(kSpan);

  EXPECT_EQ(hash_run(grid_run), hash_run(bare_run));
  EXPECT_EQ(grid_run.native_count(), 20u);
}

TEST(GridMachine, DeliveredJobStartsAndReportsCompletion) {
  GridMachine m(mini_setup({}));  // empty queue: gate is open
  GridJob job;
  job.gid = 7;
  job.cpus = 8;
  job.work_per_cpu = m.machine().spec().cycles_in(600);

  m.deliver(100, job);
  EXPECT_EQ(m.port_stats().delivered, 1u);

  m.advance(100);  // landing event triggers the pass that starts it
  EXPECT_EQ(m.port_stats().started, 1u);
  EXPECT_TRUE(m.collect_reports(100).empty());  // still running

  // Exactly-known end: 100 + 600.
  EXPECT_EQ(m.next_report_time(101), 700);
  m.advance(700);
  const auto reports = m.collect_reports(700);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].kind, ReportKind::kCompleted);
  EXPECT_EQ(reports[0].job.gid, 7u);
  EXPECT_EQ(reports[0].time, 700);
  EXPECT_EQ(reports[0].cpu_sec, 8u * 600u);
  EXPECT_EQ(m.port_stats().completed, 1u);
}

TEST(GridMachine, GateRefusesWhenNativeWouldBeDelayed) {
  // One 64-wide native queued to start at t=300: the gate protects it, so
  // a 600 s grid job delivered at t=100 must not start, and bounces once
  // its patience (400 s) expires.
  std::vector<workload::Job> jobs = {native(0, 0, 64, 300),
                                     native(1, 0, 64, 2000)};
  GridMachine m(mini_setup(jobs));
  GridJob job;
  job.gid = 9;
  job.cpus = 4;
  job.work_per_cpu = m.machine().spec().cycles_in(600);

  m.deliver(100, job);
  m.advance(100);
  EXPECT_EQ(m.port_stats().started, 0u);

  const SimTime deadline = m.next_report_time(101);
  EXPECT_EQ(deadline, 500);  // arrived 100 + patience 400
  m.advance(deadline);
  const auto reports = m.collect_reports(deadline);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].kind, ReportKind::kBounced);
  EXPECT_EQ(reports[0].cpu_sec, 0u);
  EXPECT_EQ(m.port_stats().bounced, 1u);
}

TEST(GridMachine, PreemptionKillReportsCheckpointRemainder) {
  // Grid job starts at t=10 on an idle machine; a 64-wide native arriving
  // at t=1000 preempts it.  With a 400 s checkpoint cadence the kill
  // loses only work since the last checkpoint.
  std::vector<workload::Job> jobs = {native(0, 1000, 64, 500)};
  auto setup = mini_setup(jobs);
  setup.policy.preempt_interstitial = true;

  GridMachine m(std::move(setup));
  const auto& spec = m.machine().spec();
  GridJob job;
  job.gid = 3;
  job.cpus = 8;
  job.work_per_cpu = spec.cycles_in(3000);
  job.checkpoint = 400;

  m.deliver(10, job);
  m.advance(2000);
  const auto reports = m.collect_reports(2000);
  ASSERT_EQ(reports.size(), 1u);
  const auto& r = reports[0];
  EXPECT_EQ(r.kind, ReportKind::kKilled);
  EXPECT_EQ(r.time, 1000);
  // Started at 10, killed at 1000: 990 s elapsed, checkpointed at 800.
  EXPECT_EQ(r.cpu_sec, 8u * 990u);
  EXPECT_EQ(r.job.work_per_cpu, spec.cycles_in(3000) - spec.cycles_in(800));
  EXPECT_EQ(r.job.checkpoint, 400);
  EXPECT_EQ(m.port_stats().killed, 1u);
}

TEST(GridMachine, LocalModeRejectsRoutedTraffic) {
  auto setup = mini_setup({});
  setup.local_project = core::ProjectSpec::continual_stream(8, 120, kSpan);
  GridMachine m(std::move(setup));
  EXPECT_FALSE(m.accepts_routed());
  EXPECT_NE(m.driver(), nullptr);
}

TEST(GridMachine, LookaheadSeesQueuedNativeLoad) {
  // A 64-wide native running [0, 1000) leaves no free CPUs in that window
  // but a full machine afterwards.
  std::vector<workload::Job> jobs = {native(0, 0, 64, 1000)};
  GridMachine m(mini_setup(jobs));
  m.advance(1);
  EXPECT_EQ(m.lookahead_min_free(1, 500), 0);
  EXPECT_EQ(m.lookahead_min_free(1500, 500), 64);
}

TEST(GridReport, MachineNameIsJsonEscaped) {
  // The fleet report quotes machine names with the same escaper as the
  // RunReport: no raw tab or newline may reach the document.
  FleetMachineOutcome machine;
  machine.run.machine = {.name = "a\"b\\c\td\n", .site = "",
                         .queue_system = "", .cpus = 4, .clock_ghz = 1.0};
  machine.run.span = 100;
  FleetResult fleet;
  fleet.machines.push_back(machine);
  std::ostringstream out;
  write_fleet_report(out, fleet);
  const std::string doc = out.str();
  EXPECT_NE(doc.find(R"({"name": "a\"b\\c\td\n")"), std::string::npos)
      << doc;
  EXPECT_EQ(doc.find('\t'), std::string::npos) << doc;
}

}  // namespace
}  // namespace istc::grid
