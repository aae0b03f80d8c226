// FleetRun fork-tree contract: forking a whole brokered fleet mid-run and
// draining the fork must be bit-identical to never having forked, knob
// setters applied at a boundary must equal a scratch run with the knob set
// at the same boundary, and a SweepRunner<FleetRun> must be thread-count
// invariant.  Also pins the batched-delivery counters: every job arrives
// through a packed DeliverySpan, many jobs per timed arrival event.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/sweep.hpp"
#include "grid/fleet.hpp"
#include "util/rng.hpp"

namespace istc::grid {
namespace {

constexpr SimTime kSpan = 6000;

std::vector<workload::Job> random_natives(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<workload::Job> jobs;
  SimTime submit = 0;
  for (workload::JobId id = 0; id < 150; ++id) {
    submit += static_cast<SimTime>(rng.below(80));
    workload::Job j;
    j.id = id;
    j.submit = submit;
    j.cpus = 1 + static_cast<int>(rng.below(32));
    j.runtime = 20 + static_cast<Seconds>(rng.below(400));
    j.estimate = j.runtime * (1 + static_cast<Seconds>(rng.below(4)));
    j.user = static_cast<workload::UserId>(rng.below(5));
    jobs.push_back(j);
  }
  return jobs;
}

// Three brokered miniature machines (the ShardThreadCountIsInvisible
// fleet), kept small so every test runs in milliseconds.  With `faults`,
// every machine also loses 48-CPU nodes (MTBF 120 s) until t = 5000,
// inside the span, so faults are still pending at every fork time.
std::vector<MachineSetup> mini_fleet(bool faults = false) {
  std::vector<MachineSetup> fleet;
  for (std::uint64_t seed : {42ull, 43ull, 44ull}) {
    MachineSetup setup;
    setup.spec = {.name = "mini-" + std::to_string(seed), .site = "",
                  .queue_system = "", .cpus = 64, .clock_ghz = 1.0};
    setup.downtime = cluster::DowntimeCalendar({{2000, 2400}, {4500, 4800}});
    setup.policy.preempt_interstitial = true;
    setup.natives = workload::JobLog(random_natives(seed));
    setup.span = kSpan;
    setup.bounce_patience = 300;
    if (faults) {
      setup.faults.seed = seed;
      setup.faults.node_mtbf = 120;
      setup.faults.node_repair = 120;
      setup.faults.node_cpus = 48;
      setup.faults.stop = 5000;
    }
    fleet.push_back(std::move(setup));
  }
  return fleet;
}

std::unique_ptr<FleetRun> mini_run(BrokerPolicy policy = BrokerPolicy::kBestFit,
                                   std::size_t threads = 1,
                                   bool faults = false) {
  FleetConfig cfg;
  cfg.broker.policy = policy;
  cfg.threads = threads;
  return std::make_unique<FleetRun>(
      mini_fleet(faults), sweep_projects(3, 25, 3 * 64, 0.5, 0xFEEDu), cfg);
}

bool same_fleet(const FleetResult& a, const FleetResult& b) {
  if (a.hash != b.hash || a.epochs != b.epochs || a.sim_end != b.sim_end ||
      a.ledgers.size() != b.ledgers.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.ledgers.size(); ++i) {
    if (a.ledgers[i].routed != b.ledgers[i].routed ||
        a.ledgers[i].completed != b.ledgers[i].completed ||
        a.ledgers[i].abandoned() != b.ledgers[i].abandoned() ||
        a.ledgers[i].harvested_cpu_sec != b.ledgers[i].harvested_cpu_sec) {
      return false;
    }
  }
  return true;
}

// FleetRun with no intervening fork must reproduce run_fleet exactly —
// the two epoch loops are one implementation.
TEST(FleetFork, FleetRunMatchesRunFleet) {
  const auto via_run_fleet =
      run_fleet(mini_fleet(), sweep_projects(3, 25, 3 * 64, 0.5, 0xFEEDu));
  const auto via_fleet_run = mini_run()->finish();
  EXPECT_TRUE(same_fleet(via_run_fleet, via_fleet_run));
  EXPECT_GT(via_fleet_run.dispatches(), 0u);
}

// The core contract: fork the whole fleet at a mid boundary, drain both
// sides, get the same answer as never having forked.  The faulted input
// also forks every machine's injector mid-timeline, and every grid job a
// failure (or a preempting native) kills must reach the broker as one
// port kill report.
TEST(FleetFork, ForkMatchesUnforkedAtSeveralTimes) {
  for (const bool faults : {false, true}) {
    auto whole = mini_run(BrokerPolicy::kBestFit, 1, faults);
    const auto scratch = whole->finish();
    for (const SimTime t0 : {kSpan / 4, kSpan / 2, kSpan / 4 * 3}) {
      auto prefix = mini_run(BrokerPolicy::kBestFit, 1, faults);
      prefix->run_until(t0);
      auto forked = prefix->fork();
      // Fork finishes first: its result must not depend on the source's
      // subsequent progress.
      EXPECT_TRUE(same_fleet(forked->finish(), scratch))
          << "fork @" << t0 << " faults " << faults;
      EXPECT_TRUE(same_fleet(prefix->finish(), scratch))
          << "source @" << t0 << " faults " << faults;
    }
    if (!faults) continue;
    std::size_t fired = 0, grid_jobs_hit = 0, port_kills = 0;
    for (std::size_t m = 0; m < whole->machine_count(); ++m) {
      ASSERT_NE(whole->machine(m).injector(), nullptr);
      const FleetMachineOutcome& out = scratch.machines[m];
      // Every grid machine counts into its own tracer (RunResult::trace).
      fired += out.run.trace.fault_node_failures;
      grid_jobs_hit += out.run.trace.fault_killed_interstitial;
      std::size_t grid_kills = 0;
      for (const auto& k : out.run.killed) grid_kills += k.interstitial();
      EXPECT_EQ(out.port.killed, grid_kills) << out.name;
      port_kills += out.port.killed;
    }
    EXPECT_GT(fired, 0u);
    EXPECT_GT(grid_jobs_hit, 0u);
    EXPECT_GT(port_kills, 0u);
  }
}

// Knob-at-boundary equivalence: a fork that flips the routing policy at
// its boundary equals a scratch FleetRun advanced to the same boundary
// with the same setter applied there.
TEST(FleetFork, PolicyKnobAtBoundaryMatchesScratch) {
  const SimTime t0 = kSpan / 2;
  auto prefix = mini_run();
  prefix->run_until(t0);
  auto forked = prefix->fork();
  forked->set_policy(BrokerPolicy::kRoundRobin);
  const auto via_fork = forked->finish();

  auto scratch = mini_run();
  scratch->run_until(t0);
  scratch->set_policy(BrokerPolicy::kRoundRobin);
  const auto via_scratch = scratch->finish();

  EXPECT_TRUE(same_fleet(via_fork, via_scratch));
}

TEST(FleetFork, QuotaKnobAtBoundaryMatchesScratch) {
  const SimTime t0 = kSpan / 2;
  auto prefix = mini_run();
  prefix->run_until(t0);
  auto forked = prefix->fork();
  for (std::size_t p = 0; p < 3; ++p) forked->set_project_quota(p, 32);
  const auto via_fork = forked->finish();

  auto scratch = mini_run();
  scratch->run_until(t0);
  for (std::size_t p = 0; p < 3; ++p) scratch->set_project_quota(p, 32);
  const auto via_scratch = scratch->finish();

  EXPECT_TRUE(same_fleet(via_fork, via_scratch));
}

// A SweepRunner over whole-fleet forks: results identical at 1, 2 and 8
// sweep threads, and each point identical to its scratch twin.
TEST(FleetFork, SweepRunnerOverFleetIsThreadInvariant) {
  const BrokerPolicy policies[] = {BrokerPolicy::kBestFit,
                                   BrokerPolicy::kRoundRobin,
                                   BrokerPolicy::kLeastLoaded};
  const SimTime t0 = kSpan / 2;
  const auto finish = [&](FleetRun& run, std::size_t i) {
    run.set_policy(policies[i]);
    return run.finish();
  };
  core::SweepRunner<FleetRun> sweep(
      std::size(policies), [](std::size_t) { return mini_run(); });
  sweep.set_threads(1);
  const auto v = sweep.run_verified(t0, finish, same_fleet);
  EXPECT_TRUE(v.equal);
  sweep.set_threads(2);
  const auto r2 = sweep.run_forked(t0, finish);
  sweep.set_threads(8);
  const auto r8 = sweep.run_forked(t0, finish);
  for (std::size_t i = 0; i < std::size(policies); ++i) {
    EXPECT_TRUE(same_fleet(v.forked[i], r2[i])) << "point " << i;
    EXPECT_TRUE(same_fleet(v.forked[i], r8[i])) << "point " << i;
  }
}

// Batched deliveries: every delivered job arrives inside a packed span,
// spans carry more than one job on average (the message-batching win),
// and a forked fleet sees the same delivery stream as its source.
TEST(FleetFork, DeliveriesArriveBatched) {
  auto run = mini_run();
  run->run_until(kSpan / 2);
  auto forked = run->fork();
  (void)forked->finish();
  (void)run->finish();

  std::size_t delivered = 0, batches = 0;
  std::size_t delivered_f = 0, batches_f = 0;
  for (std::size_t m = 0; m < run->machine_count(); ++m) {
    delivered += run->machine(m).port_stats().delivered;
    batches += run->machine(m).delivery_batches();
    delivered_f += forked->machine(m).port_stats().delivered;
    batches_f += forked->machine(m).delivery_batches();
  }
  EXPECT_GT(delivered, 0u);
  EXPECT_GT(batches, 0u);
  EXPECT_LE(batches, delivered);  // a span never holds fewer than one job
  EXPECT_EQ(delivered, delivered_f);
  EXPECT_EQ(batches, batches_f);
}

}  // namespace
}  // namespace istc::grid
