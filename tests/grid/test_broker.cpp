// Broker safety properties, from both ends of the link (the machine's
// PortStats and the broker's ProjectLedger):
//   - no dispatch ever lands on a machine without the free CPUs for it;
//   - per-project quotas are never exceeded, even transiently (peak
//     in-flight CPUs is tracked at dispatch);
//   - job conservation — every materialized job is eventually completed
//     or abandoned, mirroring the fault layer's kill accounting.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "grid/broker.hpp"
#include "grid/fleet.hpp"
#include "util/rng.hpp"

namespace istc::grid {
namespace {

constexpr SimTime kSpan = 6000;

std::vector<workload::Job> busy_natives(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<workload::Job> jobs;
  SimTime submit = 0;
  for (workload::JobId id = 0; id < 80; ++id) {
    submit += static_cast<SimTime>(rng.below(100));
    workload::Job j;
    j.id = id;
    j.submit = submit;
    j.cpus = 1 + static_cast<int>(rng.below(48));
    j.runtime = 30 + static_cast<Seconds>(rng.below(500));
    j.estimate = j.runtime * (1 + static_cast<Seconds>(rng.below(3)));
    j.user = static_cast<workload::UserId>(rng.below(4));
    jobs.push_back(j);
  }
  return jobs;
}

std::vector<MachineSetup> test_fleet() {
  std::vector<MachineSetup> fleet;
  for (std::uint64_t seed : {7ull, 8ull}) {
    MachineSetup setup;
    setup.name = "broker-mini-" + std::to_string(seed);
    setup.spec = {.name = setup.name, .site = "", .queue_system = "",
                  .cpus = 64, .clock_ghz = 1.0};
    setup.natives = workload::JobLog(busy_natives(seed));
    setup.span = kSpan;
    setup.bounce_patience = 300;
    fleet.push_back(std::move(setup));
  }
  return fleet;
}

std::vector<GridProjectSpec> test_projects() {
  std::vector<GridProjectSpec> projects;
  GridProjectSpec a;
  a.name = "narrow";
  a.cpus_per_job = 4;
  a.work_per_cpu = 90.0 * cluster::kGiga;
  a.jobs = 30;
  a.share = 2.0;
  a.quota_cpus = 16;  // tight: at most 4 jobs in flight
  projects.push_back(a);
  GridProjectSpec b;
  b.name = "wide";
  b.cpus_per_job = 32;
  b.work_per_cpu = 200.0 * cluster::kGiga;
  b.jobs = 12;
  b.share = 1.0;
  b.quota_cpus = 64;
  projects.push_back(b);
  GridProjectSpec c;
  c.name = "late";
  c.cpus_per_job = 8;
  c.work_per_cpu = 120.0 * cluster::kGiga;
  c.jobs = 15;
  c.submit_time = 2000;
  projects.push_back(c);
  return projects;
}

FleetResult run_property_fleet(BrokerPolicy policy) {
  FleetConfig cfg;
  cfg.broker.policy = policy;
  return run_fleet(test_fleet(), test_projects(), cfg);
}

TEST(Broker, PolicyNamesRoundTrip) {
  for (const auto p : {BrokerPolicy::kBestFit, BrokerPolicy::kRoundRobin,
                       BrokerPolicy::kLeastLoaded}) {
    const auto parsed = parse_broker_policy(broker_policy_name(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_FALSE(parse_broker_policy("first-fit").has_value());
  EXPECT_FALSE(parse_broker_policy("").has_value());
}

// route() asserts (ISTC_ASSERT, every build) that each placement fits the
// chosen machine's uncommitted free CPUs, so a contended fleet that
// routes under every policy without aborting has checked each dispatch.
TEST(Broker, DispatchesNeverExceedMachineCapacity) {
  for (const auto policy : {BrokerPolicy::kBestFit, BrokerPolicy::kRoundRobin,
                            BrokerPolicy::kLeastLoaded}) {
    const auto result = run_property_fleet(policy);
    EXPECT_GT(result.dispatches(), 0u) << broker_policy_name(policy);
  }
}

TEST(Broker, QuotasNeverExceeded) {
  const auto result = run_property_fleet(BrokerPolicy::kBestFit);
  for (std::size_t p = 0; p < result.projects.size(); ++p) {
    const int quota = result.projects[p].quota_cpus;
    if (quota <= 0) continue;
    EXPECT_LE(result.ledgers[p].peak_inflight_cpus, quota)
        << result.projects[p].name;
    EXPECT_GT(result.ledgers[p].peak_inflight_cpus, 0)
        << result.projects[p].name << " never dispatched";
  }
}

TEST(Broker, EveryMaterializedJobIsAccounted) {
  for (const auto policy :
       {BrokerPolicy::kBestFit, BrokerPolicy::kRoundRobin,
        BrokerPolicy::kLeastLoaded}) {
    const auto result = run_property_fleet(policy);
    std::size_t port_completed = 0, port_bounced = 0, port_killed = 0;
    for (const auto& m : result.machines) {
      port_completed += m.port.completed;
      port_bounced += m.port.bounced;
      port_killed += m.port.killed;
    }
    std::size_t completed = 0, bounced = 0, killed = 0;
    for (std::size_t p = 0; p < result.projects.size(); ++p) {
      const auto& led = result.ledgers[p];
      EXPECT_EQ(led.materialized, result.projects[p].jobs);
      // run_fleet asserts broker.done(): nothing queued or in flight, so
      // conservation closes to completed + abandoned.
      EXPECT_EQ(led.materialized, led.completed + led.abandoned())
          << result.projects[p].name << " under "
          << broker_policy_name(policy);
      EXPECT_EQ(led.inflight_jobs, 0u);
      EXPECT_EQ(led.inflight_cpus, 0);
      completed += led.completed;
      bounced += led.bounced;
      killed += led.killed;
    }
    // Both ends of the link agree event-by-event.
    EXPECT_EQ(completed, port_completed);
    EXPECT_EQ(bounced, port_bounced);
    EXPECT_EQ(killed, port_killed);
  }
}

TEST(Broker, AllPoliciesCompleteTheSweep) {
  for (const auto policy :
       {BrokerPolicy::kBestFit, BrokerPolicy::kRoundRobin,
        BrokerPolicy::kLeastLoaded}) {
    const auto result = run_property_fleet(policy);
    std::size_t completed = 0, materialized = 0;
    for (const auto& led : result.ledgers) {
      completed += led.completed;
      materialized += led.materialized;
    }
    EXPECT_EQ(materialized, 57u);
    // The miniature fleet has ample post-span idle: nothing should be
    // abandoned under any policy.
    EXPECT_EQ(completed, materialized)
        << "under " << broker_policy_name(policy);
  }
}

TEST(Broker, UnplaceableJobsAreAbandonedNotStuck) {
  auto projects = test_projects();
  GridProjectSpec giant;
  giant.name = "giant";
  giant.cpus_per_job = 4096;  // wider than any machine in the fleet
  giant.work_per_cpu = 60.0 * cluster::kGiga;
  giant.jobs = 3;
  projects.push_back(giant);
  const auto result = run_fleet(test_fleet(), std::move(projects), {});
  const auto& led = result.ledgers.back();
  EXPECT_EQ(led.abandoned_unplaceable, 3u);
  EXPECT_EQ(led.completed, 0u);
}

TEST(Broker, ConsumedAtLeastHarvested) {
  const auto result = run_property_fleet(BrokerPolicy::kBestFit);
  for (const auto& led : result.ledgers) {
    EXPECT_GE(led.consumed_cpu_sec, led.harvested_cpu_sec);
  }
}

}  // namespace
}  // namespace istc::grid
