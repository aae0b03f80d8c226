// The federated-fleet determinism contract, in three layers:
//   1. a single-machine grid in local-driver mode IS the existing
//      single-machine stack — it must reproduce the golden schedule hash
//      pinned by trace/test_determinism.cpp;
//   2. epoch slicing is invisible — a heartbeat-sliced run leaves the same
//      hash as an unsliced one (advance() never moves the clock past a
//      processed event);
//   3. sharding is invisible — the fleet hash is bit-identical at 1, 2 and
//      8 shard threads (the conservative-sync argument in fleet.hpp).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "grid/fleet.hpp"
#include "util/rng.hpp"

namespace istc::grid {
namespace {

constexpr SimTime kSpan = 6000;
constexpr std::uint64_t kScheduleGolden = 0x4cb3857a75f8d6bfull;

// The exact miniature of trace/test_determinism.cpp, expressed as a
// MachineSetup: same machine, downtime, policy, native log, interstitial
// stream, and first interstitial id.
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

MachineSetup miniature_setup(std::uint64_t seed) {
  MachineSetup setup;
  setup.spec = {.name = "determinism-mini", .site = "", .queue_system = "",
                .cpus = 64, .clock_ghz = 1.0};
  setup.downtime = cluster::DowntimeCalendar({{2000, 2400}, {4500, 4800}});
  setup.policy.preempt_interstitial = true;
  setup.natives = workload::JobLog(random_natives(seed));
  setup.span = kSpan;
  core::ProjectSpec spec = core::ProjectSpec::continual_stream(8, 120, kSpan);
  spec.recovery = core::PreemptionRecovery::kCheckpoint;
  setup.local_project = spec;
  setup.first_interstitial_id = 10000;
  return setup;
}

TEST(FleetDeterminism, SingleMachineLocalModeMatchesGolden) {
  GridMachine m(miniature_setup(42));
  m.drain();
  EXPECT_EQ(hash_run(m.take_result()), kScheduleGolden);
}

TEST(FleetDeterminism, FleetLoopWithNoProjectsMatchesGolden) {
  // Through run_fleet (which just drains when the broker has nothing).
  std::vector<MachineSetup> fleet;
  fleet.push_back(miniature_setup(42));
  const auto result = run_fleet(std::move(fleet), {});
  ASSERT_EQ(result.machines.size(), 1u);
  EXPECT_EQ(result.machines[0].hash, kScheduleGolden);
}

TEST(FleetDeterminism, HeartbeatSlicingIsInvisible) {
  // Force boundaries every 500 s; the sliced machine must still land on
  // the unsliced golden — including sim_end, the part a run(until)-style
  // advance would corrupt.
  std::vector<MachineSetup> fleet;
  fleet.push_back(miniature_setup(42));
  FleetConfig cfg;
  cfg.heartbeat = 500;
  const auto result = run_fleet(std::move(fleet), {}, cfg);
  EXPECT_GT(result.epochs, 5u);
  EXPECT_EQ(result.machines[0].hash, kScheduleGolden);
}

std::vector<GridProjectSpec> test_projects(int fleet_cpus) {
  return sweep_projects(3, 25, fleet_cpus, 0.5, 0xFEEDu);
}

std::uint64_t fleet_hash_at(std::size_t threads) {
  std::vector<MachineSetup> fleet;
  for (std::uint64_t seed : {42ull, 43ull, 44ull}) {
    auto setup = miniature_setup(seed);
    setup.name = "mini-" + std::to_string(seed);
    setup.local_project.reset();  // brokered mode
    setup.bounce_patience = 300;
    fleet.push_back(std::move(setup));
  }
  FleetConfig cfg;
  cfg.threads = threads;
  const auto result =
      run_fleet(std::move(fleet), test_projects(3 * 64), cfg);
  // The sweep must actually place work for the hash to mean anything.
  EXPECT_GT(result.dispatches(), 0u);
  return result.hash;
}

TEST(FleetDeterminism, ShardThreadCountIsInvisible) {
  const std::uint64_t h1 = fleet_hash_at(1);
  const std::uint64_t h2 = fleet_hash_at(2);
  const std::uint64_t h8 = fleet_hash_at(8);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1, h8);
}

TEST(FleetDeterminism, RepeatedRunsAreBitIdentical) {
  EXPECT_EQ(fleet_hash_at(2), fleet_hash_at(2));
}

TEST(FleetDeterminism, JainFairnessIndex) {
  EXPECT_DOUBLE_EQ(jain_fairness({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness({5.0, 5.0, 5.0}), 1.0);
  EXPECT_NEAR(jain_fairness({1.0, 0.0, 0.0}), 1.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace istc::grid
