// The hard requirement of the observability layer: with spans and the
// stage profiler fully enabled, nothing observable about the simulation
// changes.  Golden schedule hashes stay pinned, a threaded fleet hashes
// identically on and off, and what-if replies stay byte-identical in
// forked and scratch modes.  Wall time flows OUT of the sim into obs —
// never back in.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "grid/fleet.hpp"
#include "obs/obs.hpp"
#include "service/json.hpp"
#include "service/session.hpp"
#include "util/rng.hpp"

namespace istc {
namespace {

constexpr SimTime kSpan = 6000;
/// The schedule golden pinned by trace/test_determinism.cpp and
/// grid/test_fleet_determinism.cpp — reproduced here obs-enabled.
constexpr std::uint64_t kScheduleGolden = 0x4cb3857a75f8d6bfull;

struct ObsOnFixture : ::testing::Test {
  void SetUp() override {
    obs::reset();
    obs::set_enabled(true);
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::reset();
  }
};

using ObsDeterminism = ObsOnFixture;

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

grid::MachineSetup miniature_setup(std::uint64_t seed) {
  grid::MachineSetup setup;
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

TEST_F(ObsDeterminism, GoldenScheduleHashUnchangedWithObsFullyEnabled) {
  grid::GridMachine m(miniature_setup(42));
  m.drain();
  EXPECT_EQ(grid::hash_run(m.take_result()), kScheduleGolden);
  // The scheduler pass reports its cost only to an attached tracer's
  // TraceSummary: even with obs on, a single-machine run writes nothing
  // to the stage profiler.
  EXPECT_TRUE(obs::profile_snapshot().empty());
}

std::uint64_t threaded_fleet_hash(std::size_t threads) {
  std::vector<grid::MachineSetup> setups;
  for (std::uint64_t s = 0; s < 3; ++s) {
    auto setup = miniature_setup(7 + s);
    setup.spec.name = "mini-" + std::to_string(s);
    setup.name = setup.spec.name;
    setups.push_back(std::move(setup));
  }
  grid::FleetConfig cfg;
  cfg.threads = threads;
  auto projects = grid::sweep_projects(2, 20, 192, 0.25, 0xD15EA5E);
  return grid::run_fleet(std::move(setups), std::move(projects), cfg).hash;
}

TEST_F(ObsDeterminism, ThreadedFleetHashMatchesObsOffRun) {
  // Spans here cross the epoch fan-out onto pool workers; the hash must
  // not care.  Same fleet, 1 thread and 4 threads, obs on vs off.
  const std::uint64_t on_1 = threaded_fleet_hash(1);
  const std::uint64_t on_4 = threaded_fleet_hash(4);
  obs::set_enabled(false);
  const std::uint64_t off_4 = threaded_fleet_hash(4);
  obs::set_enabled(true);
  EXPECT_EQ(on_1, on_4);
  EXPECT_EQ(on_4, off_4);
  EXPECT_GT(obs::recorder_stats().recorded, 0u);
}

std::string swf_line(SimTime submit, Seconds runtime, int cpus,
                     Seconds estimate) {
  return "1 " + std::to_string(submit) + " 0 " + std::to_string(runtime) +
         " " + std::to_string(cpus) + " -1 -1 " + std::to_string(cpus) + " " +
         std::to_string(estimate) + " -1 1 3 2 -1 -1 -1 -1 -1";
}

void feed_tail(service::Session& session) {
  for (int i = 0; i < 40; ++i) {
    const std::string line = swf_line(100 + 60 * i, 240 + 30 * (i % 5),
                                      8 + 8 * (i % 4), 1200);
    session.handle_line("{\"op\":\"ingest\",\"line\":\"" +
                        service::json_escape(line) + "\"}");
  }
}

service::SessionConfig ross_config() {
  service::SessionConfig cfg;
  cfg.site = cluster::Site::kRoss;
  cfg.snapshot_interval = 1000;
  return cfg;
}

constexpr const char* kQueryPrefix =
    "{\"op\":\"whatif\",\"jobs\":3,\"cpus\":16,\"runtime_s\":300,"
    "\"horizon_s\":7200,\"points_s\":[0,1800]";

TEST_F(ObsDeterminism, WhatIfForkedEqualsScratchWithObsEnabled) {
  service::Session session(ross_config());
  feed_tail(session);
  const std::string forked =
      session.handle_line(std::string(kQueryPrefix) + "}");
  const std::string scratch =
      session.handle_line(std::string(kQueryPrefix) + ",\"mode\":\"scratch\"}");
  EXPECT_EQ(forked, scratch);
  EXPECT_GT(obs::recorder_stats().recorded, 0u);
}

TEST_F(ObsDeterminism, WhatIfReplyBytesUnchangedByObservability) {
  std::string with_obs;
  {
    service::Session session(ross_config());
    feed_tail(session);
    with_obs = session.handle_line(std::string(kQueryPrefix) + "}");
  }
  obs::set_enabled(false);
  std::string without_obs;
  {
    service::Session session(ross_config());
    feed_tail(session);
    without_obs = session.handle_line(std::string(kQueryPrefix) + "}");
  }
  obs::set_enabled(true);
  EXPECT_EQ(with_obs, without_obs);
  // Sanity: this is a real whatif reply, not a shared error string.
  EXPECT_NE(with_obs.find("\"op\":\"whatif\""), std::string::npos);
  EXPECT_EQ(with_obs.find("\"error\""), std::string::npos);
}

}  // namespace
}  // namespace istc
