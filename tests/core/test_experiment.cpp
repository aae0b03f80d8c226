#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "cluster/presets.hpp"
#include "metrics/utilization.hpp"
#include "metrics/waits.hpp"

namespace istc::core {
namespace {

using cluster::Site;

TEST(Experiment, NativeBaselineIsCached) {
  const auto& a = native_baseline(Site::kRoss);
  const auto& b = native_baseline(Site::kRoss);
  EXPECT_EQ(&a, &b);
}

TEST(Experiment, ContinualRunCacheKeysOnShapeAndCap) {
  const auto& a = continual_run(Site::kRoss, 32, 120);
  const auto& b = continual_run(Site::kRoss, 32, 120);
  EXPECT_EQ(&a, &b);
  const auto& c = continual_run(Site::kRoss, 32, 120, 0.95);
  EXPECT_NE(&a, &c);
}

TEST(Experiment, RunScenarioDeterministic) {
  Scenario sc;
  sc.site = Site::kRoss;
  sc.log_seed = 42;
  const auto r1 = run_scenario(sc);
  const auto r2 = run_scenario(sc);
  ASSERT_EQ(r1.records.size(), r2.records.size());
  for (std::size_t i = 0; i < r1.records.size(); i += 131) {
    EXPECT_EQ(r1.records[i].start, r2.records[i].start);
    EXPECT_EQ(r1.records[i].end, r2.records[i].end);
  }
}

TEST(Experiment, PerfectEstimatesScenarioRuns) {
  Scenario sc;
  sc.site = Site::kRoss;
  sc.perfect_estimates = true;
  const auto run = run_scenario(sc);
  EXPECT_EQ(run.records.size(), 4423u);
  for (std::size_t i = 0; i < run.records.size(); i += 97) {
    EXPECT_EQ(run.records[i].job.estimate, run.records[i].job.runtime);
  }
}

TEST(Experiment, TimeScalingRaisesUtilization) {
  Scenario base;
  base.site = Site::kRoss;
  Scenario longer = base;
  longer.native_time_factor = 1.2;
  const auto r0 = run_scenario(base);
  const auto r1 = run_scenario(longer);
  const double u0 = metrics::average_utilization(r0.records,
                                                 r0.machine.cpus, 0, r0.span);
  const double u1 = metrics::average_utilization(r1.records,
                                                 r1.machine.cpus, 0, r1.span);
  EXPECT_GT(u1, u0 + 0.05);
}

TEST(Experiment, TileRecordsShiftsAllTimes) {
  const auto& base = native_baseline(Site::kRoss);
  const SimTime shift = base.span + days(10);
  const auto tiled = tile_records(base.records, shift, 2);
  ASSERT_EQ(tiled.size(), base.records.size() * 2);
  const auto& first_copy = tiled[0];
  const auto& second_copy = tiled[base.records.size()];
  EXPECT_EQ(second_copy.start, first_copy.start + shift);
  EXPECT_EQ(second_copy.end, first_copy.end + shift);
  EXPECT_EQ(second_copy.job.submit, first_copy.job.submit + shift);
}

TEST(Experiment, TileCalendarShiftsWindows) {
  cluster::DowntimeCalendar cal({{100, 200}});
  const auto tiled = tile_calendar(cal, 1000, 3);
  ASSERT_EQ(tiled.windows().size(), 3u);
  EXPECT_EQ(tiled.windows()[1].start, 1100);
  EXPECT_EQ(tiled.windows()[2].end, 2200);
}

TEST(Experiment, TileRecordsSingleCopyIsIdentity) {
  const auto& base = native_baseline(Site::kRoss);
  const auto tiled = tile_records(base.records, base.span, 1);
  ASSERT_EQ(tiled.size(), base.records.size());
  for (std::size_t i = 0; i < tiled.size(); i += 61) {
    EXPECT_EQ(tiled[i].job.id, base.records[i].job.id);
    EXPECT_EQ(tiled[i].job.submit, base.records[i].job.submit);
    EXPECT_EQ(tiled[i].start, base.records[i].start);
    EXPECT_EQ(tiled[i].end, base.records[i].end);
  }
}

TEST(Experiment, TileRecordsDrainShiftPreventsOverlap) {
  // A job submitted near the span end drains past it.  Tiling with the
  // drain time (max end), as omniscient_makespans does, keeps copies on
  // disjoint time ranges; tiling with the bare span would overlap them.
  std::vector<sched::JobRecord> records(2);
  records[0].job.id = 1;
  records[0].job.submit = 0;
  records[0].start = 0;
  records[0].end = 500;
  records[1].job.id = 2;
  records[1].job.submit = 900;
  records[1].start = 950;
  records[1].end = 1400;  // past span = 1000
  const SimTime span = 1000;
  SimTime drain = span;
  for (const auto& r : records) drain = std::max(drain, r.end);
  const auto tiled = tile_records(records, drain, 3);
  ASSERT_EQ(tiled.size(), 6u);
  for (std::size_t c = 1; c < 3; ++c) {
    SimTime prev_max_end = 0;
    for (std::size_t i = 0; i < 2; ++i) {
      prev_max_end = std::max(prev_max_end, tiled[(c - 1) * 2 + i].end);
    }
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_GE(tiled[c * 2 + i].start, prev_max_end);
      EXPECT_GE(tiled[c * 2 + i].job.submit, prev_max_end);
    }
  }
}

TEST(Experiment, TileCalendarPreservesWindowShapes) {
  // Every copy keeps each window's duration and its offset within the
  // copy; only the tile shift moves.
  cluster::DowntimeCalendar cal({{100, 250}, {600, 640}});
  const SimTime span = 1000;
  const auto tiled = tile_calendar(cal, span, 4);
  ASSERT_EQ(tiled.windows().size(), 8u);
  for (std::size_t c = 0; c < 4; ++c) {
    const SimTime shift = static_cast<SimTime>(c) * span;
    for (std::size_t w = 0; w < 2; ++w) {
      const auto& orig = cal.windows()[w];
      const auto& copy = tiled.windows()[c * 2 + w];
      EXPECT_EQ(copy.start, orig.start + shift);
      EXPECT_EQ(copy.end - copy.start, orig.end - orig.start);
    }
  }
}

TEST(Experiment, OmniscientMakespansDeterministicAndPositive) {
  const auto spec = ProjectSpec::paper(500, 32, 120);
  const auto a = omniscient_makespans(Site::kRoss, spec, 4, 777);
  const auto b = omniscient_makespans(Site::kRoss, spec, 4, 777);
  ASSERT_EQ(a.hours.size(), 4u);
  EXPECT_EQ(a.hours, b.hours);
  for (double h : a.hours) EXPECT_GT(h, 0.0);
}

// Full-size site logs are where the packer's free-capacity profile grows
// to tens of thousands of breakpoints; pin its makespans there, per site,
// at the default seed (Table 2's 7.7 Peta-cycle 32-CPU row).
TEST(Experiment, OmniscientMakespansMatchGolden) {
  const auto spec = ProjectSpec::paper(2000, 32, 120);
  const struct {
    Site site;
    std::vector<long long> seconds;
  } golden[] = {
      {Site::kRoss, {36307, 12648, 45946, 18438}},
      {Site::kBlueMountain, {135790, 105342, 252811, 14619}},
      {Site::kBluePacific, {572507, 1008931, 682929, 369858}},
  };
  for (const auto& g : golden) {
    const auto sample = omniscient_makespans(g.site, spec, 4);
    std::vector<long long> seconds;
    for (double h : sample.hours) seconds.push_back(std::llround(h * 3600));
    EXPECT_EQ(seconds, g.seconds) << cluster::machine_spec(g.site).name;
  }
}

TEST(Experiment, OmniscientSeedChangesStarts) {
  const auto spec = ProjectSpec::paper(500, 32, 120);
  const auto a = omniscient_makespans(Site::kRoss, spec, 4, 1);
  const auto b = omniscient_makespans(Site::kRoss, spec, 4, 2);
  EXPECT_NE(a.hours, b.hours);
}

TEST(Experiment, FallibleMakespansComeFromCachedContinualRun) {
  const auto spec = ProjectSpec::paper(200, 32, 120);
  const auto sample = fallible_makespans(Site::kRoss, spec, 50);
  ASSERT_TRUE(sample.feasible());
  EXPECT_EQ(sample.hours.size(), 50u);
  for (double h : sample.hours) EXPECT_GT(h, 0.0);
}

TEST(Experiment, MakespanSampleSummary) {
  MakespanSample s;
  EXPECT_FALSE(s.feasible());
  s.hours = {1.0, 2.0, 3.0};
  EXPECT_TRUE(s.feasible());
  EXPECT_DOUBLE_EQ(s.summary().mean(), 2.0);
}

}  // namespace
}  // namespace istc::core
