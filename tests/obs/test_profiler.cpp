// Wall-clock stage profiler (src/obs/profiler): attribution, labels,
// cross-thread merge, snapshot ordering, and the disabled no-op path.

#include "obs/profiler.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace istc::obs {
namespace {

struct ProfilerFixture : ::testing::Test {
  void SetUp() override {
    reset();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    reset();
  }
};

using Profiler = ProfilerFixture;

TEST(ProfilerDisabled, ObserveIsANoopWhenDisabled) {
  set_enabled(false);
  reset();
  observe_stage_us(Stage::kSweepArm, 100);
  {
    ScopedTimer timer(Stage::kSweepFork);
  }
  EXPECT_TRUE(profile_snapshot().empty());
  EXPECT_EQ(stage_histogram(Stage::kSweepArm).total(), 0u);
}

TEST_F(Profiler, ObservationsAttributeToTheirStage) {
  observe_stage_us(Stage::kSweepArm, 100);
  observe_stage_us(Stage::kSweepArm, 100);
  observe_stage_us(Stage::kSweepArm, 100);
  observe_stage_us(Stage::kIngestRewind, 7);

  const auto profile = profile_snapshot();
  ASSERT_EQ(profile.size(), 2u);
  // Snapshot comes out in Stage declaration order.
  EXPECT_EQ(profile[0].stage, Stage::kSweepArm);
  EXPECT_STREQ(profile[0].label, "sweep_arm");
  EXPECT_EQ(profile[0].count, 3u);
  EXPECT_EQ(profile[0].total_us, 300u);
  // 100 lives in log2 bucket [64,128): quantiles must stay inside it.
  EXPECT_GE(profile[0].p50_us, 64.0);
  EXPECT_LT(profile[0].p50_us, 128.0);
  EXPECT_GE(profile[0].p99_us, profile[0].p50_us);

  EXPECT_EQ(profile[1].stage, Stage::kIngestRewind);
  EXPECT_STREQ(profile[1].label, "ingest_rewind");
  EXPECT_EQ(profile[1].count, 1u);
}

TEST_F(Profiler, ScopedTimerObservesElapsedTime) {
  {
    ScopedTimer timer(Stage::kQueryCapture);
  }
  const auto h = stage_histogram(Stage::kQueryCapture);
  EXPECT_EQ(h.total(), 1u);
}

TEST_F(Profiler, StageLabelsAreStable) {
  EXPECT_STREQ(stage_label(Stage::kSweepPrefix), "sweep_prefix");
  EXPECT_STREQ(stage_label(Stage::kSweepFork), "sweep_fork");
  EXPECT_STREQ(stage_label(Stage::kIngestApply), "ingest_apply");
  EXPECT_STREQ(stage_label(Stage::kEpochAdvance), "epoch_advance");
  EXPECT_STREQ(stage_label(Stage::kEpochBoundary), "epoch_boundary");
  EXPECT_STREQ(stage_label(Stage::kQueryVerdict), "query_verdict");
}

TEST_F(Profiler, SnapshotMergesAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kEach = 250;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < kEach; ++i) {
        observe_stage_us(Stage::kEpochAdvance,
                         static_cast<std::uint64_t>(10 + t));
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto h = stage_histogram(Stage::kEpochAdvance);
  EXPECT_EQ(h.total(), static_cast<std::uint64_t>(kThreads * kEach));
  const auto profile = profile_snapshot();
  ASSERT_EQ(profile.size(), 1u);
  EXPECT_EQ(profile[0].count, static_cast<std::uint64_t>(kThreads * kEach));
}

TEST_F(Profiler, ResetProfilesDropsAllObservations) {
  observe_stage_us(Stage::kSweepFork, 42);
  EXPECT_FALSE(profile_snapshot().empty());
  reset_profiles();
  EXPECT_TRUE(profile_snapshot().empty());
  // And the profiler keeps working after a reset.
  observe_stage_us(Stage::kSweepFork, 42);
  EXPECT_EQ(stage_histogram(Stage::kSweepFork).total(), 1u);
}

}  // namespace
}  // namespace istc::obs
