#include "metrics/waits.hpp"

#include <gtest/gtest.h>

#include "metrics/report.hpp"

namespace istc::metrics {
namespace {

sched::JobRecord rec(SimTime submit, SimTime start, Seconds run, int cpus = 1,
                     bool interstitial = false) {
  sched::JobRecord r;
  r.job.submit = submit;
  r.job.cpus = cpus;
  r.job.runtime = run;
  r.job.estimate = run;
  r.job.klass = interstitial ? workload::JobClass::kInterstitial
                             : workload::JobClass::kNative;
  r.start = start;
  r.end = start + run;
  return r;
}

TEST(WaitStats, BasicNumbers) {
  const std::vector<sched::JobRecord> rs{
      rec(0, 0, 100),    // wait 0, EF 1
      rec(0, 100, 100),  // wait 100, EF 2
      rec(0, 300, 100),  // wait 300, EF 4
  };
  const auto s = wait_stats(rs);
  EXPECT_EQ(s.jobs, 3u);
  EXPECT_NEAR(s.avg_wait_s, 400.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.median_wait_s, 100.0);
  EXPECT_NEAR(s.avg_ef, 7.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.median_ef, 2.0);
}

TEST(WaitStats, IgnoresInterstitialRecords) {
  const std::vector<sched::JobRecord> rs{
      rec(0, 0, 100),
      rec(0, 99999, 100, 1, /*interstitial=*/true),
  };
  const auto s = wait_stats(rs);
  EXPECT_EQ(s.jobs, 1u);
  EXPECT_DOUBLE_EQ(s.avg_wait_s, 0.0);
}

TEST(WaitStats, EmptyInput) {
  const std::vector<sched::JobRecord> rs;
  const auto s = wait_stats(rs);
  EXPECT_EQ(s.jobs, 0u);
  EXPECT_DOUBLE_EQ(s.avg_wait_s, 0.0);
}

TEST(LargestNative, SelectsByCpuSeconds) {
  std::vector<sched::JobRecord> rs;
  // 100 jobs: job i has cpu-seconds = (i+1)*100.
  for (int i = 0; i < 100; ++i) {
    rs.push_back(rec(0, 0, 100, i + 1));
  }
  const auto top = largest_native(rs, 0.05);
  ASSERT_EQ(top.size(), 5u);
  for (const auto& r : top) EXPECT_GE(r.job.cpus, 96);
}

TEST(LargestNative, AtLeastOneJobKept) {
  const std::vector<sched::JobRecord> rs{rec(0, 0, 100)};
  EXPECT_EQ(largest_native(rs, 0.05).size(), 1u);
}

TEST(LargestNative, ExcludesInterstitial) {
  std::vector<sched::JobRecord> rs{
      rec(0, 0, 100, 1000, /*interstitial=*/true),
      rec(0, 0, 100, 1),
  };
  const auto top = largest_native(rs, 1.0);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].job.cpus, 1);
}

TEST(NativeWaits, ExtractsSeconds) {
  const std::vector<sched::JobRecord> rs{rec(10, 25, 5), rec(0, 0, 5)};
  const auto w = native_waits(rs);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_DOUBLE_EQ(w[0], 15.0);
  EXPECT_DOUBLE_EQ(w[1], 0.0);
}

// The RunReport's bounded slowdown, max(1, (wait + runtime) /
// max(runtime, tau)) in integer milli-units (tau defaults to 10 s).
TEST(BoundedSlowdown, UnitForImmediateStarts) {
  EXPECT_EQ(bounded_slowdown_milli(0, 100), 1000u);
  EXPECT_EQ(bounded_slowdown_milli(0, 50), 1000u);
}

TEST(BoundedSlowdown, KnownValues) {
  EXPECT_EQ(bounded_slowdown_milli(100, 100), 2000u);  // (100+100)/100
  EXPECT_EQ(bounded_slowdown_milli(300, 100), 4000u);  // (300+100)/100
  EXPECT_EQ(bounded_slowdown_milli(50, 300), 1166u);   // truncated
}

TEST(BoundedSlowdown, TauFloorsShortJobs) {
  // A 1-second job waiting 9 s: raw slowdown 10; with tau=10 it is
  // (9+1)/10 = 1.
  EXPECT_EQ(bounded_slowdown_milli(9, 1, 10), 1000u);
  EXPECT_EQ(bounded_slowdown_milli(9, 1, 1), 10000u);
}

TEST(BoundedSlowdown, IgnoresInterstitial) {
  const std::vector<sched::JobRecord> rs{
      rec(0, 1000, 100, 1, /*interstitial=*/true), rec(0, 100, 100)};
  const auto h = completion_histograms(rs);
  EXPECT_EQ(h.native_slowdown_milli.total(), 1u);
  EXPECT_EQ(h.native_slowdown_milli.max(), 2000u);
}

TEST(WaitHistogram, BinsLikeThePaper) {
  // Figs. 5-6: decades of seconds; zero waits land in [0,1).
  std::vector<sched::JobRecord> rs{
      rec(0, 0, 10),        // wait 0      -> [0,1)
      rec(0, 5, 10),        // wait 5      -> [0,1)
      rec(0, 50, 10),       // wait 50     -> [1,2)
      rec(0, 5000, 10),     // wait 5e3    -> [3,4)
      rec(0, 200000, 10),   // wait 2e5    -> [5,6)
  };
  const auto h = wait_histogram(rs, 6);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(3), 1u);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_EQ(h.total(), 5u);
}

}  // namespace
}  // namespace istc::metrics
