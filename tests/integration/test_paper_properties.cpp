// The paper's qualitative claims, checked end-to-end: who wins, by roughly
// what factor, and where the crossovers fall.  Absolute numbers differ from
// the paper (synthetic logs), but these shapes must hold.

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/omniscient.hpp"
#include "core/theory.hpp"
#include "metrics/utilization.hpp"
#include "metrics/waits.hpp"

namespace istc {
namespace {

using cluster::Site;

TEST(PaperProperties, OmniscientMakespanNearTheory) {
  // Fig. 2: measured omniscient makespans track P/(N*C*(1-U)) within a
  // modest factor (the paper fits slope 1.16 +- 17%).
  const auto spec = core::ProjectSpec::paper(2000, 32, 120);  // 7.7 Pc
  const auto sample =
      core::omniscient_makespans(Site::kBlueMountain, spec, 10);
  ASSERT_TRUE(sample.feasible());
  const auto in = core::theory_inputs(
      cluster::machine_spec(Site::kBlueMountain),
      core::native_utilization(Site::kBlueMountain));
  const double theory_h =
      core::ideal_makespan_s(in, spec.total_cycles()) / 3600.0;
  // The paper's fit puts measured omniscient makespans at 1.16x theory plus
  // a constant.  The synthetic logs' utilization is more strongly
  // autocorrelated than the real traces' (documented in EXPERIMENTS.md), so
  // small projects can wait out saturated stretches; assert the same-order
  // relationship only.
  const double measured_h = sample.summary().mean();
  EXPECT_GT(measured_h, 0.5 * theory_h);
  EXPECT_LT(measured_h, 6.0 * theory_h);
}

TEST(PaperProperties, MakespanScalesWithProjectSize) {
  // Table 2 columns: 7.7 Pc -> 123 Pc is 16x the work; the paper's
  // makespans grow ~12x (13.5 h -> 166 h).  The fit's constant offset and
  // utilization autocorrelation compress the ratio below 16; require the
  // strong-scaling ordering with generous slack for 8 replications.
  const auto small =
      core::omniscient_makespans(Site::kBlueMountain,
                                 core::ProjectSpec::paper(2000, 32, 120), 8);
  const auto big = core::omniscient_makespans(
      Site::kBlueMountain, core::ProjectSpec::paper(32000, 32, 120), 8);
  const double ratio = big.summary().mean() / small.summary().mean();
  EXPECT_GT(ratio, 2.5);
  EXPECT_LT(ratio, 16.0);
}

TEST(PaperProperties, BreakagePenaltySmallOnBigMachines) {
  // Table 3: 32-CPU vs 1-CPU omniscient makespans differ ~2% on Blue
  // Mountain (large spare pool) — equal work per project.
  const auto narrow =
      core::omniscient_makespans(Site::kBlueMountain,
                                 core::ProjectSpec::paper(64000, 1, 120), 8);
  const auto wide =
      core::omniscient_makespans(Site::kBlueMountain,
                                 core::ProjectSpec::paper(2000, 32, 120), 8);
  const double ratio = wide.summary().mean() / narrow.summary().mean();
  EXPECT_GT(ratio, 0.95);
  EXPECT_LT(ratio, 1.25);
}

TEST(PaperProperties, FallibleSlowerThanOmniscient) {
  // Table 4 vs Table 2: estimate-driven submission lengthens makespans.
  const auto spec = core::ProjectSpec::paper(2000, 32, 120);
  const auto omni =
      core::omniscient_makespans(Site::kBlueMountain, spec, 10);
  const auto fall = core::fallible_makespans(Site::kBlueMountain, spec, 100);
  ASSERT_TRUE(omni.feasible());
  ASSERT_TRUE(fall.feasible());
  // Mean fallible makespan should not be dramatically *shorter*; the paper
  // saw ~10-15% longer.  Allow generous slack but require the ordering.
  EXPECT_GT(fall.summary().mean(), 0.8 * omni.summary().mean());
}

// The measured values below are pinned with a margin of 0.005 on each
// fraction and 0.002 on each utilization: the runs are deterministic, so
// the margin admits the rounding of the printed value (0.0005) and a
// schedule shift too small to move the paper's shape; a larger shift fails
// here and the value is re-measured with bench/table9_limited or
// bench/fig5_wait_histogram / fig6_largest_wait_histogram.
constexpr double kFractionMargin = 0.005;
constexpr double kUtilMargin = 0.002;

TEST(PaperProperties, UtilizationCapTradeoff) {
  // Table 8 (limited): caps of 90/95/98% trade interstitial throughput for
  // native protection — throughput is monotone in the cap, native impact
  // too.
  const auto& full = core::continual_run(Site::kBlueMountain, 32, 120);
  const auto& cap98 = core::continual_run(Site::kBlueMountain, 32, 120, 0.98);
  const auto& cap95 = core::continual_run(Site::kBlueMountain, 32, 120, 0.95);
  const auto& cap90 = core::continual_run(Site::kBlueMountain, 32, 120, 0.90);
  EXPECT_LT(cap90.interstitial_count(), cap95.interstitial_count());
  EXPECT_LT(cap95.interstitial_count(), cap98.interstitial_count());
  EXPECT_LT(cap98.interstitial_count(), full.interstitial_count());
  // The paper: the 90% cap drops jobs by ~40% vs unlimited, 95% by ~20%,
  // 98% by ~10%.  Measured: 25.6%, 14.3%, 6.4%.
  const auto drop = [&full](const sched::RunResult& capped) {
    return 1.0 - static_cast<double>(capped.interstitial_count()) /
                     static_cast<double>(full.interstitial_count());
  };
  EXPECT_NEAR(drop(cap90), 0.256, kFractionMargin);
  EXPECT_NEAR(drop(cap95), 0.143, kFractionMargin);
  EXPECT_NEAR(drop(cap98), 0.064, kFractionMargin);
  // Natives keep their utilization (0.792) at every cap.
  for (const auto* run : {&full, &cap98, &cap95, &cap90}) {
    EXPECT_NEAR(metrics::average_utilization(
                    run->records, run->machine.cpus, 0, run->span,
                    metrics::JobFilter::kNativeOnly),
                0.792, kUtilMargin);
  }
  // Native wait impact shrinks as the cap tightens.
  const auto w_full = metrics::wait_stats(full.records);
  const auto w_90 = metrics::wait_stats(cap90.records);
  EXPECT_LE(w_90.median_wait_s, w_full.median_wait_s + 1.0);
}

TEST(PaperProperties, InterstitialBeatsScalingNativeJobs) {
  // §4.3.2's headline: interstitial computing raises utilization far more
  // gently than cranking native load.  Compare the native-impact cost of a
  // ~15-point utilization lift via interstitial against the baseline.
  const auto& base = core::native_baseline(Site::kBlueMountain);
  const auto& with_i = core::continual_run(Site::kBlueMountain, 32, 120);
  const double u0 = metrics::average_utilization(base.records,
                                                 base.machine.cpus, 0,
                                                 base.span);
  const double u1 = metrics::average_utilization(
      with_i.records, with_i.machine.cpus, 0, with_i.span);
  EXPECT_GT(u1 - u0, 0.10);
  // ...while the median native wait moves by at most ~one job runtime.
  const auto w0 = metrics::wait_stats(base.records);
  const auto w1 = metrics::wait_stats(with_i.records);
  EXPECT_LT(w1.median_wait_s - w0.median_wait_s, 1000.0);
}

TEST(PaperProperties, LargestJobsBearTheImpact) {
  // Table 5 / Fig. 6: the 5% largest native jobs see a much bigger wait
  // increase than the median job.
  const auto& base = core::native_baseline(Site::kBlueMountain);
  const auto& with_i = core::continual_run(Site::kBlueMountain, 32, 960);
  const auto big0 = metrics::wait_stats(metrics::largest_native(
      base.records, 0.05));
  const auto big1 = metrics::wait_stats(metrics::largest_native(
      with_i.records, 0.05));
  const auto all0 = metrics::wait_stats(base.records);
  const auto all1 = metrics::wait_stats(with_i.records);
  const double big_delta = big1.avg_wait_s - big0.avg_wait_s;
  const double all_delta = all1.avg_wait_s - all0.avg_wait_s;
  EXPECT_GT(big_delta, all_delta);
}

TEST(PaperProperties, WaitDistributionPushedOutByDecades) {
  // Figs. 5-6: the [0,1) decade peak of the no-interstitial case moves out
  // toward the interstitial-runtime decade.
  const auto& base = core::native_baseline(Site::kBlueMountain);
  const auto& with_i = core::continual_run(Site::kBlueMountain, 32, 120);
  const auto h0 = metrics::wait_histogram(base.records);
  const auto h1 = metrics::wait_histogram(with_i.records);
  // Mass in the first decade shrinks (0.495 -> 0.333)...
  EXPECT_NEAR(h0.fraction(0), 0.495, kFractionMargin);
  EXPECT_NEAR(h1.fraction(0), 0.333, kFractionMargin);
  // ...and re-appears around the 458-second decade, [2,3) (0.038 -> 0.111).
  EXPECT_NEAR(h0.fraction(2), 0.038, kFractionMargin);
  EXPECT_NEAR(h1.fraction(2), 0.111, kFractionMargin);
  // Fig. 6: the largest 5% lose their first decade entirely (0.178 -> 0).
  const auto b0 =
      metrics::wait_histogram(metrics::largest_native(base.records, 0.05));
  const auto b1 =
      metrics::wait_histogram(metrics::largest_native(with_i.records, 0.05));
  EXPECT_NEAR(b0.fraction(0), 0.178, kFractionMargin);
  EXPECT_NEAR(b1.fraction(0), 0.000, kFractionMargin);
}

TEST(PaperProperties, FallibleInfeasibleForHugeProjectOnBluePacific) {
  // Table 4 marks 123-Pc projects "n/a (makespan >= log time)" on Blue
  // Pacific: the continual-sampling estimator must report infeasibility.
  const auto spec = core::ProjectSpec::paper(32000, 32, 120);  // 123 Pc
  const auto fall = core::fallible_makespans(Site::kBluePacific, spec, 50);
  EXPECT_FALSE(fall.feasible());
}

}  // namespace
}  // namespace istc
