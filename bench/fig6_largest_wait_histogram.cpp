// Figure 6: wait-time distribution of the 5% largest native jobs (by
// CPU-seconds) on Blue Mountain, same scenarios and log10-seconds decades
// as Fig. 5.  The exit code is the paper's claim: under each stream the
// largest jobs' [0,1) decade falls, and by a larger fraction of itself
// than all native jobs' [0,1) decade does (Fig. 5) — the largest jobs
// bear the brunt of the interstitial delay cascades.

#include "common.hpp"

int main() {
  using namespace istc;
  bench::print_preamble(
      "Figure 6 — Wait times of 5% largest native jobs (CPU-sec)",
      "Fraction of the largest-5% native jobs per log10(seconds) decade.");

  const auto site = cluster::Site::kBlueMountain;
  const sched::RunResult* runs[3] = {&core::native_baseline(site),
                                     &core::continual_run(site, 32, 120),
                                     &core::continual_run(site, 32, 960)};
  const auto largest = [&runs](int s) {
    return metrics::wait_histogram(
        metrics::largest_native(runs[s]->records, 0.05));
  };
  const Log10Histogram h[3] = {largest(0), largest(1), largest(2)};
  bench::print_wait_decades(h);

  // How much of its [0,1) mass a histogram loses from `base` to `with`.
  const auto first_fall = [](const Log10Histogram& base,
                             const Log10Histogram& with) {
    return (base.fraction(0) - with.fraction(0)) / base.fraction(0);
  };
  const Log10Histogram all0 = metrics::wait_histogram(runs[0]->records);
  const char* const names[] = {"32CPU x 458s", "32CPU x 3664s"};
  bool ok = true;
  for (int s = 1; s <= 2; ++s) {
    const double big = first_fall(h[0], h[s]);
    const double all =
        first_fall(all0, metrics::wait_histogram(runs[s]->records));
    const bool falls = h[s].fraction(0) < h[0].fraction(0);
    std::printf(
        "\n%s: largest-5%% [0,1) %.3f -> %.3f, falls by %.1f%% of itself "
        "(all native jobs: %.1f%%): %s",
        names[s - 1], h[0].fraction(0), h[s].fraction(0), 100.0 * big,
        100.0 * all, falls && big > all ? "yes" : "NO");
    ok = ok && falls && big > all;
  }
  std::printf(
      "\n\nPaper shape check: the largest jobs shift toward the high decades\n"
      "more strongly than the overall population (compare Figure 5).\n");
  return ok ? 0 : 1;
}
