// Figure 5: distribution of native-job wait times on Blue Mountain: no
// interstitial vs 32CPUx458s vs 32CPUx3664s, binned by log10 seconds as in
// the paper (metrics::wait_histogram, the binning
// PaperProperties.WaitDistributionPushedOutByDecades pins).  The exit code
// is the paper's claim: under each stream the [0,1) decade loses mass and
// the decade holding one interstitial runtime gains it.

#include <cmath>

#include "common.hpp"

int main() {
  using namespace istc;
  bench::print_preamble(
      "Figure 5 — Wait times of native jobs on Blue Mountain",
      "Fraction of native jobs per log10(seconds) wait decade.");

  const auto site = cluster::Site::kBlueMountain;
  const auto& base = core::native_baseline(site);
  const Seconds sec_at_1ghz[] = {120, 960};
  const Log10Histogram h[3] = {
      metrics::wait_histogram(base.records),
      metrics::wait_histogram(
          core::continual_run(site, 32, sec_at_1ghz[0]).records),
      metrics::wait_histogram(
          core::continual_run(site, 32, sec_at_1ghz[1]).records)};
  bench::print_wait_decades(h);

  bool ok = true;
  for (int s = 0; s < 2; ++s) {
    const Seconds runtime = core::ProjectSpec::continual_stream(
                                32, sec_at_1ghz[s], 1)
                                .runtime_on(base.machine);
    const auto decade = static_cast<std::size_t>(
        std::log10(static_cast<double>(runtime)));
    const bool first_falls = h[s + 1].fraction(0) < h[0].fraction(0);
    const bool runtime_gains =
        h[s + 1].fraction(decade) > h[0].fraction(decade);
    std::printf(
        "\n32CPU x %llds: [0,1) %.3f -> %.3f (falls: %s); runtime decade "
        "%s %.3f -> %.3f (gains: %s)",
        static_cast<long long>(runtime), h[0].fraction(0),
        h[s + 1].fraction(0), first_falls ? "yes" : "NO",
        Log10Histogram::bin_label(decade).c_str(), h[0].fraction(decade),
        h[s + 1].fraction(decade), runtime_gains ? "yes" : "NO");
    ok = ok && first_falls && runtime_gains;
  }
  std::printf(
      "\n\nPaper shape check: the big near-zero-wait peak of the\n"
      "no-interstitial case is pushed out to the decade of one interstitial\n"
      "runtime, with a small cascade tail beyond.\n");
  return ok ? 0 : 1;
}
