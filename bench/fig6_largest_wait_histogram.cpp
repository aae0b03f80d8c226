// Figure 6: wait-time distribution of the 5% largest native jobs (by
// CPU-seconds) on Blue Mountain, same scenarios as Fig. 5.  Ported to the
// shared metrics::Log2Histogram through metrics::completion_histograms on
// the largest-5% subset; totals are checked against the legacy log10
// binning.

#include "common.hpp"
#include "metrics/histogram.hpp"
#include "metrics/report.hpp"

int main() {
  using namespace istc;
  bench::print_preamble(
      "Figure 6 — Wait times of 5% largest native jobs (CPU-sec)",
      "Fraction of the largest-5% native jobs per power-of-two bucket.");

  const auto site = cluster::Site::kBlueMountain;
  const auto& base = core::native_baseline(site);
  const auto& short_run = core::continual_run(site, 32, 120);
  const auto& long_run = core::continual_run(site, 32, 960);

  const auto hist_of = [](const sched::RunResult& run) {
    return metrics::completion_histograms(
               metrics::largest_native(run.records, 0.05))
        .native_wait_s;
  };
  const auto h0 = hist_of(base);
  const auto h1 = hist_of(short_run);
  const auto h2 = hist_of(long_run);

  const int lo = std::max(0, std::min({h0.first_nonzero(), h1.first_nonzero(),
                                       h2.first_nonzero()}));
  const int hi = std::max({h0.last_nonzero(), h1.last_nonzero(),
                           h2.last_nonzero()});
  Table t;
  t.headers({"wait seconds", "no interstitial", "32CPU x 458s",
             "32CPU x 3664s"});
  const auto frac = [](const metrics::Log2Histogram& h, int k) {
    return h.total() == 0 ? 0.0
                          : static_cast<double>(h.count(k)) /
                                static_cast<double>(h.total());
  };
  for (int k = lo; k <= hi; ++k) {
    t.row({metrics::bucket_label(k), Table::num(frac(h0, k), 3),
           Table::num(frac(h1, k), 3), Table::num(frac(h2, k), 3)});
  }
  t.print();
  std::printf(
      "\nPaper shape check: the largest jobs shift toward the high buckets\n"
      "more strongly than the overall population (compare Figure 5) — they\n"
      "bear the brunt of the interstitial delay cascades.\n");

  // Port assertion: same subset, same jobs — the Log2 total must equal the
  // legacy log10 histogram's total on every scenario.
  bool ok = true;
  const auto check = [&ok](const char* what, const sched::RunResult& run,
                           const metrics::Log2Histogram& h) {
    const auto subset = metrics::largest_native(run.records, 0.05);
    const auto legacy = metrics::wait_histogram(subset);
    if (legacy.total() != h.total()) {
      std::fprintf(stderr, "FAIL %s: legacy total %zu vs histogram %llu\n",
                   what, legacy.total(),
                   static_cast<unsigned long long>(h.total()));
      ok = false;
    }
  };
  check("baseline", base, h0);
  check("458s", short_run, h1);
  check("3664s", long_run, h2);
  std::printf("\nported-binning cross-check: %s\n", ok ? "MATCH" : "MISMATCH");
  return ok ? 0 : 1;
}
