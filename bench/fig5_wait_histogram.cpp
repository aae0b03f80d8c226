// Figure 5: distribution of native-job wait times on Blue Mountain: no
// interstitial vs 32CPUx458s vs 32CPUx3664s.  Ported to the telemetry
// layer: the bins are the shared metrics::Log2Histogram (power-of-two
// seconds) filled by metrics::completion_histograms, the RunReport's own
// binning, cross-checked against a naive reference binner and against the
// legacy log10 histogram's totals on the baseline scenario (exit 1 on
// mismatch).

#include <array>

#include "common.hpp"
#include "metrics/histogram.hpp"
#include "metrics/report.hpp"

namespace {

using namespace istc;

metrics::Log2Histogram native_wait_hist(
    std::span<const sched::JobRecord> records) {
  return metrics::completion_histograms(records).native_wait_s;
}

/// Naive reference binner: linear scan over the bucket edges, no bit
/// tricks.  The port assertion compares it bucket-by-bucket with the
/// Log2Histogram fill.
std::array<std::uint64_t, metrics::Log2Histogram::kBuckets> naive_bins(
    std::span<const sched::JobRecord> records) {
  std::array<std::uint64_t, metrics::Log2Histogram::kBuckets> counts{};
  for (const auto& r : records) {
    if (r.interstitial()) continue;
    const auto v = static_cast<std::uint64_t>(r.wait());
    for (int k = 0; k < metrics::Log2Histogram::kBuckets; ++k) {
      if (v >= metrics::Log2Histogram::bucket_lo(k) &&
          (k == metrics::Log2Histogram::kBuckets - 1 ||
           v < metrics::Log2Histogram::bucket_hi(k))) {
        ++counts[static_cast<std::size_t>(k)];
        break;
      }
    }
  }
  return counts;
}

}  // namespace

int main() {
  bench::print_preamble(
      "Figure 5 — Wait times of native jobs on Blue Mountain",
      "Fraction of native jobs per power-of-two wait bucket (seconds).");

  const auto site = cluster::Site::kBlueMountain;
  const auto& base = core::native_baseline(site);
  const auto& short_run = core::continual_run(site, 32, 120);
  const auto& long_run = core::continual_run(site, 32, 960);

  const auto h0 = native_wait_hist(base.records);
  const auto h1 = native_wait_hist(short_run.records);
  const auto h2 = native_wait_hist(long_run.records);

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
      "\nPaper shape check: the big zero-wait peak of the no-interstitial\n"
      "case is pushed out to buckets around one interstitial runtime\n"
      "(458 s resp. 3664 s), with a small cascade tail beyond.\n");

  // Port assertions (baseline scenario): the histogram fill must match the
  // naive reference binner exactly, and its total must equal the legacy
  // log10 histogram's native-job total.
  bool ok = true;
  const auto naive = naive_bins(base.records);
  for (int k = 0; k < metrics::Log2Histogram::kBuckets; ++k) {
    if (naive[static_cast<std::size_t>(k)] != h0.count(k)) {
      std::fprintf(stderr, "FAIL: bucket %d naive %llu vs histogram %llu\n",
                   k,
                   static_cast<unsigned long long>(
                       naive[static_cast<std::size_t>(k)]),
                   static_cast<unsigned long long>(h0.count(k)));
      ok = false;
    }
  }
  const auto legacy = metrics::wait_histogram(base.records);
  if (legacy.total() != h0.total()) {
    std::fprintf(stderr, "FAIL: legacy total %zu vs histogram total %llu\n",
                 legacy.total(),
                 static_cast<unsigned long long>(h0.total()));
    ok = false;
  }
  std::printf("\nported-binning cross-check: %s\n", ok ? "MATCH" : "MISMATCH");
  return ok ? 0 : 1;
}
