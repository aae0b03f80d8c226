// Log2Histogram: the bucket map must agree with a naive edge-scanning
// binner on every value class — the property the RunReport's completion
// histograms and the daemon's wall-clock profiles rest on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>

#include "metrics/histogram.hpp"
#include "util/rng.hpp"

namespace istc::metrics {
namespace {

/// Naive reference: linear scan over [bucket_lo, bucket_hi) edges.
int naive_bucket(std::uint64_t v) {
  for (int k = 0; k < Log2Histogram::kBuckets; ++k) {
    const bool last = k == Log2Histogram::kBuckets - 1;
    if (v >= Log2Histogram::bucket_lo(k) &&
        (last || v < Log2Histogram::bucket_hi(k))) {
      return k;
    }
  }
  return -1;
}

TEST(Log2Histogram, BucketIndexMatchesNaiveBinnerOnEdges) {
  // 0 and 1 are their own buckets; every power of two starts a bucket.
  EXPECT_EQ(Log2Histogram::bucket_index(0), 0);
  EXPECT_EQ(Log2Histogram::bucket_index(1), 1);
  for (int p = 1; p < 64; ++p) {
    const std::uint64_t pow = std::uint64_t{1} << p;
    for (const std::uint64_t v : {pow - 1, pow, pow + 1}) {
      EXPECT_EQ(Log2Histogram::bucket_index(v), naive_bucket(v)) << v;
    }
  }
  const auto max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(Log2Histogram::bucket_index(max), 64);
  EXPECT_EQ(naive_bucket(max), 64);
}

TEST(Log2Histogram, BucketIndexMatchesNaiveBinnerOnRandomValues) {
  Rng rng(0x10c2);
  for (int i = 0; i < 20000; ++i) {
    // Uniform over bit widths, then uniform within the width — plain
    // uniform u64 would almost never land in the small buckets.
    const int width = static_cast<int>(rng.below(65));
    const std::uint64_t lo =
        width == 0 ? 0 : std::uint64_t{1} << (width - 1);
    const std::uint64_t v = width == 0 ? 0 : lo + rng.below(lo);
    EXPECT_EQ(Log2Histogram::bucket_index(v), naive_bucket(v)) << v;
  }
}

TEST(Log2Histogram, EveryBucketContainsItsOwnEdges) {
  for (int k = 0; k < Log2Histogram::kBuckets; ++k) {
    EXPECT_EQ(Log2Histogram::bucket_index(Log2Histogram::bucket_lo(k)), k);
    if (k < 64) {
      EXPECT_EQ(Log2Histogram::bucket_index(Log2Histogram::bucket_hi(k) - 1),
                k);
      EXPECT_LT(Log2Histogram::bucket_lo(k), Log2Histogram::bucket_hi(k));
    } else {
      // Bucket 64's exclusive edge does not fit in uint64; the clamped
      // edge value itself belongs to the bucket.
      EXPECT_EQ(Log2Histogram::bucket_index(Log2Histogram::bucket_hi(k)), k);
    }
  }
}

TEST(Log2Histogram, AddAccumulatesCountsTotalsAndSum) {
  Log2Histogram h;
  EXPECT_EQ(h.first_nonzero(), -1);
  EXPECT_EQ(h.last_nonzero(), -1);
  h.add(0);
  h.add(1);
  h.add(5);
  h.add(5);
  h.add(1023);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.sum(), 0u + 1 + 5 + 5 + 1023);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(3), 2u);   // [4,8)
  EXPECT_EQ(h.count(10), 1u);  // [512,1024)
  EXPECT_EQ(h.first_nonzero(), 0);
  EXPECT_EQ(h.last_nonzero(), 10);
}

// -- quantile() (feeds the stats verb, /metrics and istc top) ----------------

TEST(Log2Histogram, QuantileOfEmptyHistogramIsZero) {
  const Log2Histogram h;
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.quantile(q), 0.0) << q;
  }
}

TEST(Log2Histogram, QuantileClampsOutOfRangeInputs) {
  Log2Histogram h;
  h.add(100);
  EXPECT_EQ(h.quantile(-3.0), h.quantile(0.0));
  EXPECT_EQ(h.quantile(7.0), h.quantile(1.0));
}

TEST(Log2Histogram, QuantileOfSingleSampleLandsInItsBucket) {
  Log2Histogram h;
  h.add(100);  // bucket [64,128)
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, 64.0) << q;
    EXPECT_LT(v, 128.0) << q;
    // One sample means one answer: every quantile reads the same rank.
    EXPECT_EQ(v, h.quantile(0.5)) << q;
  }
}

TEST(Log2Histogram, QuantileOfZeroSamplesIsExactlyZero) {
  Log2Histogram h;
  h.add(0);
  h.add(0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.quantile(1.0), 0.0);
}

TEST(Log2Histogram, QuantileAllInOverflowBucketStaysInBucket) {
  Log2Histogram h;
  const auto big = std::uint64_t{1} << 63;  // first value of bucket 64
  h.add(big);
  h.add(std::numeric_limits<std::uint64_t>::max());
  const double lo = static_cast<double>(big);
  for (const double q : {0.0, 0.5, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, lo) << q;
    EXPECT_LE(v, static_cast<double>(
                     std::numeric_limits<std::uint64_t>::max()))
        << q;
  }
}

TEST(Log2Histogram, QuantileIsMonotoneInQ) {
  Rng rng(0x9A517);
  Log2Histogram h;
  for (int i = 0; i < 5000; ++i) {
    const int width = static_cast<int>(rng.below(20));
    const std::uint64_t lo = width == 0 ? 0 : std::uint64_t{1} << (width - 1);
    h.add(width == 0 ? 0 : lo + rng.below(lo));
  }
  double prev = h.quantile(0.0);
  for (int i = 1; i <= 100; ++i) {
    const double v = h.quantile(static_cast<double>(i) / 100.0);
    EXPECT_GE(v, prev) << i;
    prev = v;
  }
}

TEST(Log2Histogram, QuantileBracketsTheMedianOfAKnownSet) {
  Log2Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.add(v);
  // True median 500; log2 buckets bound it to [256,512).
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 256.0);
  EXPECT_LT(p50, 512.0);
  const double p99 = h.quantile(0.99);
  EXPECT_GE(p99, 512.0);  // true p99 ~990
  EXPECT_LT(p99, 1024.0);
}

TEST(Log2Histogram, QuantileOfOneSampleIsThatSample) {
  // One 2851 us what-if: its bucket [2048,4096) interpolates to 3072 at
  // every q, above the only value observed; the clamp reads the sample.
  Log2Histogram h;
  h.add(2851);
  EXPECT_EQ(h.min(), 2851u);
  EXPECT_EQ(h.max(), 2851u);
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(h.quantile(q), 2851.0) << q;
  }
}

/// A value uniform over bit widths [0, 40], then uniform within the width.
std::uint64_t random_value(Rng& rng) {
  const int width = static_cast<int>(rng.below(41));
  const std::uint64_t lo = width == 0 ? 0 : std::uint64_t{1} << (width - 1);
  return width == 0 ? 0 : lo + rng.below(lo);
}

TEST(Log2Histogram, QuantilesLieWithinTheObservedRange) {
  // Half the samples go to each of two histograms, which are merged and
  // rebuilt through from_counts: min and max survive add, merge and
  // from_counts, and no quantile leaves [min, max].
  Rng rng(0x3a11);
  for (int trial = 0; trial < 300; ++trial) {
    Log2Histogram a;
    Log2Histogram b;
    std::uint64_t lo = ~std::uint64_t{0};
    std::uint64_t hi = 0;
    const int n = 1 + static_cast<int>(rng.below(40));
    for (int i = 0; i < n; ++i) {
      const std::uint64_t v = random_value(rng);
      (i % 2 == 0 ? a : b).add(v);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    a.merge(b);
    const Log2Histogram& merged = a;
    std::uint64_t counts[Log2Histogram::kBuckets];
    for (int k = 0; k < Log2Histogram::kBuckets; ++k) {
      counts[k] = merged.count(k);
    }
    const Log2Histogram rebuilt = Log2Histogram::from_counts(
        counts, merged.sum(), merged.min(), merged.max());
    for (const Log2Histogram* h : {&merged, &rebuilt}) {
      ASSERT_EQ(h->min(), lo) << trial;
      ASSERT_EQ(h->max(), hi) << trial;
      for (int i = 0; i <= 100; ++i) {
        const double v = h->quantile(static_cast<double>(i) / 100.0);
        EXPECT_GE(v, static_cast<double>(lo)) << trial << " q" << i;
        EXPECT_LE(v, static_cast<double>(hi)) << trial << " q" << i;
      }
    }
  }
}

TEST(Log2Histogram, MergeSumsCountsTotalsAndSums) {
  Log2Histogram a;
  Log2Histogram b;
  a.add(5);
  a.add(100);
  b.add(5);
  b.add(70000);
  a.merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.sum(), 5u + 100 + 5 + 70000);
  EXPECT_EQ(a.count(Log2Histogram::bucket_index(5)), 2u);
  EXPECT_EQ(a.count(Log2Histogram::bucket_index(100)), 1u);
  EXPECT_EQ(a.count(Log2Histogram::bucket_index(70000)), 1u);
  // Merging an empty histogram is the identity.
  const std::uint64_t before = a.total();
  a.merge(Log2Histogram{});
  EXPECT_EQ(a.total(), before);
}

}  // namespace
}  // namespace istc::metrics
