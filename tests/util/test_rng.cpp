#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/stats.hpp"

namespace istc {
namespace {

TEST(SplitMix64, KnownSequence) {
  // Reference values from the canonical splitmix64 with seed 0.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next();
  EXPECT_LE(same, 1);
}

TEST(Rng, ForkIndependentStreams) {
  Rng root(7);
  Rng s0 = root.fork(0);
  Rng s1 = root.fork(1);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += s0.next() == s1.next();
  EXPECT_LE(same, 1);
  // Forking is a pure function of parent state + stream index (fork does
  // not advance the parent, so a fresh root reproduces the same stream).
  Rng root2(7);
  Rng s0b = root2.fork(0);
  Rng s0c = root.fork(0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(s0c.next(), s0b.next());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanAndRange) {
  Rng rng(4);
  OnlineStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.uniform(10.0, 20.0));
  EXPECT_NEAR(s.mean(), 15.0, 0.1);
  EXPECT_GE(s.min(), 10.0);
  EXPECT_LT(s.max(), 20.0);
}

TEST(Rng, BelowIsUnbiasedOverSmallRange) {
  Rng rng(5);
  std::vector<int> counts(7, 0);
  const int draws = 70000;
  for (int i = 0; i < draws; ++i) ++counts[rng.below(7)];
  for (int c : counts) EXPECT_NEAR(c, draws / 7, draws / 7 / 5);
}

TEST(Rng, RangeInclusive) {
  Rng rng(6);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(7);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(8);
  OnlineStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.exponential(50.0));
  EXPECT_NEAR(s.mean(), 50.0, 1.0);
  EXPECT_GE(s.min(), 0.0);
}

TEST(Rng, NormalMoments) {
  Rng rng(9);
  OnlineStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, LognormalMedian) {
  Rng rng(10);
  std::vector<double> v;
  for (int i = 0; i < 50000; ++i) v.push_back(rng.lognormal(3.0, 1.0));
  EXPECT_NEAR(median_of(v), std::exp(3.0), 0.5);
}

TEST(Rng, BoundedParetoSupport) {
  Rng rng(12);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.bounded_pareto(1.0, 100.0, 1.2);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 100.0);
  }
}

TEST(Rng, BoundedParetoSkewsLow) {
  Rng rng(13);
  int low = 0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    low += rng.bounded_pareto(1.0, 1024.0, 1.0) < 8.0;
  }
  // With alpha=1 most of the mass sits near the lower bound.
  EXPECT_GT(low, draws / 2);
}

TEST(DiscreteSampler, RespectsWeights) {
  const std::vector<double> w{1.0, 3.0, 6.0};
  DiscreteSampler sampler{std::span<const double>(w)};
  Rng rng(14);
  std::vector<int> counts(3, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[sampler(rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(draws), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(draws), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(draws), 0.6, 0.01);
}

TEST(DiscreteSampler, SingleOutcome) {
  const std::vector<double> w{5.0};
  DiscreteSampler sampler{std::span<const double>(w)};
  Rng rng(15);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sampler(rng), 0u);
}

TEST(DiscreteSampler, ZeroWeightNeverDrawn) {
  const std::vector<double> w{1.0, 0.0, 1.0};
  DiscreteSampler sampler{std::span<const double>(w)};
  Rng rng(16);
  for (int i = 0; i < 20000; ++i) EXPECT_NE(sampler(rng), 1u);
}

// Property sweep: uniform() stays in range for many seeds.
class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformAlwaysInRange) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST_P(RngSeedSweep, BelowNeverReachesBound) {
  Rng rng(GetParam() * 77 + 1);
  for (std::uint64_t n : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 500; ++i) ASSERT_LT(rng.below(n), n);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0, 1, 2, 42, 1337, 0xdeadbeef,
                                           0xffffffffffffffffULL));

}  // namespace
}  // namespace istc
