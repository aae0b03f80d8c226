#include "util/histogram.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace istc {
namespace {

TEST(Log10Histogram, SubSecondValuesInFirstBin) {
  Log10Histogram h(6);
  h.add(0.0);
  h.add(0.5);
  h.add(0.99);
  EXPECT_EQ(h.count(0), 3u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Log10Histogram, DecadeBoundaries) {
  Log10Histogram h(6);
  h.add(1.0);     // log10 = 0 -> bin 0
  h.add(9.99);    // bin 0
  h.add(10.0);    // bin 1
  h.add(99.0);    // bin 1
  h.add(100.0);   // bin 2
  h.add(1e5);     // bin 5
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 2u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(5), 1u);
}

TEST(Log10Histogram, OverflowClampsToLastBin) {
  Log10Histogram h(3);
  h.add(1e9);
  EXPECT_EQ(h.count(2), 1u);
}

TEST(Log10Histogram, Fractions) {
  Log10Histogram h(4);
  h.add(1);
  h.add(1);
  h.add(10);
  h.add(100);
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.5);
  EXPECT_DOUBLE_EQ(h.fraction(1), 0.25);
  EXPECT_DOUBLE_EQ(h.fraction(3), 0.0);
}

TEST(Log10Histogram, EmptyFractionIsZero) {
  Log10Histogram h(4);
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.0);
}

TEST(Log10Histogram, BinLabel) {
  EXPECT_EQ(Log10Histogram::bin_label(0), "[0,1)");
  EXPECT_EQ(Log10Histogram::bin_label(3), "[3,4)");
}

TEST(Log10Histogram, AddAll) {
  Log10Histogram h(6);
  h.add_all({0.0, 5.0, 50.0, 5000.0});
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(0), 2u);  // 0.0 and 5.0
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(3), 1u);
}

TEST(SurvivalCurve, BasicEvaluation) {
  SurvivalCurve c({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(c.at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(c.at(1.0), 0.75);   // strictly greater than 1
  EXPECT_DOUBLE_EQ(c.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(c.at(4.0), 0.0);
  EXPECT_DOUBLE_EQ(c.at(100.0), 0.0);
}

TEST(SurvivalCurve, DuplicatesCollapse) {
  SurvivalCurve c({2.0, 2.0, 2.0, 5.0});
  EXPECT_DOUBLE_EQ(c.at(1.0), 1.0);
  EXPECT_DOUBLE_EQ(c.at(2.0), 0.25);
  const auto steps = c.steps();
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_DOUBLE_EQ(steps[0].first, 2.0);
  EXPECT_DOUBLE_EQ(steps[0].second, 0.25);
  EXPECT_DOUBLE_EQ(steps[1].first, 5.0);
  EXPECT_DOUBLE_EQ(steps[1].second, 0.0);
}

TEST(SurvivalCurve, StepsAreMonotone) {
  SurvivalCurve c({3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0});
  const auto steps = c.steps();
  for (std::size_t i = 1; i < steps.size(); ++i) {
    EXPECT_GT(steps[i].first, steps[i - 1].first);
    EXPECT_LT(steps[i].second, steps[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(steps.back().second, 0.0);
}

// Property: totals conserved and fractions sum to 1 for random inputs.
class HistogramConservation : public ::testing::TestWithParam<int> {};

TEST_P(HistogramConservation, FractionsSumToOne) {
  Log10Histogram h(6);
  const int n = GetParam();
  for (int i = 0; i < n; ++i) h.add(std::pow(1.37, i % 40));
  EXPECT_EQ(h.total(), static_cast<std::size_t>(n));
  double sum = 0;
  for (std::size_t d = 0; d < h.decades(); ++d) sum += h.fraction(d);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, HistogramConservation,
                         ::testing::Values(1, 7, 100, 5000));

}  // namespace
}  // namespace istc
