#include "cluster/downtime.hpp"

#include <gtest/gtest.h>

namespace istc::cluster {
namespace {

DowntimeCalendar two_windows() {
  return DowntimeCalendar({{100, 200}, {500, 550}});
}

TEST(Downtime, EmptyCalendarAlwaysUp) {
  DowntimeCalendar cal;
  EXPECT_TRUE(cal.empty());
  EXPECT_FALSE(cal.is_down(0));
  EXPECT_FALSE(cal.is_down(1000000));
  EXPECT_EQ(cal.next_down_start(0), kTimeInfinity);
  EXPECT_TRUE(cal.can_run(0, days(365)));
  EXPECT_EQ(cal.down_seconds(0, 1000), 0);
}

TEST(Downtime, IsDownBoundaries) {
  const auto cal = two_windows();
  EXPECT_FALSE(cal.is_down(99));
  EXPECT_TRUE(cal.is_down(100));   // inclusive start
  EXPECT_TRUE(cal.is_down(199));
  EXPECT_FALSE(cal.is_down(200));  // exclusive end
  EXPECT_TRUE(cal.is_down(520));
}

TEST(Downtime, NextDownStart) {
  const auto cal = two_windows();
  EXPECT_EQ(cal.next_down_start(0), 100);
  EXPECT_EQ(cal.next_down_start(100), 100);
  EXPECT_EQ(cal.next_down_start(101), 500);
  EXPECT_EQ(cal.next_down_start(550), kTimeInfinity);
}

TEST(Downtime, UpAgainAt) {
  const auto cal = two_windows();
  EXPECT_EQ(cal.up_again_at(50), 50);     // already up
  EXPECT_EQ(cal.up_again_at(100), 200);
  EXPECT_EQ(cal.up_again_at(150), 200);
  EXPECT_EQ(cal.up_again_at(200), 200);
  EXPECT_EQ(cal.up_again_at(549), 550);
}

TEST(Downtime, CanRun) {
  const auto cal = two_windows();
  EXPECT_TRUE(cal.can_run(0, 100));    // [0,100) touches nothing
  EXPECT_FALSE(cal.can_run(0, 101));   // crosses into window
  EXPECT_FALSE(cal.can_run(150, 1));   // starts inside window
  EXPECT_TRUE(cal.can_run(200, 300));  // [200,500) exactly fits the gap
  EXPECT_FALSE(cal.can_run(200, 301));
  EXPECT_TRUE(cal.can_run(550, kTimeInfinity / 8));  // after last window
}

TEST(Downtime, DownSeconds) {
  const auto cal = two_windows();
  EXPECT_EQ(cal.down_seconds(0, 1000), 150);
  EXPECT_EQ(cal.down_seconds(150, 520), 70);  // 50 of first + 20 of second
  EXPECT_EQ(cal.down_seconds(200, 500), 0);
}

TEST(Downtime, WindowsSortedOnConstruction) {
  DowntimeCalendar cal({{500, 550}, {100, 200}});
  EXPECT_EQ(cal.windows().front().start, 100);
  EXPECT_EQ(cal.next_down_start(0), 100);
}

TEST(Downtime, PeriodicGeneratorProperties) {
  Rng rng(1);
  const SimTime span = days(60);
  const auto cal =
      DowntimeCalendar::periodic(days(10), hours(10), span, rng, 0.1);
  EXPECT_FALSE(cal.empty());
  EXPECT_GE(cal.windows().size(), 4u);
  for (std::size_t i = 0; i < cal.windows().size(); ++i) {
    const auto& w = cal.windows()[i];
    EXPECT_EQ(w.duration(), hours(10));
    EXPECT_GE(w.start, 0);
    EXPECT_LT(w.end, span);
    if (i > 0) {
      EXPECT_GT(w.start, cal.windows()[i - 1].end);
    }
  }
}

TEST(Downtime, PeriodicDeterministicPerSeed) {
  Rng a(7), b(7);
  const auto c1 = DowntimeCalendar::periodic(days(7), hours(8), days(40), a);
  const auto c2 = DowntimeCalendar::periodic(days(7), hours(8), days(40), b);
  ASSERT_EQ(c1.windows().size(), c2.windows().size());
  for (std::size_t i = 0; i < c1.windows().size(); ++i) {
    EXPECT_EQ(c1.windows()[i].start, c2.windows()[i].start);
    EXPECT_EQ(c1.windows()[i].end, c2.windows()[i].end);
  }
}

// Property: for any time t, exactly one of is_down / can_run(t, 1) given
// the next window is not immediately adjacent.
class DowntimeSweep : public ::testing::TestWithParam<SimTime> {};

TEST_P(DowntimeSweep, DownXorRunnable) {
  const auto cal = two_windows();
  const SimTime t = GetParam();
  if (cal.is_down(t)) {
    EXPECT_FALSE(cal.can_run(t, 1));
  } else if (t + 1 <= cal.next_down_start(t)) {
    EXPECT_TRUE(cal.can_run(t, 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Times, DowntimeSweep,
                         ::testing::Values(0, 99, 100, 150, 199, 200, 499,
                                           500, 549, 550, 10000));

#ifdef GTEST_HAS_DEATH_TEST
TEST(DowntimeDeath, OverlappingWindowsRejected) {
  EXPECT_DEATH(DowntimeCalendar({{100, 200}, {150, 250}}), "precondition");
}

TEST(DowntimeDeath, EmptyWindowRejected) {
  EXPECT_DEATH(DowntimeCalendar({{100, 100}}), "precondition");
}
#endif

}  // namespace
}  // namespace istc::cluster
