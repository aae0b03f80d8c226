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
  EXPECT_EQ(cal.next_clear(0, 0), 0);
  EXPECT_EQ(cal.next_clear(1000000, 0), 1000000);
  EXPECT_EQ(cal.next_clear(0, kTimeInfinity / 8), 0);
  EXPECT_TRUE(cal.can_run(0, days(365)));
  EXPECT_EQ(cal.down_seconds(0, 1000), 0);
}

// A zero-length query asks only "is t inside a window?": it moves t to
// the window's end when it is, and leaves it alone when it is not.
TEST(Downtime, IsDownBoundaries) {
  const auto cal = two_windows();
  EXPECT_EQ(cal.next_clear(99, 0), 99);
  EXPECT_EQ(cal.next_clear(100, 0), 200);  // inclusive start
  EXPECT_EQ(cal.next_clear(199, 0), 200);
  EXPECT_EQ(cal.next_clear(200, 0), 200);  // exclusive end
  EXPECT_EQ(cal.next_clear(520, 0), 550);
}

// From a time the machine is up, a job is clear exactly when it ends by the
// next window's start; one second longer and it must wait that window out.
TEST(Downtime, NextDownStart) {
  const auto cal = two_windows();
  EXPECT_EQ(cal.next_clear(0, 100), 0);
  EXPECT_EQ(cal.next_clear(0, 101), 200);
  EXPECT_EQ(cal.next_clear(100, 1), 200);  // the window starts at t
  EXPECT_EQ(cal.next_clear(201, 299), 201);
  EXPECT_EQ(cal.next_clear(201, 300), 550);
  EXPECT_EQ(cal.next_clear(550, kTimeInfinity / 8), 550);  // none after
}

// Inside a window every duration waits for the window's end, including
// durations that would also cross the window after it.
TEST(Downtime, UpAgainAt) {
  const auto cal = two_windows();
  EXPECT_EQ(cal.next_clear(50, 10), 50);  // already up
  EXPECT_EQ(cal.next_clear(100, 10), 200);
  EXPECT_EQ(cal.next_clear(150, 1000), 200);
  EXPECT_EQ(cal.next_clear(200, 10), 200);
  EXPECT_EQ(cal.next_clear(549, 10), 550);
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
  EXPECT_EQ(cal.next_clear(0, 101), 200);
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

// Property: for any time t, exactly one of "down at t" (a zero-length
// query moves t) and can_run(t, 1) holds; a down t moves to the same
// window end whatever the duration.
class DowntimeSweep : public ::testing::TestWithParam<SimTime> {};

TEST_P(DowntimeSweep, DownXorRunnable) {
  const auto cal = two_windows();
  const SimTime t = GetParam();
  const bool down = cal.next_clear(t, 0) != t;
  EXPECT_NE(down, cal.can_run(t, 1));
  if (down) {
    EXPECT_EQ(cal.next_clear(t, 1), cal.next_clear(t, 0));
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
