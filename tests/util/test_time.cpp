#include "util/time.hpp"

#include <gtest/gtest.h>

namespace istc {
namespace {

TEST(Time, UnitConstants) {
  EXPECT_EQ(kSecondsPerMinute, 60);
  EXPECT_EQ(kSecondsPerHour, 3600);
  EXPECT_EQ(kSecondsPerDay, 86400);
  EXPECT_EQ(kSecondsPerWeek, 604800);
}

TEST(Time, Constructors) {
  EXPECT_EQ(minutes(3), 180);
  EXPECT_EQ(hours(2), 7200);
  EXPECT_EQ(days(1), 86400);
  EXPECT_EQ(hours(0), 0);
}

TEST(Time, Conversions) {
  EXPECT_DOUBLE_EQ(to_hours(3600), 1.0);
  EXPECT_DOUBLE_EQ(to_hours(5400), 1.5);
  EXPECT_DOUBLE_EQ(to_days(43200), 0.5);
}

TEST(Time, HourOfDay) {
  EXPECT_EQ(hour_of_day(0), 0);
  EXPECT_EQ(hour_of_day(3600), 1);
  EXPECT_EQ(hour_of_day(hours(23) + 3599), 23);
  EXPECT_EQ(hour_of_day(days(1)), 0);
  EXPECT_EQ(hour_of_day(days(2) + hours(14)), 14);
}

TEST(Time, DayIndex) {
  EXPECT_EQ(day_index(0), 0);
  EXPECT_EQ(day_index(days(1) - 1), 0);
  EXPECT_EQ(day_index(days(1)), 1);
  EXPECT_EQ(day_index(days(9) + hours(3)), 9);
}

TEST(Time, FormatDurationShort) {
  EXPECT_EQ(format_duration(0), "00:00:00");
  EXPECT_EQ(format_duration(61), "00:01:01");
  EXPECT_EQ(format_duration(hours(5) + minutes(4) + 3), "05:04:03");
}

TEST(Time, FormatDurationDays) {
  EXPECT_EQ(format_duration(days(2) + hours(3) + minutes(4) + 5),
            "2d 03:04:05");
}

TEST(Time, FormatDurationNegative) {
  EXPECT_EQ(format_duration(-61), "-00:01:01");
}

TEST(Time, InfinityIsFarButSafe) {
  // Adding a realistic duration to "infinity" must not overflow.
  EXPECT_GT(kTimeInfinity + days(100000), kTimeInfinity);
  EXPECT_GT(kTimeInfinity, days(365) * 1000);
}

}  // namespace
}  // namespace istc
