#pragma once

#include <cstdint>
#include <string>

/// \file time.hpp
/// Simulation time.  All simulator clocks are integral seconds since the
/// start of the trace: integral time keeps event ordering exact and replays
/// bit-reproducible across platforms (floating-point accumulation is not).

namespace istc {

/// Seconds since trace start.  Signed so durations and differences are
/// representable; the simulator never runs with negative absolute time.
using SimTime = std::int64_t;

/// A duration in seconds (same representation as SimTime by design; the
/// distinction is documentation).
using Seconds = std::int64_t;

inline constexpr Seconds kSecondsPerMinute = 60;
inline constexpr Seconds kSecondsPerHour = 3600;
inline constexpr Seconds kSecondsPerDay = 86400;
inline constexpr Seconds kSecondsPerWeek = 7 * kSecondsPerDay;

/// Sentinel for "never" / unbounded horizon.
inline constexpr SimTime kTimeInfinity = INT64_MAX / 4;

constexpr SimTime minutes(std::int64_t m) { return m * kSecondsPerMinute; }
constexpr SimTime hours(std::int64_t h) { return h * kSecondsPerHour; }
constexpr SimTime days(std::int64_t d) { return d * kSecondsPerDay; }

/// Convert seconds to fractional hours/days for reporting.
constexpr double to_hours(SimTime t) { return static_cast<double>(t) / 3600.0; }
constexpr double to_days(SimTime t) { return static_cast<double>(t) / 86400.0; }

/// Hour-of-day in [0,24) assuming the trace starts at midnight.
constexpr int hour_of_day(SimTime t) {
  return static_cast<int>((t % kSecondsPerDay + kSecondsPerDay) %
                          kSecondsPerDay / kSecondsPerHour);
}

/// Day index since trace start (day 0 = first day).
constexpr std::int64_t day_index(SimTime t) { return t / kSecondsPerDay; }

/// "3d 04:05:06"-style rendering for logs and reports.
std::string format_duration(Seconds s);

}  // namespace istc
