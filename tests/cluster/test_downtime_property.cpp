#include "cluster/downtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "util/rng.hpp"

// Property test: DowntimeCalendar against a brute-force per-second oracle.
//
// The calendar answers interval queries with binary search over sorted
// windows; the oracle materializes a boolean "down" bit per second and
// answers every query by linear scan.  Any disagreement — especially at
// the half-open boundaries (window start inclusive, end exclusive) — is a
// calendar bug.  Calendars are generated randomly (seeded), including
// back-to-back windows with a one-second gap and windows touching t = 0.

namespace istc::cluster {
namespace {

/// Per-second reference model over [0, horizon).  Queries beyond the
/// horizon are the caller's responsibility to avoid.
struct Oracle {
  std::vector<bool> down;

  explicit Oracle(const std::vector<DowntimeWindow>& windows,
                  SimTime horizon)
      : down(static_cast<std::size_t>(horizon), false) {
    for (const auto& w : windows) {
      for (SimTime t = w.start; t < w.end; ++t) {
        down[static_cast<std::size_t>(t)] = true;
      }
    }
  }

  bool is_down(SimTime t) const {
    return t < static_cast<SimTime>(down.size()) &&
           down[static_cast<std::size_t>(t)];
  }

  /// t when no second of [t, t + max(dur, 1)) is down; otherwise the first
  /// up second after the first down one.  Windows are at least one second
  /// apart, so that is the end of the first window the job touches.
  SimTime next_clear(SimTime t, Seconds dur) const {
    const SimTime end = t + std::max<Seconds>(dur, 1);
    SimTime x = t;
    while (x < end && !is_down(x)) ++x;
    if (x == end) return t;
    while (is_down(x)) ++x;
    return x;
  }

  bool can_run(SimTime t, Seconds dur) const {
    for (SimTime x = t; x < t + dur; ++x) {
      if (is_down(x)) return false;
    }
    return true;
  }

  Seconds down_seconds(SimTime lo, SimTime hi) const {
    Seconds n = 0;
    for (SimTime x = lo; x < hi && x < static_cast<SimTime>(down.size());
         ++x) {
      if (is_down(x)) ++n;
    }
    return n;
  }
};

std::vector<DowntimeWindow> random_windows(Rng& rng, SimTime horizon) {
  std::vector<DowntimeWindow> ws;
  // March forward leaving random gaps so windows never overlap; allow a
  // gap of exactly one second (the tightest legal spacing) and a window
  // starting at 0.
  SimTime t = rng.bernoulli(0.2) ? 0 : rng.range(1, 40);
  while (t < horizon - 2) {
    const Seconds dur = rng.range(1, 60);
    const SimTime end = std::min<SimTime>(t + dur, horizon - 1);
    ws.push_back({t, end});
    t = end + rng.range(1, 50);
  }
  return ws;
}

TEST(DowntimeProperty, MatchesBruteForceOracle) {
  const bool quick = std::getenv("ISTC_QUICK") != nullptr;
  const int kCalendars = quick ? 8 : 40;
  const SimTime kHorizon = 2000;
  const Rng root(0xD07);  // fixed seed
  for (int c = 0; c < kCalendars; ++c) {
    Rng rng = root.fork(static_cast<std::uint64_t>(c));
    const auto windows = random_windows(rng, kHorizon);
    const DowntimeCalendar cal(windows);
    const Oracle oracle(windows, kHorizon);

    // Query points: every window's start, end-1, and end (the half-open
    // boundary trio), plus a sweep of random interior points.
    std::vector<SimTime> points = {0, 1, kHorizon - 2};
    for (const auto& w : windows) {
      points.push_back(w.start);
      if (w.start > 0) points.push_back(w.start - 1);
      points.push_back(w.end - 1);
      points.push_back(w.end);
    }
    for (int i = 0; i < (quick ? 50 : 300); ++i) {
      points.push_back(rng.range(0, kHorizon - 2));
    }

    for (const SimTime t : points) {
      const Seconds dur = rng.range(1, 120);
      for (const Seconds d : {Seconds{0}, dur}) {
        if (t + d >= kHorizon) continue;
        ASSERT_EQ(cal.next_clear(t, d), oracle.next_clear(t, d))
            << "next_clear(" << t << ", " << d << ") calendar " << c;
      }
      if (t + dur < kHorizon) {
        ASSERT_EQ(cal.can_run(t, dur), oracle.can_run(t, dur))
            << "can_run(" << t << ", " << dur << ") calendar " << c;
      }
      const SimTime hi = t + rng.range(0, kHorizon - 1 - t);
      ASSERT_EQ(cal.down_seconds(t, hi), oracle.down_seconds(t, hi))
          << "down_seconds(" << t << ", " << hi << ") calendar " << c;
    }
  }
}

// An empty calendar and a single-window calendar hit the binary-search
// edge cases (lower_bound returning begin/end) directly.
TEST(DowntimeProperty, DegenerateCalendarsMatchOracle) {
  for (const auto& windows : std::vector<std::vector<DowntimeWindow>>{
           {}, {{0, 1}}, {{5, 6}}, {{0, 100}}, {{99, 100}}}) {
    const DowntimeCalendar cal(windows);
    const Oracle oracle(windows, 100);
    for (SimTime t = 0; t < 100; ++t) {
      ASSERT_EQ(cal.next_clear(t, 0), oracle.next_clear(t, 0)) << t;
      ASSERT_EQ(cal.next_clear(t, 3), oracle.next_clear(t, 3)) << t;
      ASSERT_EQ(cal.down_seconds(0, t), oracle.down_seconds(0, t)) << t;
      ASSERT_EQ(cal.can_run(t, 3), oracle.can_run(t, 3)) << t;
    }
  }
}

}  // namespace
}  // namespace istc::cluster
