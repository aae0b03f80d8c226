#pragma once

#include <vector>

#include "util/rng.hpp"
#include "util/time.hpp"

/// \file downtime.hpp
/// Whole-machine outage windows.
///
/// The paper's Fig. 4 shows utilization collapsing to zero during outages
/// and reports machine utilization "including outages".  We model outages
/// as scheduled whole-machine down windows: the scheduler will not start a
/// job (native or interstitial) whose *estimated* completion crosses the
/// next window, so by the time a window opens the machine has drained.
/// Because estimates always dominate actual runtimes (see workload), no
/// running job ever overlaps a window.
///
/// The calendar answers one question, in one binary search: may a job of a
/// given estimate start at t, and if not, how far must it move
/// (next_clear).  Every start path asks it — native dispatch, backfill,
/// the interstitial gate and the interstitial driver's idle wake.

namespace istc::cluster {

struct DowntimeWindow {
  SimTime start = 0;
  SimTime end = 0;  // exclusive
  Seconds duration() const { return end - start; }
};

class DowntimeCalendar {
 public:
  DowntimeCalendar() = default;

  /// Windows must be non-empty and non-overlapping; they are sorted.
  explicit DowntimeCalendar(std::vector<DowntimeWindow> windows);

  bool empty() const { return windows_.empty(); }
  const std::vector<DowntimeWindow>& windows() const { return windows_; }

  /// t itself when a job occupying [t, t + dur) touches no window (t inside
  /// a window counts as touching it, even for dur == 0); otherwise the end
  /// of the first window that interval touches.  No start in [t, result)
  /// is clear, so repeated calls reach the earliest clear start.
  SimTime next_clear(SimTime t, Seconds dur) const;

  /// May a job occupying [t, t + dur) run without touching a window?
  bool can_run(SimTime t, Seconds dur) const { return next_clear(t, dur) == t; }

  /// Total down seconds inside [lo, hi).
  Seconds down_seconds(SimTime lo, SimTime hi) const;

  /// Generate periodic maintenance windows: one per `period` with the given
  /// duration, jittered by the rng, covering [0, span).
  static DowntimeCalendar periodic(Seconds period, Seconds duration,
                                   SimTime span, Rng& rng,
                                   double jitter_frac = 0.25);

 private:
  std::vector<DowntimeWindow> windows_;
};

}  // namespace istc::cluster
