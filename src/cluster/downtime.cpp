#include "cluster/downtime.hpp"

#include <algorithm>
#include <iterator>

#include "util/assert.hpp"

namespace istc::cluster {

DowntimeCalendar::DowntimeCalendar(std::vector<DowntimeWindow> windows)
    : windows_(std::move(windows)) {
  std::sort(windows_.begin(), windows_.end(),
            [](const DowntimeWindow& a, const DowntimeWindow& b) {
              return a.start < b.start;
            });
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    ISTC_EXPECTS(windows_[i].end > windows_[i].start);
    if (i > 0) ISTC_EXPECTS(windows_[i].start >= windows_[i - 1].end);
  }
}

SimTime DowntimeCalendar::next_clear(SimTime t, Seconds dur) const {
  ISTC_EXPECTS(dur >= 0);
  // One search finds both windows that can block the start.  The first
  // window starting after t is the next to open, and only its predecessor
  // can contain t; when that one does not, no window starts at t either.
  const auto it = std::upper_bound(
      windows_.begin(), windows_.end(), t,
      [](SimTime v, const DowntimeWindow& w) { return v < w.start; });
  if (it != windows_.begin() && t < std::prev(it)->end) {
    return std::prev(it)->end;
  }
  if (it != windows_.end() && t + dur > it->start) return it->end;
  return t;
}

Seconds DowntimeCalendar::down_seconds(SimTime lo, SimTime hi) const {
  Seconds total = 0;
  for (const auto& w : windows_) {
    const SimTime a = std::max(lo, w.start);
    const SimTime b = std::min(hi, w.end);
    if (b > a) total += b - a;
  }
  return total;
}

DowntimeCalendar DowntimeCalendar::periodic(Seconds period, Seconds duration,
                                            SimTime span, Rng& rng,
                                            double jitter_frac) {
  ISTC_EXPECTS(period > 0 && duration > 0 && duration < period);
  std::vector<DowntimeWindow> windows;
  for (SimTime base = period; base + duration < span; base += period) {
    const auto jitter = static_cast<Seconds>(
        rng.uniform(-jitter_frac, jitter_frac) *
        static_cast<double>(period));
    SimTime start = base + jitter;
    if (!windows.empty()) start = std::max(start, windows.back().end + 1);
    if (start + duration >= span) break;
    windows.push_back({start, start + duration});
  }
  return DowntimeCalendar(std::move(windows));
}

}  // namespace istc::cluster
