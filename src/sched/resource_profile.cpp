#include "sched/resource_profile.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace istc::sched {

ResourceProfile::ResourceProfile(SimTime origin, int capacity)
    : origin_(origin), capacity_(capacity) {
  ISTC_EXPECTS(capacity >= 0);
  pts_.push_back(Pt{origin_, capacity_});
}

void ResourceProfile::assign(const ResourceProfile& other) {
  origin_ = other.origin_;
  capacity_ = other.capacity_;
  pts_.assign(other.pts_.begin() + static_cast<std::ptrdiff_t>(other.head_),
              other.pts_.end());
  head_ = 0;
}

std::size_t ResourceProfile::find(SimTime t) const {
  const auto first = pts_.begin() + static_cast<std::ptrdiff_t>(head_);
  const auto it = std::upper_bound(
      first, pts_.end(), t, [](SimTime v, const Pt& p) { return v < p.t; });
  ISTC_ASSERT(it != first);
  return static_cast<std::size_t>(it - pts_.begin()) - 1;
}

int ResourceProfile::free_at(SimTime t) const {
  ISTC_EXPECTS(t >= origin_);
  return pts_[find(t)].f;
}

int ResourceProfile::min_free(SimTime start, SimTime end) const {
  ISTC_EXPECTS(start >= origin_);
  ISTC_EXPECTS(end > start);
  std::size_t i = find(start);
  int lo = pts_[i].f;
  for (++i; i < pts_.size() && pts_[i].t < end; ++i) {
    lo = std::min(lo, pts_[i].f);
  }
  return lo;
}

std::size_t ResourceProfile::split_at(SimTime t) {
  const std::size_t i = find(t);
  if (pts_[i].t == t) return i;
  pts_.insert(pts_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
              Pt{t, pts_[i].f});
  return i + 1;
}

void ResourceProfile::coalesce(SimTime lo, SimTime hi) {
  // Mirror of the textbook map walk: consider (kept, next) pairs while the
  // kept breakpoint is at or before hi; drop `next` when equal-valued.
  // Survivors compact leftward in place; the single erase at the end
  // closes the gap with one move of the untouched tail.
  const auto first = pts_.begin() + static_cast<std::ptrdiff_t>(head_);
  const auto it = std::lower_bound(
      first, pts_.end(), lo, [](const Pt& p, SimTime v) { return p.t < v; });
  std::size_t w = static_cast<std::size_t>(it - pts_.begin());
  if (w > head_) --w;  // include the segment the range's left edge cuts into
  std::size_t j = w + 1;
  for (; j < pts_.size(); ++j) {
    if (pts_[w].t > hi) break;
    if (pts_[j].f == pts_[w].f) continue;  // merged into the kept segment
    pts_[++w] = pts_[j];
  }
  if (j != w + 1) {
    pts_.erase(pts_.begin() + static_cast<std::ptrdiff_t>(w) + 1,
               pts_.begin() + static_cast<std::ptrdiff_t>(j));
  }
}

void ResourceProfile::reserve(SimTime start, SimTime end, int cpus) {
  ISTC_EXPECTS(start >= origin_);
  ISTC_EXPECTS(end > start);
  ISTC_EXPECTS(cpus > 0);
  ISTC_EXPECTS(min_free(start, end) >= cpus);
  const std::size_t lo = split_at(start);
  // end may be past every breakpoint; splitting materializes the boundary.
  const std::size_t hi = split_at(end);
  for (std::size_t i = lo; i < hi; ++i) {
    pts_[i].f -= cpus;
    ISTC_ASSERT(pts_[i].f >= 0);
  }
  coalesce(start, end);
}

void ResourceProfile::release(SimTime start, SimTime end, int cpus) {
  ISTC_EXPECTS(start >= origin_);
  ISTC_EXPECTS(end > start);
  ISTC_EXPECTS(cpus > 0);
  const std::size_t lo = split_at(start);
  const std::size_t hi = split_at(end);
  for (std::size_t i = lo; i < hi; ++i) {
    pts_[i].f += cpus;
    ISTC_ASSERT(pts_[i].f <= capacity_);
  }
  coalesce(start, end);
}

ResourceProfile::Step ResourceProfile::step_at(SimTime t) const {
  ISTC_EXPECTS(t >= origin_);
  // Fast path: t inside the first segment.  The sampler probes settled
  // state, where every breakpoint at or before the probe time has already
  // been consumed by a scheduler pass (advance_origin), so this is the
  // common case — one bounds check instead of a binary search.
  std::size_t i = head_;
  if (head_ + 1 < pts_.size() && pts_[head_ + 1].t <= t) i = find(t);
  const int at_t = pts_[i].f;
  for (++i; i < pts_.size(); ++i) {
    if (pts_[i].f != at_t) return {at_t, pts_[i].t};
  }
  return {at_t, kTimeInfinity};
}

void ResourceProfile::advance_origin(SimTime t) {
  ISTC_EXPECTS(t >= origin_);
  if (t == origin_) return;
  // The segment covering t becomes the first live entry, re-anchored
  // exactly at t; everything before it is dead history behind the cursor.
  std::size_t i = find(t);
  pts_[i].t = t;
  head_ = i;
  origin_ = t;
  // The new first segment may now equal its successor (the erased history
  // carried the only difference); fold the run so the profile stays
  // canonical.
  while (head_ + 1 < pts_.size() && pts_[head_ + 1].f == pts_[head_].f) {
    pts_[head_ + 1].t = t;
    ++head_;
  }
  // Reclaim the dead prefix in bulk once it dominates: amortized O(1) per
  // advance, and the array never grows beyond ~2x the live breakpoints.
  if (head_ > 64 && head_ * 2 > pts_.size()) {
    pts_.erase(pts_.begin(), pts_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void ResourceProfile::coalesce() {
  coalesce(origin_, pts_.back().t);
}

bool ResourceProfile::same_function(const ResourceProfile& other) const {
  if (origin_ != other.origin_ || capacity_ != other.capacity_) return false;
  // Sweep the union of breakpoints; the functions are equal iff they agree
  // on every segment the union induces.
  std::size_t a = head_;
  std::size_t b = other.head_;
  int va = pts_[a].f;
  int vb = other.pts_[b].f;
  ++a;
  ++b;
  while (a < pts_.size() || b < other.pts_.size()) {
    if (va != vb) return false;
    if (b == other.pts_.size() ||
        (a < pts_.size() && pts_[a].t < other.pts_[b].t)) {
      va = pts_[a].f;
      ++a;
    } else if (a == pts_.size() || other.pts_[b].t < pts_[a].t) {
      vb = other.pts_[b].f;
      ++b;
    } else {
      va = pts_[a].f;
      vb = other.pts_[b].f;
      ++a;
      ++b;
    }
  }
  return va == vb;
}

SimTime ResourceProfile::earliest_fit(int cpus, Seconds duration,
                                      SimTime not_before) const {
  ISTC_EXPECTS(cpus > 0);
  ISTC_EXPECTS(duration > 0);
  ISTC_EXPECTS(cpus <= capacity_);
  SimTime t = std::max(not_before, origin_);
  const std::size_t n = pts_.size();
  // Walk candidate start times: current t, then each breakpoint where free
  // capacity rises.  For each candidate, scan the window; on failure, jump
  // to the step after the blocking segment.
  for (;;) {
    // Find the segment covering t.
    std::size_t i = find(t);
    if (pts_[i].f < cpus) {
      // Blocked immediately; advance to the next step with enough room.
      ++i;
      while (i < n && pts_[i].f < cpus) ++i;
      if (i == n) {
        // Last segment value is reachable only if >= cpus; since the final
        // segment extends to infinity and capacity >= cpus, the last
        // segment must eventually fit.  If not, the profile is saturated
        // forever, which reserve() forbids (it cannot exceed capacity).
        ISTC_ASSERT(pts_[n - 1].f >= cpus);
        return pts_[n - 1].t > t ? pts_[n - 1].t : t;
      }
      t = pts_[i].t;
      continue;
    }
    // Scan forward through [t, t+duration).
    const SimTime end = t + duration;
    std::size_t scan = i + 1;
    bool ok = true;
    for (; scan < n && pts_[scan].t < end; ++scan) {
      if (pts_[scan].f < cpus) {
        ok = false;
        break;
      }
    }
    if (ok) return t;
    // Restart after the blocking segment.
    std::size_t after = scan;
    while (after < n && pts_[after].f < cpus) ++after;
    ISTC_ASSERT(after < n || pts_[n - 1].f >= cpus);
    t = after < n ? pts_[after].t : pts_[n - 1].t;
  }
}

}  // namespace istc::sched
