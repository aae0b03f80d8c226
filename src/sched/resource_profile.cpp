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

void ResourceProfile::shift(SimTime start, SimTime end, int delta) {
  ISTC_EXPECTS(start >= origin_);
  ISTC_EXPECTS(end > start);
  const auto at = [this](std::size_t i) {
    return pts_.begin() + static_cast<std::ptrdiff_t>(i);
  };
  // Segments lo..hi meet [start, end); the same walk takes their minimum.
  std::size_t lo = find(start);
  std::size_t hi = lo;
  int lowest = pts_[lo].f;
  while (hi + 1 < pts_.size() && pts_[hi + 1].t < end) {
    ++hi;
    lowest = std::min(lowest, pts_[hi].f);
  }
  // A reservation needs its CPUs free throughout; nothing has moved yet.
  ISTC_EXPECTS(lowest + delta >= 0);
  // Breakpoints at end and at start (end first, so lo stays valid); each
  // inserted one repeats the value in force where it lands.
  std::size_t e = hi + 1;
  if (e == pts_.size() || pts_[e].t != end) {
    pts_.insert(at(e), Pt{end, pts_[hi].f});
  }
  if (pts_[lo].t != start) {
    pts_.insert(at(lo + 1), Pt{start, pts_[lo].f});
    ++lo;
    ++e;
  }
  for (std::size_t i = lo; i < e; ++i) {
    pts_[i].f += delta;
    ISTC_ASSERT(pts_[i].f <= capacity_);
  }
  // The interior pairs were distinct and moved together, and an inserted
  // boundary now differs from its neighbour by delta, so only a boundary
  // that already existed can equal its outside neighbour.
  if (pts_[e].f == pts_[e - 1].f) pts_.erase(at(e));
  if (lo > head_ && pts_[lo - 1].f == pts_[lo].f) pts_.erase(at(lo));
}

void ResourceProfile::reserve(SimTime start, SimTime end, int cpus) {
  ISTC_EXPECTS(cpus > 0);
  shift(start, end, -cpus);
}

void ResourceProfile::release(SimTime start, SimTime end, int cpus) {
  ISTC_EXPECTS(cpus > 0);
  shift(start, end, cpus);
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
  const std::size_t n = pts_.size();
  SimTime t = std::max(not_before, origin_);
  // One search for the segment covering t.  Candidate starts only move
  // forward (t, then each step where free capacity rises to cpus), so
  // every later candidate continues the scan where the last one stopped.
  std::size_t i = find(t);
  for (;;) {
    if (pts_[i].f < cpus) {
      // Blocked at t: advance to the next step with enough room.  One
      // exists: every reservation ends, so the last segment, which runs to
      // infinity, is back at full capacity.
      do {
        ++i;
      } while (i < n && pts_[i].f < cpus);
      ISTC_ASSERT(i < n);
      t = pts_[i].t;
    }
    // Segment i covers t and has room; scan the rest of [t, t+duration).
    const SimTime end = t + duration;
    ++i;
    while (i < n && pts_[i].t < end && pts_[i].f >= cpus) ++i;
    if (i == n || pts_[i].t >= end) return t;
    // Segment i blocks the window: the next candidate starts after it.
  }
}

}  // namespace istc::sched
