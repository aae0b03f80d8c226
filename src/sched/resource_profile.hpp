#pragma once

#include <cstddef>
#include <vector>

#include "util/time.hpp"

/// \file resource_profile.hpp
/// A step function of free CPUs over future time.
///
/// This single structure powers both backfill flavours and the omniscient
/// packer: reservations subtract capacity over an interval; queries ask how
/// much is free at an instant, the minimum over a window, or the earliest
/// start at which a (cpus x duration) rectangle fits.
///
/// Storage is a flat sorted array of breakpoints, not a tree: every hot
/// pass operation is one binary search followed by a forward scan
/// (earliest_fit walks candidate windows from where the last one stopped,
/// reserve/release sweep their interval once), and scanning a few hundred
/// contiguous 16-byte entries beats chasing red-black tree nodes by a wide
/// margin.  The per-pass advance_origin bumps a head cursor instead of
/// erasing nodes; the dead prefix is reclaimed in bulk once it dominates
/// the array.
///
/// The profile is always canonical: no two adjacent segments hold the same
/// value, so steps() counts the step function's value changes.  Every
/// mutator keeps it so; reserve/release merge only at their interval's two
/// edges, because shifting a whole interval by one delta keeps its interior
/// pairs distinct.

namespace istc::sched {

class ResourceProfile {
 public:
  /// Uniform capacity from `origin` to infinity.
  ResourceProfile(SimTime origin, int capacity);

  SimTime origin() const { return origin_; }
  int capacity() const { return capacity_; }

  /// Become a copy of `other`'s step function over [origin, inf), reusing
  /// this profile's storage; `other`'s consumed history is not copied.
  /// The scheduler copies its live profile into a pass-local plan this way.
  void assign(const ResourceProfile& other);

  /// Free CPUs at time t (t >= origin).
  int free_at(SimTime t) const;

  /// Minimum free CPUs over [start, end); end > start.
  int min_free(SimTime start, SimTime end) const;

  /// Subtract `cpus` over [start, end).  The interval must have at least
  /// `cpus` free throughout (checked) — callers find a fit first.
  void reserve(SimTime start, SimTime end, int cpus);

  /// Add `cpus` over [start, end) (capacity growth / release); the result
  /// may not exceed the construction capacity (checked).
  void release(SimTime start, SimTime end, int cpus);

  /// Earliest t >= not_before such that min_free(t, t+duration) >= cpus.
  /// Always succeeds (the profile is capacity after the last breakpoint)
  /// provided cpus <= capacity.
  SimTime earliest_fit(int cpus, Seconds duration, SimTime not_before) const;

  /// The step in force at t: free CPUs plus the first instant strictly
  /// after t at which that value changes (kTimeInfinity when constant
  /// onward).  The metrics sampler reads `until` as "how long does the
  /// current interstice hold" and probes it every tick; equal-valued
  /// adjacent segments are skipped, so the answer is segmentation-agnostic.
  struct Step {
    int free;
    SimTime until;
  };
  Step step_at(SimTime t) const;

  /// Advance the origin to t >= origin(), discarding breakpoints in the
  /// past.  The step function over [t, inf) is unchanged.  This is what
  /// keeps a pass-persistent profile from accumulating history: the
  /// scheduler advances to `now` at the top of every pass.
  void advance_origin(SimTime t);

  /// True when `other` is the same step function over [origin, inf):
  /// same origin, same free CPUs at every instant (segmentation-agnostic).
  /// ISTC_PARANOID uses this to check the incrementally maintained profile
  /// against a from-scratch rebuild.
  bool same_function(const ResourceProfile& other) const;

  /// Number of internal breakpoints: the value changes over [origin, inf)
  /// plus one (diagnostics / complexity tests).
  std::size_t steps() const { return pts_.size() - head_; }

 private:
  /// One breakpoint: free CPUs from `t` until the next breakpoint.
  struct Pt {
    SimTime t;
    int f;
  };

  /// Index of the segment covering t (last live index with .t <= t).
  std::size_t find(SimTime t) const;

  /// Add `delta` over [start, end) in one walk: one find(start), one scan
  /// to the last segment before end that also takes the interval's minimum
  /// (no segment may go negative: a precondition, checked before anything
  /// moves), at most two inserts, the delta, then the two edge merges.
  void shift(SimTime start, SimTime end, int delta);

  SimTime origin_;
  int capacity_;
  /// Breakpoints sorted by time; the live region is [head_, pts_.size())
  /// and its first entry sits exactly at origin_.  Entries before head_
  /// are consumed history awaiting bulk reclamation.
  std::vector<Pt> pts_;
  std::size_t head_ = 0;
};

}  // namespace istc::sched
