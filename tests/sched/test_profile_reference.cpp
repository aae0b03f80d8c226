// Differential test: ResourceProfile against a brute-force second-by-second
// reference implementation, over randomized operation sequences.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sched/resource_profile.hpp"
#include "util/rng.hpp"

namespace istc::sched {
namespace {

/// Dense array reference: free[t] for t in [0, horizon).  The origin only
/// bounds where fits may start; seconds before it are simply never read.
class ReferenceProfile {
 public:
  ReferenceProfile(int capacity, SimTime horizon)
      : capacity_(capacity),
        free_(static_cast<std::size_t>(horizon), capacity) {}

  SimTime origin() const { return origin_; }
  void advance_origin(SimTime t) { origin_ = t; }

  int free_at(SimTime t) const {
    return t < horizon() ? free_[static_cast<std::size_t>(t)] : capacity_;
  }

  int min_free(SimTime start, SimTime end) const {
    int lo = capacity_;
    for (SimTime t = start; t < end; ++t) lo = std::min(lo, free_at(t));
    return lo;
  }

  void reserve(SimTime start, SimTime end, int cpus) {
    // The reference must contain every reservation entirely, or the two
    // implementations silently diverge past the horizon.
    ASSERT_LE(end, horizon());
    for (SimTime t = start; t < end; ++t) {
      free_[static_cast<std::size_t>(t)] -= cpus;
    }
  }

  void release(SimTime start, SimTime end, int cpus) {
    ASSERT_LE(end, horizon());
    for (SimTime t = start; t < end; ++t) {
      free_[static_cast<std::size_t>(t)] += cpus;
    }
  }

  SimTime earliest_fit(int cpus, Seconds dur, SimTime not_before) const {
    for (SimTime t = std::max(not_before, origin_);; ++t) {
      if (min_free(t, t + dur) >= cpus) return t;
    }
  }

  /// Free CPUs at t plus the first later second whose value differs, or
  /// kTimeInfinity when none does (past the horizon, capacity forever).
  ResourceProfile::Step step_at(SimTime t) const {
    const int v = free_at(t);
    for (SimTime s = t + 1; s <= horizon(); ++s) {
      if (free_at(s) != v) return {v, s};
    }
    return {v, kTimeInfinity};
  }

  /// Maximal equal-valued runs over [origin, inf): the segment count of a
  /// canonical profile (no two adjacent segments hold the same value).
  std::size_t runs() const {
    std::size_t n = 1;
    for (SimTime t = origin_ + 1; t <= horizon(); ++t) {
      if (free_at(t) != free_at(t - 1)) ++n;
    }
    return n;
  }

  SimTime horizon() const { return static_cast<SimTime>(free_.size()); }

 private:
  int capacity_;
  std::vector<int> free_;
  SimTime origin_ = 0;
};

/// Walk `fast` step by step from its origin; every step (value and change
/// instant) must match the reference, so the two are the same function.
void expect_same_function(const ResourceProfile& fast,
                          const ReferenceProfile& slow) {
  ASSERT_EQ(fast.origin(), slow.origin());
  for (SimTime t = fast.origin();;) {
    const auto f = fast.step_at(t);
    const auto s = slow.step_at(t);
    ASSERT_EQ(f.free, s.free) << "step_at(" << t << ")";
    ASSERT_EQ(f.until, s.until) << "step_at(" << t << ")";
    if (f.until == kTimeInfinity) return;
    t = f.until;
  }
}

class ProfileDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProfileDifferential, MatchesBruteForce) {
  constexpr int kCapacity = 24;
  constexpr SimTime kHorizon = 600;  // query/insertion window
  ResourceProfile fast(0, kCapacity);
  // Congestion can push fits far past the insertion window; size the
  // dense reference generously so every reservation fits inside it.
  ReferenceProfile slow(kCapacity, kHorizon * 40);
  Rng rng(GetParam());

  struct Reservation {
    SimTime start, end;
    int cpus;
  };
  std::vector<Reservation> live;

  for (int op = 0; op < 400; ++op) {
    const auto choice = rng.below(10);
    if (choice < 4) {
      // Reserve at a feasible location.
      const int cpus = static_cast<int>(rng.range(1, kCapacity));
      const Seconds dur = rng.range(1, 60);
      const SimTime after = rng.range(0, kHorizon);
      const SimTime t = fast.earliest_fit(cpus, dur, after);
      ASSERT_EQ(t, slow.earliest_fit(cpus, dur, after))
          << "op " << op << " cpus=" << cpus << " dur=" << dur
          << " after=" << after;
      fast.reserve(t, t + dur, cpus);
      slow.reserve(t, t + dur, cpus);
      live.push_back({t, t + dur, cpus});
    } else if (choice < 6 && !live.empty()) {
      // Release a random live reservation.
      const auto idx = rng.below(live.size());
      const auto r = live[idx];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      fast.release(r.start, r.end, r.cpus);
      slow.release(r.start, r.end, r.cpus);
    } else if (choice < 8) {
      const SimTime t = rng.range(0, kHorizon);
      ASSERT_EQ(fast.free_at(t), slow.free_at(t)) << "free_at(" << t << ")";
    } else {
      const SimTime a = rng.range(0, kHorizon);
      const SimTime b = a + rng.range(1, 80);
      ASSERT_EQ(fast.min_free(a, b), slow.min_free(a, b))
          << "min_free(" << a << "," << b << ")";
    }
    // Every mutator leaves the profile canonical.
    ASSERT_EQ(fast.steps(), slow.runs()) << "op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileDifferential,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

class ProfileOriginDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

// The pass-persistent operations against the same oracle: the origin
// advances past history, reservations straddling it become unreleasable,
// and after every operation the profile must be canonical and the whole
// step function is walked through step_at.
TEST_P(ProfileOriginDifferential, MatchesBruteForce) {
  constexpr int kCapacity = 48;
  constexpr SimTime kHorizon = 800;
  ResourceProfile fast(0, kCapacity);
  ReferenceProfile slow(kCapacity, kHorizon * 40);
  Rng rng(GetParam());

  struct Reservation {
    SimTime start, end;
    int cpus;
  };
  std::vector<Reservation> live;

  for (int op = 0; op < 500; ++op) {
    const SimTime origin = fast.origin();
    const auto choice = rng.below(12);
    if (choice < 5) {
      const int cpus = static_cast<int>(rng.range(1, kCapacity));
      const Seconds dur = rng.range(1, 70);
      const SimTime after = origin + rng.range(0, kHorizon);
      const SimTime t = fast.earliest_fit(cpus, dur, after);
      ASSERT_EQ(t, slow.earliest_fit(cpus, dur, after))
          << "op " << op << " cpus=" << cpus << " dur=" << dur
          << " after=" << after;
      fast.reserve(t, t + dur, cpus);
      slow.reserve(t, t + dur, cpus);
      live.push_back({t, t + dur, cpus});
    } else if (choice < 7 && !live.empty()) {
      const auto idx = rng.below(live.size());
      const auto r = live[idx];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      fast.release(r.start, r.end, r.cpus);
      slow.release(r.start, r.end, r.cpus);
    } else if (choice < 9) {
      const SimTime a = origin + rng.range(0, kHorizon);
      const SimTime b = a + rng.range(1, 90);
      ASSERT_EQ(fast.min_free(a, b), slow.min_free(a, b))
          << "min_free(" << a << "," << b << ")";
    } else if (choice < 11) {
      const SimTime t = origin + rng.range(0, kHorizon);
      ASSERT_EQ(fast.free_at(t), slow.free_at(t)) << "free_at(" << t << ")";
      const auto f = fast.step_at(t);
      const auto s = slow.step_at(t);
      ASSERT_EQ(f.free, s.free) << "step_at(" << t << ")";
      ASSERT_EQ(f.until, s.until) << "step_at(" << t << ")";
    } else if (rng.below(4) == 0) {
      // Reservations starting before the new origin can no longer be
      // released (their head is history), so they leave `live`.
      const SimTime to = origin + rng.range(1, 50);
      fast.advance_origin(to);
      slow.advance_origin(to);
      std::erase_if(live, [&](const Reservation& r) { return r.start < to; });
    }
    ASSERT_EQ(fast.steps(), slow.runs()) << "op " << op;
    ASSERT_NO_FATAL_FAILURE(expect_same_function(fast, slow)) << "op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileOriginDifferential,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

}  // namespace
}  // namespace istc::sched
