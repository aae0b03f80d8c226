#include "sched/resource_profile.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace istc::sched {
namespace {

TEST(ResourceProfile, FullCapacityInitially) {
  ResourceProfile p(0, 100);
  EXPECT_EQ(p.free_at(0), 100);
  EXPECT_EQ(p.free_at(1000000), 100);
  EXPECT_EQ(p.min_free(0, 50), 100);
}

TEST(ResourceProfile, ReserveSubtractsOverInterval) {
  ResourceProfile p(0, 100);
  p.reserve(10, 20, 30);
  EXPECT_EQ(p.free_at(9), 100);
  EXPECT_EQ(p.free_at(10), 70);
  EXPECT_EQ(p.free_at(19), 70);
  EXPECT_EQ(p.free_at(20), 100);
}

TEST(ResourceProfile, OverlappingReservationsStack) {
  ResourceProfile p(0, 100);
  p.reserve(10, 30, 40);
  p.reserve(20, 40, 40);
  EXPECT_EQ(p.free_at(15), 60);
  EXPECT_EQ(p.free_at(25), 20);
  EXPECT_EQ(p.free_at(35), 60);
  EXPECT_EQ(p.min_free(0, 50), 20);
}

TEST(ResourceProfile, ReleaseRestores) {
  ResourceProfile p(0, 100);
  p.reserve(10, 30, 50);
  p.release(10, 30, 50);
  EXPECT_EQ(p.min_free(0, 100), 100);
  EXPECT_EQ(p.steps(), 1u);  // coalesced back to a single segment
}

TEST(ResourceProfile, MinFreeScansWindow) {
  ResourceProfile p(0, 100);
  p.reserve(10, 20, 60);
  p.reserve(30, 40, 90);
  EXPECT_EQ(p.min_free(0, 10), 100);
  EXPECT_EQ(p.min_free(5, 15), 40);
  EXPECT_EQ(p.min_free(15, 35), 10);
  EXPECT_EQ(p.min_free(40, 100), 100);
}

TEST(ResourceProfile, EarliestFitImmediate) {
  ResourceProfile p(0, 100);
  EXPECT_EQ(p.earliest_fit(100, 1000, 0), 0);
  EXPECT_EQ(p.earliest_fit(1, 1, 12345), 12345);
}

TEST(ResourceProfile, EarliestFitAfterBlockingSegment) {
  ResourceProfile p(0, 100);
  p.reserve(0, 50, 80);  // only 20 free until t=50
  EXPECT_EQ(p.earliest_fit(20, 10, 0), 0);
  EXPECT_EQ(p.earliest_fit(21, 10, 0), 50);
  EXPECT_EQ(p.earliest_fit(100, 10, 0), 50);
}

TEST(ResourceProfile, EarliestFitMustSpanWholeWindow) {
  ResourceProfile p(0, 100);
  p.reserve(30, 40, 90);  // a dip mid-horizon
  // A 20-wide, 35-long job cannot start at 0 (dip at 30); must wait to 40.
  EXPECT_EQ(p.earliest_fit(20, 35, 0), 40);
  // A short job fits before the dip.
  EXPECT_EQ(p.earliest_fit(20, 30, 0), 0);
}

TEST(ResourceProfile, EarliestFitSkipsMultipleBlocks) {
  ResourceProfile p(0, 10);
  p.reserve(0, 10, 8);
  p.reserve(15, 30, 8);
  p.reserve(35, 60, 9);
  // 3-wide 10-long: the 2-free stretches block it and the clear gaps
  // [10,15) and [30,35) are too short; first fit at 60.
  EXPECT_EQ(p.earliest_fit(3, 10, 0), 60);
  // 2-wide squeezes beside the 8-cpu reservations from the start.
  EXPECT_EQ(p.earliest_fit(2, 10, 0), 0);
  // 1-wide fits everywhere.
  EXPECT_EQ(p.earliest_fit(1, 10, 0), 0);
}

TEST(ResourceProfile, ReserveAtFitNeverFails) {
  ResourceProfile p(0, 64);
  Rng rng(1);
  // Fuzz: find a fit, reserve there; the invariant inside reserve() checks
  // min_free >= cpus, so any violation aborts.
  for (int i = 0; i < 2000; ++i) {
    const int cpus = static_cast<int>(rng.range(1, 64));
    const Seconds dur = rng.range(1, 500);
    const SimTime after = rng.range(0, 5000);
    const SimTime t = p.earliest_fit(cpus, dur, after);
    EXPECT_GE(t, after);
    EXPECT_GE(p.min_free(t, t + dur), cpus);
    if (i % 3 != 0) p.reserve(t, t + dur, cpus);
  }
}

TEST(ResourceProfile, EarliestFitIsEarliest) {
  // Property: no admissible start exists strictly before the returned one.
  ResourceProfile p(0, 32);
  Rng rng(2);
  for (int i = 0; i < 300; ++i) {
    const SimTime a = rng.range(0, 2000);
    const Seconds d = rng.range(1, 100);
    const int c = static_cast<int>(rng.range(1, 20));
    if (p.min_free(a, a + d) >= c) p.reserve(a, a + d, c);
  }
  for (int i = 0; i < 200; ++i) {
    const int cpus = static_cast<int>(rng.range(1, 32));
    const Seconds dur = rng.range(1, 150);
    const SimTime t = p.earliest_fit(cpus, dur, 0);
    // Check a sample of earlier instants.
    for (SimTime probe = 0; probe < t; probe += std::max<SimTime>(1, t / 17)) {
      EXPECT_LT(p.min_free(probe, probe + dur), cpus)
          << "fit missed earlier start " << probe << " for t=" << t;
    }
  }
}

TEST(ResourceProfile, CoalescingBoundsSteps) {
  ResourceProfile p(0, 10);
  for (int i = 0; i < 100; ++i) {
    p.reserve(i * 10, i * 10 + 10, 5);  // adjacent equal-valued segments
  }
  // [0,1000) at 5 free, then capacity: a handful of breakpoints, not 200.
  EXPECT_LE(p.steps(), 3u);
}

TEST(ResourceProfile, NonZeroOrigin) {
  ResourceProfile p(1000, 50);
  EXPECT_EQ(p.free_at(1000), 50);
  p.reserve(1000, 1100, 50);
  EXPECT_EQ(p.earliest_fit(1, 10, 1000), 1100);
}

TEST(ResourceProfile, AdvanceOriginChopsHistoryKeepsFuture) {
  ResourceProfile p(0, 100);
  p.reserve(10, 20, 30);
  p.reserve(40, 60, 50);
  p.advance_origin(15);
  EXPECT_EQ(p.origin(), 15);
  EXPECT_EQ(p.free_at(15), 70);   // inside the first reservation
  EXPECT_EQ(p.free_at(20), 100);  // unchanged future
  EXPECT_EQ(p.free_at(45), 50);
  EXPECT_EQ(p.min_free(15, 100), 50);
}

TEST(ResourceProfile, AdvanceOriginPastEverythingLeavesFlatCapacity) {
  ResourceProfile p(0, 100);
  p.reserve(10, 20, 30);
  p.advance_origin(500);
  EXPECT_EQ(p.origin(), 500);
  EXPECT_EQ(p.free_at(500), 100);
  EXPECT_EQ(p.steps(), 1u);  // one flat segment, history fully chopped
}

TEST(ResourceProfile, AdvanceOriginToCurrentOriginIsNoop) {
  ResourceProfile p(7, 10);
  p.reserve(8, 9, 3);
  p.advance_origin(7);
  EXPECT_EQ(p.origin(), 7);
  EXPECT_EQ(p.free_at(8), 7);
}

TEST(ResourceProfile, CoalesceCanonicalizesAfterComposedOps) {
  ResourceProfile p(0, 100);
  p.reserve(10, 30, 20);
  p.reserve(30, 50, 20);  // adjacent, equal value: one logical segment
  // origin segment, the merged reservation, and the tail.
  EXPECT_EQ(p.steps(), 3u);
  EXPECT_EQ(p.min_free(10, 50), 80);
  EXPECT_EQ(p.free_at(50), 100);
}

TEST(ResourceProfile, SegmentCountBoundedUnderChurn) {
  // The pass-persistent profile's memory guarantee: breakpoints track live
  // change points, never the cumulative operation count.
  Rng rng(11);
  ResourceProfile p(0, 256);
  std::size_t live = 0;
  for (int i = 0; i < 2000; ++i) {
    const SimTime start = rng.range(0, 5000);
    const auto dur = rng.range(10, 500);
    const int cpus = static_cast<int>(rng.range(1, 64));
    if (p.min_free(start, start + dur) < cpus) continue;
    p.reserve(start, start + dur, cpus);
    ++live;
    if (rng.below(2) == 0) {
      p.release(start, start + dur, cpus);  // paired undo, like the gate stage
      --live;
    }
    // Live reservations induce at most 2 breakpoints each, plus the origin
    // segment; undone ones must leave nothing behind — the bound depends on
    // what is outstanding, never on the 2000-operation history.
    EXPECT_LE(p.steps(), 2u * live + 1u);
  }
  // reserve/release already canonicalize: one breakpoint per value change,
  // counted by hopping step_at, which skips equal-valued neighbours.
  std::size_t runs = 1;
  for (auto s = p.step_at(p.origin()); s.until != kTimeInfinity;
       s = p.step_at(s.until)) {
    ++runs;
  }
  EXPECT_EQ(p.steps(), runs);
}

TEST(ResourceProfile, SameFunctionComparesValuesNotSegmentation) {
  ResourceProfile a(0, 100);
  a.reserve(10, 50, 20);
  ResourceProfile b(0, 100);
  b.reserve(10, 30, 20);
  b.reserve(30, 50, 20);  // different ops, same step function
  EXPECT_TRUE(a.same_function(b));
  EXPECT_TRUE(b.same_function(a));
  b.reserve(60, 70, 1);
  EXPECT_FALSE(a.same_function(b));
  ResourceProfile c(5, 100);  // different origin
  EXPECT_FALSE(a.same_function(c));
}

TEST(ResourceProfile, SameFunctionAfterAdvanceMatchesFreshRebuild) {
  // The ISTC_PARANOID invariant in miniature: incrementally maintained ==
  // rebuilt from scratch at the new origin.
  ResourceProfile inc(0, 64);
  inc.reserve(0, 100, 16);  // job A, estimated end 100
  inc.reserve(0, 250, 8);   // job B, estimated end 250
  inc.advance_origin(120);  // job A's estimate expired
  ResourceProfile rebuilt(120, 64);
  rebuilt.reserve(120, 250, 8);  // only job B still runs
  EXPECT_TRUE(inc.same_function(rebuilt));
}

#ifdef GTEST_HAS_DEATH_TEST
TEST(ResourceProfileDeath, OverReserveAborts) {
  ResourceProfile p(0, 10);
  p.reserve(0, 100, 8);
  EXPECT_DEATH(p.reserve(50, 60, 3), "precondition");
  // The short segment in the middle of the interval, and as its last
  // segment before end: the check covers the whole walk, before any move.
  ResourceProfile q(0, 10);
  q.reserve(20, 30, 8);
  EXPECT_DEATH(q.reserve(10, 40, 3), "precondition");
  EXPECT_DEATH(q.reserve(10, 30, 3), "precondition");
}

TEST(ResourceProfileDeath, QueryBeforeOriginAborts) {
  ResourceProfile p(100, 10);
  EXPECT_DEATH(p.free_at(99), "precondition");
}

TEST(ResourceProfileDeath, ReleaseAboveCapacityAborts) {
  ResourceProfile p(0, 10);
  EXPECT_DEATH(p.release(0, 10, 1), "invariant");
}
#endif

}  // namespace
}  // namespace istc::sched
