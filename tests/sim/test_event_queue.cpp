#include "sim/calendar_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace istc::sim {
namespace {

// A linear-scan reference model of the (time, insertion-seq) FIFO
// contract, the oracle for the ordering tests below.
struct RefEvent {
  SimTime time;
  std::uint64_t seq;
  std::uint32_t arg;
};

class ReferenceModel {
 public:
  void push(SimTime t, std::uint32_t arg) {
    events_.push_back(RefEvent{t, next_seq_++, arg});
  }

  RefEvent pop() {
    auto it = std::min_element(events_.begin(), events_.end(),
                               [](const RefEvent& a, const RefEvent& b) {
                                 if (a.time != b.time) return a.time < b.time;
                                 return a.seq < b.seq;
                               });
    const RefEvent e = *it;
    events_.erase(it);
    return e;
  }

  bool empty() const { return events_.empty(); }

 private:
  std::vector<RefEvent> events_;
  std::uint64_t next_seq_ = 0;
};

// -- the event-queue contract ----------------------------------------------
//
// What every caller of the engine's one queue relies on: (time, seq)
// order, the payload a pop carries, the size gauges and the allocation
// counter.

TEST(EventQueue, EmptyInitially) {
  CalendarEventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.heap_allocations(), 0u);
}

TEST(EventQueue, OrdersTypedEventsByTime) {
  CalendarEventQueue q;
  q.push_typed(30, EventType::kJobFinish, 3);
  q.push_typed(10, EventType::kJobFinish, 1);
  q.push_typed(20, EventType::kJobFinish, 2);
  std::vector<std::uint32_t> fired;
  while (!q.empty()) fired.push_back(q.pop().arg);
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(EventQueue, FifoAmongEqualTimes) {
  CalendarEventQueue q;
  for (std::uint32_t i = 0; i < 50; ++i) q.push_typed(5, EventType::kJobSubmit, i);
  for (std::uint32_t i = 0; i < 50; ++i) {
    const Event e = q.pop();
    EXPECT_EQ(e.time, 5);
    EXPECT_EQ(e.arg, i);
  }
}

TEST(EventQueue, PopCarriesTypeAndArg) {
  CalendarEventQueue q;
  q.push_typed(7, EventType::kSchedulerWake, 0);
  q.push_typed(3, EventType::kJobFinish, 42);
  Event e = q.pop();
  EXPECT_EQ(e.time, 3);
  EXPECT_EQ(e.type, EventType::kJobFinish);
  EXPECT_EQ(e.arg, 42u);
  e = q.pop();
  EXPECT_EQ(e.type, EventType::kSchedulerWake);
}

TEST(EventQueue, NextTime) {
  CalendarEventQueue q;
  q.push_typed(42, EventType::kSchedulerWake, 0);
  q.push_typed(7, EventType::kSchedulerWake, 0);
  EXPECT_EQ(q.next_time(), 7);
  q.pop();
  EXPECT_EQ(q.next_time(), 42);
}

TEST(EventQueue, SizeTracksPushPop) {
  CalendarEventQueue q;
  q.push_typed(1, EventType::kSchedulerWake, 0);
  q.push_typed(2, EventType::kSchedulerWake, 0);
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, InterleavedPushPopKeepsOrder) {
  CalendarEventQueue q;
  std::vector<std::uint32_t> fired;
  q.push_typed(10, EventType::kJobSubmit, 10);
  q.push_typed(5, EventType::kJobSubmit, 5);
  fired.push_back(q.pop().arg);  // fires 5
  q.push_typed(1, EventType::kJobSubmit, 1);  // earlier than remaining 10
  fired.push_back(q.pop().arg);
  fired.push_back(q.pop().arg);
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{5, 1, 10}));
}

TEST(EventQueue, NegativeTimesAllowedAndOrdered) {
  // The queue itself is time-agnostic (the engine enforces monotonicity).
  CalendarEventQueue q;
  q.push_typed(-5, EventType::kJobFinish, 5);
  q.push_typed(-10, EventType::kJobFinish, 10);
  EXPECT_EQ(q.pop().time, -10);
  EXPECT_EQ(q.pop().time, -5);
}

TEST(EventQueue, ReservedSteadyStateAllocatesNothing) {
  // With a reserve()d window, a sustained push/pop churn of typed events
  // performs zero heap allocations once the buckets are warm.  The first
  // run warms them; the second replays the same offsets one wheel lap
  // later (same bucket slots) and is measured.
  CalendarEventQueue q;
  q.reserve(1024);
  long repairs = 0;
  const auto pop = [&] {
    if (q.pop().type == EventType::kCapacityRepair) ++repairs;
  };
  const auto churn = [&](SimTime base) {
    for (SimTime t = 0; t < 512; ++t) {
      q.push_typed(base + t, EventType::kJobFinish, 0);
    }
    for (int round = 0; round < 200; ++round) {
      const SimTime t = q.next_time();
      pop();
      q.push_typed(t + 1000, EventType::kJobSubmit, 1);
      q.push_typed(t + 1001, EventType::kCapacityRepair, 2);
      pop();
    }
    while (!q.empty()) pop();
  };
  churn(0);
  const std::uint64_t warm = q.heap_allocations();
  churn(SimTime{65536} * 1024 * 4);
  EXPECT_EQ(q.heap_allocations(), warm);
  EXPECT_EQ(repairs, 400);
}

TEST(EventQueue, GrowthWithoutReserveIsCounted) {
  CalendarEventQueue q;  // no reserve: vector growth must be visible
  for (std::uint32_t i = 0; i < 100; ++i) {
    q.push_typed(static_cast<SimTime>(i), EventType::kSchedulerWake, 0);
  }
  EXPECT_GT(q.heap_allocations(), 0u);
}

// -- property tests against the reference model ----------------------------
//
// Random push/pop interleavings, with deliberately clumped timestamps (so
// large same-time batches occur) and pushes at the current minimum time
// (the "schedule for now from inside an event handler" shape).

TEST(EventQueueProperty, RandomInterleavingsMatchReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(0xE7E27 + seed);
    CalendarEventQueue q;
    ReferenceModel ref;
    std::uint32_t next_arg = 0;
    SimTime floor = 0;  // pops are monotone; pushes never go below this

    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t roll = rng.below(100);
      if (roll < 55 || q.empty()) {
        // Clumped times: ~half the pushes land on a shared timestamp to
        // build large same-time batches; some land exactly at the current
        // minimum ("scheduled for the current timestep").
        SimTime t;
        if (roll < 15 && !q.empty()) {
          t = q.next_time();
        } else if (roll < 35) {
          t = floor + static_cast<SimTime>(rng.below(3));  // clump
        } else {
          t = floor + static_cast<SimTime>(rng.below(200));
        }
        q.push_typed(t, EventType::kJobSubmit, next_arg);
        ref.push(t, next_arg);
        ++next_arg;
      } else {
        const Event got = q.pop();
        const RefEvent want = ref.pop();
        ASSERT_EQ(got.time, want.time) << "seed " << seed << " step " << step;
        ASSERT_EQ(got.seq, want.seq) << "seed " << seed << " step " << step;
        ASSERT_EQ(got.arg, want.arg) << "seed " << seed << " step " << step;
        floor = got.time;
      }
    }
    while (!q.empty()) {
      const Event got = q.pop();
      const RefEvent want = ref.pop();
      ASSERT_EQ(got.time, want.time);
      ASSERT_EQ(got.seq, want.seq);
      ASSERT_EQ(got.arg, want.arg);
    }
    EXPECT_TRUE(ref.empty());
  }
}

TEST(EventQueueProperty, LargeSameTimestampBatchDrainsInInsertionOrder) {
  CalendarEventQueue q;
  ReferenceModel ref;
  Rng rng(0xBA7C4);
  // A few thousand events on just three timestamps, pushed in random
  // time order: FIFO-within-time must still hold exactly.
  for (std::uint32_t i = 0; i < 3000; ++i) {
    const SimTime t = static_cast<SimTime>(rng.below(3)) * 100;
    q.push_typed(t, EventType::kJobFinish, i);
    ref.push(t, i);
  }
  std::uint64_t last_seq_at_time[3] = {0, 0, 0};
  bool seen[3] = {false, false, false};
  while (!q.empty()) {
    const Event got = q.pop();
    const RefEvent want = ref.pop();
    ASSERT_EQ(got.time, want.time);
    ASSERT_EQ(got.seq, want.seq);
    const auto slot = static_cast<std::size_t>(got.time / 100);
    if (seen[slot]) {
      EXPECT_GT(got.seq, last_seq_at_time[slot]);
    }
    last_seq_at_time[slot] = got.seq;
    seen[slot] = true;
  }
}

// -- calendar-specific behaviour: rungs, re-anchoring, forking -------------

TEST(CalendarQueue, OrdersTypedEventsByTime) {
  CalendarEventQueue q;
  q.push_typed(30, EventType::kJobFinish, 3);
  q.push_typed(10, EventType::kJobFinish, 1);
  q.push_typed(20, EventType::kJobFinish, 2);
  std::vector<std::uint32_t> fired;
  while (!q.empty()) fired.push_back(q.pop().arg);
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(CalendarQueue, FifoAmongEqualTimes) {
  CalendarEventQueue q;
  for (std::uint32_t i = 0; i < 50; ++i) {
    q.push_typed(5, EventType::kJobSubmit, i);
  }
  for (std::uint32_t i = 0; i < 50; ++i) {
    const Event e = q.pop();
    EXPECT_EQ(e.time, 5);
    EXPECT_EQ(e.arg, i);
  }
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, OrdersAcrossRungBoundaries) {
  // One event per tier: sorted window, rung 1, rung 2, far overflow —
  // pushed far-first so every routing branch is taken.
  constexpr SimTime kRung1Span = 64 * 1024;            // rung-1 horizon
  constexpr SimTime kRung2Span = SimTime{65536} * 1024;  // rung-2 horizon
  CalendarEventQueue q;
  q.push_typed(kRung2Span + 1000, EventType::kJobFinish, 4);  // far
  q.push_typed(kRung1Span + 1000, EventType::kJobFinish, 3);  // rung 2
  q.push_typed(1000, EventType::kJobFinish, 2);               // rung 1
  q.push_typed(0, EventType::kJobFinish, 1);                  // window
  std::vector<std::uint32_t> fired;
  while (!q.empty()) fired.push_back(q.pop().arg);
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{1, 2, 3, 4}));
}

TEST(CalendarQueue, NegativeTimesAllowedAndOrdered) {
  // The queue itself is time-agnostic (the engine enforces t >= now);
  // bucket math must stay floor-consistent below zero.
  CalendarEventQueue q;
  q.push_typed(5, EventType::kJobSubmit, 3);
  q.push_typed(-100, EventType::kJobSubmit, 1);
  q.push_typed(-7, EventType::kJobSubmit, 2);
  std::vector<std::uint32_t> fired;
  while (!q.empty()) fired.push_back(q.pop().arg);
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(CalendarQueue, DrainedQueueReanchorsAtDistantTime) {
  // Drain completely, then push far beyond the old wheel position: the
  // queue must re-anchor instead of leaving events in unscanned slots.
  CalendarEventQueue q;
  q.push_typed(100, EventType::kJobSubmit, 1);
  EXPECT_EQ(q.pop().arg, 1u);
  EXPECT_TRUE(q.empty());
  const SimTime far = SimTime{65536} * 5000;  // past the old rung-2 horizon
  q.push_typed(far + 50, EventType::kJobSubmit, 3);
  q.push_typed(far, EventType::kJobSubmit, 2);
  EXPECT_EQ(q.next_time(), far);
  EXPECT_EQ(q.pop().arg, 2u);
  EXPECT_EQ(q.pop().arg, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, WarmedUpSteadyStateAllocatesNothing) {
  // The calendar's buckets warm up to their working capacity on first
  // contact, and that growth is counted.  Once warm, an identical second
  // phase must not allocate: bucket vectors recycle modulo the wheel
  // size.
  CalendarEventQueue q;
  const auto churn = [&](SimTime base) {
    Rng rng(0xCA1E17D);  // same stream both phases: identical offsets
    for (int i = 0; i < 4000; ++i) {
      const SimTime t = base + static_cast<SimTime>(rng.below(600)) +
                        static_cast<SimTime>(i) * 40;
      q.push_typed(t, EventType::kJobFinish, static_cast<std::uint32_t>(i));
      if (i % 2 == 1) {
        q.pop();
        q.pop();
      }
    }
    while (!q.empty()) q.pop();
  };
  churn(0);
  const std::uint64_t warm = q.heap_allocations();
  // Same time-offsets relative to a far-future base: same bucket slots
  // modulo the wheel, so the warmed capacities are reused exactly.
  churn(SimTime{65536} * 1024 * 4);
  EXPECT_EQ(q.heap_allocations(), warm);
}

TEST(CalendarQueue, AssignFromReplaysIdentically) {
  // The run-fork primitive: a copy made mid-run must pop the exact same
  // (time, seq, arg) stream as the original.
  Rng rng(0xF08C);
  CalendarEventQueue a;
  for (std::uint32_t i = 0; i < 500; ++i) {
    a.push_typed(static_cast<SimTime>(rng.below(1 << 22)),
                 EventType::kJobFinish, i);
  }
  for (int i = 0; i < 100; ++i) a.pop();
  CalendarEventQueue b;
  b.assign_from(a);
  EXPECT_EQ(b.size(), a.size());
  while (!a.empty()) {
    const Event ea = a.pop();
    const Event eb = b.pop();
    ASSERT_EQ(ea.time, eb.time);
    ASSERT_EQ(ea.seq, eb.seq);
    ASSERT_EQ(ea.arg, eb.arg);
  }
  EXPECT_TRUE(b.empty());
  // New pushes continue the shared seq counter, so interleaved-time
  // pushes after a fork stay FIFO-consistent with the original's.
  a.push_typed(7, EventType::kJobSubmit, 1);
  b.push_typed(7, EventType::kJobSubmit, 1);
  EXPECT_EQ(a.pop().seq, b.pop().seq);
}

TEST(CalendarQueueProperty, RandomInterleavingsMatchReferenceModel) {
  // The EventQueueProperty harness, plus calendar-specific hazards:
  // pushes that jump past the rung-1 window (bucket rollover), past the
  // rung-2 horizon (far overflow + re-anchor), and gap pushes behind the
  // cursor after such a jump.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(0xCA1E2 + seed);
    CalendarEventQueue q;
    ReferenceModel ref;
    std::uint32_t next_arg = 0;
    SimTime floor = 0;  // pops are monotone; pushes never go below this

    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t roll = rng.below(100);
      if (roll < 55 || q.empty()) {
        SimTime t;
        if (roll < 10 && !q.empty()) {
          t = q.next_time();  // scheduled for the current timestep
        } else if (roll < 30) {
          t = floor + static_cast<SimTime>(rng.below(3));  // clump
        } else if (roll < 48) {
          t = floor + static_cast<SimTime>(rng.below(200));
        } else if (roll < 52) {
          // Beyond the rung-1 window: lands in rung 2.
          t = floor + 64 * 1024 + static_cast<SimTime>(rng.below(1 << 22));
        } else {
          // Beyond the rung-2 horizon: lands in the far overflow.
          t = floor + (SimTime{65536} * 1024) +
              static_cast<SimTime>(rng.below(1u << 30));
        }
        q.push_typed(t, EventType::kJobSubmit, next_arg);
        ref.push(t, next_arg);
        ++next_arg;
      } else {
        const Event got = q.pop();
        const RefEvent want = ref.pop();
        ASSERT_EQ(got.time, want.time) << "seed " << seed << " step " << step;
        ASSERT_EQ(got.seq, want.seq) << "seed " << seed << " step " << step;
        ASSERT_EQ(got.arg, want.arg) << "seed " << seed << " step " << step;
        floor = got.time;
      }
    }
    while (!q.empty()) {
      const Event got = q.pop();
      const RefEvent want = ref.pop();
      ASSERT_EQ(got.time, want.time);
      ASSERT_EQ(got.seq, want.seq);
      ASSERT_EQ(got.arg, want.arg);
    }
    EXPECT_TRUE(ref.empty());
  }
}

}  // namespace
}  // namespace istc::sim
