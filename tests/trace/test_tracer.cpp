#include "trace/tracer.hpp"

#include <gtest/gtest.h>

namespace istc::trace {
namespace {

TraceEvent at(SimTime t, EventKind kind = EventKind::kJobStart) {
  TraceEvent e;
  e.time = t;
  e.kind = kind;
  return e;
}

TEST(Tracer, AssignsMonotoneSequenceNumbers) {
  Tracer tracer;
  tracer.record(at(10));
  tracer.record(at(10));
  tracer.record(at(5));
  ASSERT_EQ(tracer.size(), 3u);
  EXPECT_EQ(tracer[0].seq, 0u);
  EXPECT_EQ(tracer[1].seq, 1u);
  EXPECT_EQ(tracer[2].seq, 2u);
}

TEST(Tracer, SortedEventsOrderByTimeThenSeq) {
  Tracer tracer;
  tracer.record(at(100, EventKind::kDowntimeBegin));  // future, recorded first
  tracer.record(at(5));
  tracer.record(at(5, EventKind::kJobFinish));
  const auto events = tracer.sorted_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].time, 5);
  EXPECT_EQ(events[0].kind, EventKind::kJobStart);
  EXPECT_EQ(events[1].time, 5);
  EXPECT_EQ(events[1].kind, EventKind::kJobFinish);
  EXPECT_EQ(events[2].time, 100);
}

TEST(Tracer, GrowsAcrossChunks) {
  Tracer tracer;
  const std::size_t n = Tracer::kChunkEvents + 100;
  for (std::size_t i = 0; i < n; ++i) {
    tracer.record(at(static_cast<SimTime>(i)));
  }
  ASSERT_EQ(tracer.size(), n);
  EXPECT_EQ(tracer[Tracer::kChunkEvents].time,
            static_cast<SimTime>(Tracer::kChunkEvents));
  EXPECT_EQ(tracer[n - 1].seq, n - 1);
}

TEST(Tracer, DropsPastTheCapAndCounts) {
  Tracer tracer(TraceMode::kFull, /*max_events=*/10);
  for (int i = 0; i < 15; ++i) tracer.record(at(i));
  EXPECT_EQ(tracer.size(), 10u);
  EXPECT_EQ(tracer.dropped(), 5u);
}

TEST(Tracer, CountersOnlyStoresNoEvents) {
  Tracer tracer(TraceMode::kCountersOnly);
  EXPECT_TRUE(ISTC_TRACE_COUNTERS_ON(&tracer));
  Tracer* null_tracer = nullptr;
  EXPECT_FALSE(ISTC_TRACE_COUNTERS_ON(null_tracer));
  EXPECT_FALSE(tracer.events_enabled());
  tracer.record(at(1));
  EXPECT_EQ(tracer.size(), 0u);
  ++tracer.counters().sched_passes;
  EXPECT_EQ(tracer.summary().sched_passes, 1u);
}

TEST(TraceSummary, PassLapsCarrySubMicrosecondRemainders) {
  // 2,000 passes whose five segments each take 600 ns: truncating every
  // segment to whole microseconds would read 0 everywhere.
  TraceSummary s;
  const std::uint64_t segment_ns[TraceSummary::kNumStages + 1] = {
      600, 600, 600, 600, 600};
  for (int i = 0; i < 2000; ++i) s.add_pass(segment_ns);
  EXPECT_EQ(s.sched_passes, 2000u);
  EXPECT_EQ(s.stage_setup_us, 1200u);
  for (int k = 0; k < TraceSummary::kNumStages; ++k) {
    EXPECT_EQ(s.stage_us[k], 1200u) << "stage " << k;
  }
  EXPECT_EQ(s.sched_pass_us_total, 6000u);
  EXPECT_EQ(s.sched_pass_us_max, 3u);  // 3,000 ns per pass
}

TEST(Tracer, ClearResetsEverything) {
  Tracer tracer(TraceMode::kFull, 5);
  for (int i = 0; i < 8; ++i) tracer.record(at(i));
  ++tracer.counters().backfill_scans;
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.summary().backfill_scans, 0u);
  tracer.record(at(42));
  EXPECT_EQ(tracer[0].seq, 0u);
}

TEST(Tracer, KindNamesAreStable) {
  EXPECT_STREQ(kind_name(EventKind::kJobSubmit), "job_submit");
  EXPECT_STREQ(kind_name(EventKind::kGateDecision), "gate_decision");
  EXPECT_STREQ(kind_name(EventKind::kDowntimeEnd), "downtime_end");
}

}  // namespace
}  // namespace istc::trace
