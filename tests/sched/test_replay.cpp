// Verdict replay: a scheduling pass whose inputs did not change reuses the
// last full pass's earliest starts instead of walking the queue.  Each test
// below pins one event that must stop the replay, in a plain Release build:
// if that invalidation were missing, the next pass would replay a stale
// verdict and the asserted start or earliest start would not move.

#include <gtest/gtest.h>

#include <map>

#include "cluster/presets.hpp"
#include "core/fork.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "trace/tracer.hpp"

namespace istc::sched {
namespace {

using workload::Job;
using workload::JobClass;

cluster::Machine machine_of(int cpus) {
  return cluster::Machine({.name = "r", .site = "", .queue_system = "",
                           .cpus = cpus, .clock_ghz = 1.0});
}

// Priority order is submission order: no aging, no width bonus.
PolicySpec policy_of(BackfillMode mode) {
  PolicySpec p;
  p.backfill = mode;
  p.fairshare.age_weight_per_hour = 0.0;
  p.fairshare.size_weight = 0.0;
  return p;
}

Job native_job(workload::JobId id, SimTime submit, int cpus, Seconds run) {
  Job j;
  j.id = id;
  j.submit = submit;
  j.cpus = cpus;
  j.runtime = run;
  j.estimate = run;
  return j;
}

Job interstitial_job(workload::JobId id, int cpus, Seconds run,
                     Seconds estimate) {
  Job j = native_job(id, 0, cpus, run);
  j.estimate = estimate;
  j.klass = JobClass::kInterstitial;
  return j;
}

std::map<workload::JobId, JobRecord> by_id(const RunResult& r) {
  std::map<workload::JobId, JobRecord> m;
  for (const auto& rec : r.records) m[rec.job.id] = rec;
  return m;
}

// A 10-CPU machine with native 0 on 6 CPUs over [0, 1000) and native 1
// (8 CPUs) blocked behind it from t=1: the pass at 1 leaves the verdicts
// H = M = 1000 for the passes that follow.
struct BlockedHead {
  sim::Engine eng;
  BatchScheduler sched;

  explicit BlockedHead(BackfillMode mode)
      : sched(eng, machine_of(10), policy_of(mode)) {
    sched.submit(native_job(0, 0, 6, 1000));
    sched.submit(native_job(1, 1, 8, 100));
    eng.run(1);
    EXPECT_EQ(sched.last_pass().head_earliest_start, 1000);
    EXPECT_EQ(sched.last_pass().queue_earliest_start, 1000);
  }
};

class ReplayInvalidation : public ::testing::TestWithParam<BackfillMode> {};

// (a) An interstitial finishing before its estimate releases capacity the
// waiting native was blocked on: it must start at that finish.
TEST_P(ReplayInvalidation, EarlyInterstitialFinishStartsWaiter) {
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(10), policy_of(GetParam()));
  ASSERT_TRUE(s.try_start_immediately(interstitial_job(100, 8, 100, 1000)));
  s.submit(native_job(0, 10, 8, 50));
  eng.run(10);
  ASSERT_EQ(s.last_pass().head_earliest_start, 1000);
  eng.run();
  EXPECT_EQ(by_id(s.take_result(2000)).at(0).start, 100);
}

// (b) A start whose estimate ends after M pushes the head's earliest start
// out; the next pass must report the later value, not replay 1000.
TEST_P(ReplayInvalidation, StartEndingAfterQueueEarliestMovesHead) {
  BlockedHead h(GetParam());
  h.eng.run(50);
  ASSERT_TRUE(
      h.sched.try_start_immediately(interstitial_job(100, 4, 2000, 2000)));
  h.sched.wake_at(60);
  h.eng.run(60);
  ASSERT_EQ(h.sched.last_pass().now, 60);
  EXPECT_EQ(h.sched.last_pass().head_earliest_start, 2050);
  h.eng.run();
  EXPECT_EQ(by_id(h.sched.take_result(5000)).at(1).start, 2050);
}

// A start ending by M keeps the verdicts: the next pass replays them.
TEST_P(ReplayInvalidation, StartEndingByQueueEarliestKeepsVerdicts) {
  BlockedHead h(GetParam());
  h.eng.run(50);
  ASSERT_TRUE(
      h.sched.try_start_immediately(interstitial_job(100, 4, 950, 950)));
  h.sched.wake_at(60);
  const auto replayed = h.sched.stats().replayed_passes;
  h.eng.run(60);
  EXPECT_EQ(h.sched.stats().replayed_passes, replayed + 1);
  EXPECT_EQ(h.sched.last_pass().head_earliest_start, 1000);
}

// (c) A node failure that kills the running job the native waits on: the
// native must start when the failed CPUs come back, not at the killed
// job's estimated end.
TEST_P(ReplayInvalidation, FaultKillStartsWaiterAtRepair) {
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(10), policy_of(GetParam()));
  ASSERT_TRUE(s.try_start_immediately(interstitial_job(100, 8, 1000, 1000)));
  s.submit(native_job(0, 10, 8, 50));
  eng.run(100);
  ASSERT_EQ(s.last_pass().head_earliest_start, 1000);
  const auto killed = s.fail_capacity(3, 200, KillReason::kNodeFailure);
  ASSERT_EQ(killed.size(), 1u);
  eng.run();
  EXPECT_EQ(by_id(s.take_result(2000)).at(0).start, 200);
}

// An outage that outlasts M, killing nothing, pushes the head out too.
TEST_P(ReplayInvalidation, OutageEndingAfterQueueEarliestMovesHead) {
  BlockedHead h(GetParam());
  h.eng.run(50);
  ASSERT_TRUE(h.sched.fail_capacity(3, 1500, KillReason::kNodeFailure).empty());
  h.sched.wake_at(60);
  h.eng.run(60);
  ASSERT_EQ(h.sched.last_pass().now, 60);
  EXPECT_EQ(h.sched.last_pass().head_earliest_start, 1500);
}

// A tracer attached between passes sees the next pass walk the queue, so
// the reservation it holds is real and is scored when the job starts.
TEST_P(ReplayInvalidation, AttachingTracerScoresRealReservation) {
  BlockedHead h(GetParam());
  h.eng.run(50);
  trace::Tracer tracer(trace::TraceMode::kCountersOnly);
  h.sched.set_tracer(&tracer);
  h.sched.wake_at(60);
  h.eng.run();
  const auto& c = tracer.counters();
  EXPECT_EQ(c.reservations_made, 1u);
  EXPECT_EQ(c.reservations_honored, 1u);
  EXPECT_EQ(c.reservations_violated, 0u);
}

// A replayed pass keeps a full pass's books: one scan per waiter, the
// head's reservation counted and recorded at the time it already held.
TEST_P(ReplayInvalidation, ReplayedPassRecordsHeldReservation) {
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(10), policy_of(GetParam()));
  trace::Tracer tracer(trace::TraceMode::kFull);
  s.set_tracer(&tracer);
  s.submit(native_job(0, 0, 6, 1000));
  s.submit(native_job(1, 1, 8, 100));
  eng.run(1);
  s.wake_at(60);
  eng.run();
  EXPECT_EQ(s.stats().replayed_passes, 1u);
  const auto& c = tracer.counters();
  // Passes at 0 (job 0 starts), 1 (job 1 blocks), 60 (replayed) and 1000
  // (job 1 starts) each scan one job.
  EXPECT_EQ(c.backfill_scans, 4u);
  EXPECT_EQ(c.reservations_made, 2u);
  EXPECT_EQ(c.reservations_honored, 1u);
  std::size_t made = 0;
  for (std::size_t i = 0; i < tracer.size(); ++i) {
    const auto& e = tracer[i];
    if (e.kind != trace::EventKind::kReservationMade) continue;
    ++made;
    EXPECT_EQ(e.job, 1);
    EXPECT_EQ(e.aux_time, 1000);
  }
  EXPECT_EQ(made, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ReplayInvalidation,
    ::testing::Values(BackfillMode::kEasy, BackfillMode::kConservative,
                      BackfillMode::kNone),
    [](const ::testing::TestParamInfo<BackfillMode>& param_info) {
      switch (param_info.param) {
        case BackfillMode::kEasy:
          return "Easy";
        case BackfillMode::kConservative:
          return "Conservative";
        case BackfillMode::kNone:
          return "None";
      }
      return "Unknown";
    });

// EASY: a backfill start can push back a waiter walked before it, so a
// pass with one leaves no verdicts.  Job 2 fits at 500, ahead of the
// head's reservation at 1000; job 3 then backfills on the two CPUs job 2
// was waiting for, and job 2 can only start after the head, at 1100.
TEST(ReplayAfterBackfill, BackfillStartForbidsReplay) {
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(10), policy_of(BackfillMode::kEasy));
  s.submit(native_job(0, 0, 6, 1000));
  s.submit(native_job(10, 0, 2, 500));
  s.submit(native_job(1, 1, 8, 100));
  s.submit(native_job(2, 1, 4, 400));
  s.submit(native_job(3, 1, 2, 5000));
  eng.run(1);
  ASSERT_EQ(s.stats().backfilled_starts, 1u);
  ASSERT_EQ(s.last_pass().head_earliest_start, 1000);
  s.wake_at(60);
  eng.run(60);
  ASSERT_EQ(s.last_pass().now, 60);
  EXPECT_EQ(s.last_pass().queue_earliest_start, 1000);
  eng.run();
  const auto recs = by_id(s.take_result(10000));
  EXPECT_EQ(recs.at(3).start, 1);
  EXPECT_EQ(recs.at(2).start, 1100);
}

// (d) The replay fires on the paper's continual streams, under EASY (Blue
// Mountain) and conservative (Ross) backfill.
class ReplayOnStream : public ::testing::TestWithParam<cluster::Site> {};

TEST_P(ReplayOnStream, ContinualStreamReplaysPasses) {
  core::Scenario sc;
  sc.site = GetParam();
  sc.project = core::ProjectSpec::continual_stream(
      32, 120, cluster::site_span(sc.site));
  trace::Tracer tracer(trace::TraceMode::kCountersOnly);
  sc.tracer = &tracer;
  core::SimRun run(sc);
  run.run_until(days(3));
  const std::uint64_t replayed = run.scheduler().stats().replayed_passes;
  EXPECT_GT(replayed, 0u);
  EXPECT_LE(replayed, tracer.summary().priority_reuses);
}

INSTANTIATE_TEST_SUITE_P(
    Sites, ReplayOnStream,
    ::testing::Values(cluster::Site::kBlueMountain, cluster::Site::kRoss),
    [](const ::testing::TestParamInfo<cluster::Site>& param_info) {
      return param_info.param == cluster::Site::kRoss ? "Ross" : "BlueMountain";
    });

}  // namespace
}  // namespace istc::sched
