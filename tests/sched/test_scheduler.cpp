#include "sched/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "trace/tracer.hpp"
#include "util/rng.hpp"

namespace istc::sched {
namespace {

using workload::Job;
using workload::JobClass;

cluster::Machine machine_of(int cpus, cluster::DowntimeCalendar cal = {}) {
  return cluster::Machine(
      {.name = "m", .site = "", .queue_system = "", .cpus = cpus,
       .clock_ghz = 1.0},
      std::move(cal));
}

PolicySpec fcfs_policy(BackfillMode mode = BackfillMode::kEasy) {
  PolicySpec p;
  p.backfill = mode;
  p.fairshare.age_weight_per_hour = 0.0;
  return p;
}

Job mk(workload::JobId id, SimTime submit, int cpus, Seconds run,
       Seconds est = 0) {
  Job j;
  j.id = id;
  j.user = static_cast<workload::UserId>(id % 7);
  j.group = static_cast<workload::GroupId>(id % 3);
  j.submit = submit;
  j.cpus = cpus;
  j.runtime = run;
  j.estimate = est ? est : run;
  return j;
}

std::map<workload::JobId, JobRecord> by_id(const RunResult& r) {
  std::map<workload::JobId, JobRecord> m;
  for (const auto& rec : r.records) m[rec.job.id] = rec;
  return m;
}

TEST(Scheduler, SingleJobRunsAtSubmit) {
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(10), fcfs_policy());
  s.submit(mk(0, 100, 4, 50));
  eng.run();
  const auto recs = by_id(s.take_result(1000));
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs.at(0).start, 100);
  EXPECT_EQ(recs.at(0).end, 150);
  EXPECT_EQ(recs.at(0).wait(), 0);
  EXPECT_DOUBLE_EQ(recs.at(0).expansion_factor(), 1.0);
}

TEST(Scheduler, QueuedJobWaitsForSpace) {
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(10), fcfs_policy());
  s.submit(mk(0, 0, 10, 100));
  s.submit(mk(1, 10, 10, 50));
  eng.run();
  const auto recs = by_id(s.take_result(1000));
  EXPECT_EQ(recs.at(0).start, 0);
  EXPECT_EQ(recs.at(1).start, 100);  // must wait for job 0's completion
}

TEST(Scheduler, ParallelJobsSharemachine) {
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(10), fcfs_policy());
  s.submit(mk(0, 0, 4, 100));
  s.submit(mk(1, 0, 6, 100));
  eng.run();
  const auto recs = by_id(s.take_result(1000));
  EXPECT_EQ(recs.at(0).start, 0);
  EXPECT_EQ(recs.at(1).start, 0);
}

TEST(Scheduler, EasyBackfillUsesEstimateShadow) {
  // cap 10: J0 runs [0,100) with 6 cpus (est 100). J1 (8 cpus) blocked,
  // shadow at t=100. J2 (4 cpus, est 50) fits now and ends before shadow:
  // backfills at t=0. J3 (4 cpus, est 200) would cross the shadow and
  // cannot use extra (only 10-8=2 at shadow): waits.
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(10), fcfs_policy(BackfillMode::kEasy));
  s.submit(mk(0, 0, 6, 100));
  s.submit(mk(1, 1, 8, 100));
  s.submit(mk(2, 2, 4, 50));
  s.submit(mk(3, 3, 4, 200));
  eng.run();
  const auto recs = by_id(s.take_result(1000));
  EXPECT_EQ(recs.at(0).start, 0);
  EXPECT_EQ(recs.at(2).start, 2);    // backfilled on arrival
  EXPECT_EQ(recs.at(1).start, 100);  // reservation honored
  EXPECT_GE(recs.at(3).start, 100);  // could not jump the reservation
}

TEST(Scheduler, BackfillCandidateMayUseShadowExtra) {
  // cap 10: J0 6cpus est 100; J1 needs 8 -> shadow 100, extra at shadow =
  // 10-8 = 2. J2 (2 cpus, est 500) exceeds shadow in time but fits in the
  // extra capacity: backfills immediately.
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(10), fcfs_policy(BackfillMode::kEasy));
  s.submit(mk(0, 0, 6, 100));
  s.submit(mk(1, 1, 8, 100));
  s.submit(mk(2, 2, 2, 500));
  eng.run();
  const auto recs = by_id(s.take_result(2000));
  EXPECT_EQ(recs.at(2).start, 2);
  EXPECT_EQ(recs.at(1).start, 100);
}

TEST(Scheduler, EarlyCompletionPullsWorkForward) {
  // J0 estimates 1000 but actually runs 100; J1 blocked on J0's cpus must
  // start at the *actual* completion, not the estimate.
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(10), fcfs_policy());
  s.submit(mk(0, 0, 10, 100, 1000));
  s.submit(mk(1, 5, 10, 10, 100));
  eng.run();
  const auto recs = by_id(s.take_result(2000));
  EXPECT_EQ(recs.at(1).start, 100);
}

TEST(Scheduler, ConservativeBlocksJuniorJumping) {
  // cap 10. J0 8cpus est100 runs. J1 4cpus est100 blocked (reserve @100).
  // J2 2cpus est100: EASY starts it now (fits beside J0 and can't delay
  // J1's 4-cpu reservation: 10-4=6 extra at shadow).  Under conservative
  // it also fits (profile room).  Distinguish with a third waiter J3 whose
  // reservation a backfiller could delay under EASY but not conservative:
  // J2' = 2cpus est 300 long.
  //   EASY: J2' starts at 0 (ends 300; shadow of J1 is 100, extra 10-4=6,
  //         J2' uses 2 <= 6: allowed).
  //   Conservative: J3 (6 cpus, est 150) reserves [100,250) leaving 0
  //         spare with J1; J2' (2 cpus) would overlap that window: denied.
  sim::Engine e1, e2;
  BatchScheduler easy(e1, machine_of(10), fcfs_policy(BackfillMode::kEasy));
  BatchScheduler cons(e2, machine_of(10),
                      fcfs_policy(BackfillMode::kConservative));
  for (auto* s : {&easy, &cons}) {
    s->submit(mk(0, 0, 8, 100));
    s->submit(mk(1, 1, 4, 100));
    s->submit(mk(2, 2, 6, 150));
    s->submit(mk(3, 3, 2, 300));
  }
  e1.run();
  e2.run();
  const auto re = by_id(easy.take_result(2000));
  const auto rc = by_id(cons.take_result(2000));
  // Under EASY only the head (J1) is protected; J3 backfills at submit.
  EXPECT_EQ(re.at(3).start, 3);
  // Under conservative J2's reservation is also protected; J3 cannot start
  // before it without overlapping (2 cpus <= free during [100,250)?
  // J1@100 uses 4, J2@100 uses 6 -> 0 free): J3 must wait.
  EXPECT_GT(rc.at(3).start, 3);
}

TEST(Scheduler, DowntimeDrainsAndResumes) {
  cluster::DowntimeCalendar cal({{100, 200}});
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(10, cal), fcfs_policy());
  // est 60 at t=50 would cross the window start: must wait until 200.
  s.submit(mk(0, 50, 4, 60, 60));
  // short job fits before the window.
  s.submit(mk(1, 50, 4, 50, 50));
  eng.run();
  const auto recs = by_id(s.take_result(1000));
  EXPECT_EQ(recs.at(1).start, 50);
  EXPECT_EQ(recs.at(0).start, 200);
}

TEST(Scheduler, DowntimeWithIdleMachineWakesAfterWindow) {
  cluster::DowntimeCalendar cal({{100, 200}});
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(10, cal), fcfs_policy());
  s.submit(mk(0, 150, 1, 10, 10));  // submitted mid-window
  eng.run();
  const auto recs = by_id(s.take_result(1000));
  EXPECT_EQ(recs.at(0).start, 200);
}

TEST(Scheduler, TimeOfDayGatesWideJobs) {
  PolicySpec p = fcfs_policy();
  p.time_of_day = TimeOfDayRule{.min_cpus_gated = 8,
                                .min_estimate_gated = kTimeInfinity,
                                .night_start_hour = 18,
                                .night_end_hour = 8,
                                .weekends_open = true};
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(16), p);
  s.submit(mk(0, hours(9), 8, 100));  // Monday 09:00, gated
  s.submit(mk(1, hours(9), 4, 100));  // narrow, runs now
  eng.run();
  const auto recs = by_id(s.take_result(days(2)));
  EXPECT_EQ(recs.at(1).start, hours(9));
  EXPECT_EQ(recs.at(0).start, hours(18));
}

TEST(Scheduler, FairSharePoachingReordersQueue) {
  // User 1 has heavy usage; their queued job is overtaken by a later
  // submission from a fresh user (dynamic re-prioritization).
  PolicySpec p = fcfs_policy();
  p.fairshare.mode = FairShareMode::kEqualUsers;
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(10), p);
  // Give user 1 usage history: a completed job.
  Job hist = mk(0, 0, 10, 100);
  hist.user = 1;
  s.submit(hist);
  // Both wait behind hist (full machine); user 1 submits first.
  Job a = mk(1, 10, 10, 50);
  a.user = 1;
  Job b = mk(2, 20, 10, 50);
  b.user = 2;
  s.submit(a);
  s.submit(b);
  eng.run();
  const auto recs = by_id(s.take_result(1000));
  EXPECT_EQ(recs.at(2).start, 100);  // fresh user poaches the front
  EXPECT_EQ(recs.at(1).start, 150);
}

TEST(Scheduler, TryStartImmediatelyRespectsSpace) {
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(10), fcfs_policy());
  Job i1 = mk(100, 0, 6, 50);
  i1.klass = JobClass::kInterstitial;
  Job i2 = mk(101, 0, 6, 50);
  i2.klass = JobClass::kInterstitial;
  eng.run(0);
  EXPECT_TRUE(s.try_start_immediately(i1));
  EXPECT_FALSE(s.try_start_immediately(i2));  // only 4 left
  eng.schedule_wake(0);
  eng.run();
  const auto r = s.take_result(1000);
  EXPECT_EQ(r.interstitial_count(), 1u);
}

TEST(Scheduler, TryStartImmediatelyRespectsDowntime) {
  cluster::DowntimeCalendar cal({{40, 50}});
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(10, cal), fcfs_policy());
  Job i1 = mk(100, 0, 2, 60);
  i1.klass = JobClass::kInterstitial;
  eng.run(0);
  EXPECT_FALSE(s.try_start_immediately(i1));
  eng.schedule_wake(0);
  eng.run();
  EXPECT_EQ(s.take_result(100).records.size(), 0u);
}

TEST(Scheduler, StartHookSeesFreeCpusBeforeTheAllocation) {
  // The hook reports the interstice a start landed in (RunMetrics records
  // it): the free count before this job's CPUs are taken, net of failures.
  const auto hook_values = [](int failed) {
    sim::Engine eng;
    BatchScheduler s(eng, machine_of(16), fcfs_policy());
    std::vector<int> seen;
    s.set_start_hook([&seen](const Job&, int free) { seen.push_back(free); });
    eng.run(0);
    if (failed > 0) s.fail_capacity(failed, 100, KillReason::kNodeFailure);
    for (const workload::JobId id : {100, 101}) {
      Job j = mk(id, 0, 4, 50);
      j.klass = JobClass::kInterstitial;
      EXPECT_TRUE(s.try_start_immediately(j));
    }
    eng.run();
    s.take_result(1000);
    return seen;
  };
  EXPECT_EQ(hook_values(0), (std::vector<int>{16, 12}));
  EXPECT_EQ(hook_values(4), (std::vector<int>{12, 8}));
}

TEST(Scheduler, RecordsCompleteAndConsistent) {
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(8), fcfs_policy());
  for (int i = 0; i < 20; ++i) {
    s.submit(mk(static_cast<workload::JobId>(i), i * 3,
                1 + (i % 5), 40 + i, 80 + i));
  }
  eng.run();
  const auto r = s.take_result(1000);
  ASSERT_EQ(r.records.size(), 20u);
  for (const auto& rec : r.records) {
    EXPECT_GE(rec.start, rec.job.submit);
    EXPECT_EQ(rec.end - rec.start, rec.job.runtime);
  }
  EXPECT_EQ(r.native_count(), 20u);
  EXPECT_EQ(r.interstitial_count(), 0u);
}

TEST(Scheduler, LoadSubmitsWholeLog) {
  std::vector<Job> jobs;
  for (int i = 0; i < 15; ++i) {
    jobs.push_back(mk(static_cast<workload::JobId>(i), i * 10, 2, 30));
  }
  workload::JobLog log(std::move(jobs));
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(64), fcfs_policy());
  s.load(log);
  eng.run();
  EXPECT_EQ(s.take_result(1000).records.size(), 15u);
}

TEST(Scheduler, PostPassHookSeesQueueState) {
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(4), fcfs_policy());
  std::vector<PassContext> contexts;
  s.set_post_pass_hook(
      [&](const PassContext& c) { contexts.push_back(c); });
  s.submit(mk(0, 0, 4, 100));
  s.submit(mk(1, 10, 4, 50));  // will queue at t=10
  eng.run();
  ASSERT_FALSE(contexts.empty());
  // At t=10 the queue holds job 1; head shadow = estimated end of job 0.
  bool saw_blocked = false;
  for (const auto& c : contexts) {
    if (c.now == 10) {
      saw_blocked = true;
      EXPECT_FALSE(c.queue_empty);
      EXPECT_EQ(c.head_earliest_start, 100);
      EXPECT_EQ(c.free_cpus, 0);
    }
  }
  EXPECT_TRUE(saw_blocked);
  s.take_result(1000);
}

TEST(Scheduler, StatsCountersTrackActivity) {
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(10), fcfs_policy());
  trace::Tracer tracer(trace::TraceMode::kCountersOnly);
  s.set_tracer(&tracer);
  // Head blocks behind a runner; a small job backfills.
  s.submit(mk(0, 0, 6, 100));
  s.submit(mk(1, 1, 8, 100));
  s.submit(mk(2, 2, 4, 50));
  eng.run();
  const auto& st = s.stats();
  EXPECT_EQ(st.native_starts, 3u);
  EXPECT_EQ(st.interstitial_starts, 0u);
  EXPECT_GE(st.backfilled_starts, 1u);   // job 2 starts past blocked job 1
  const auto sum = tracer.summary();
  EXPECT_GE(sum.sched_passes, 3u);       // at least one per event time
  EXPECT_GE(sum.reservations_made, 1u);  // job 1's head reservation
  s.take_result(1000);
}

TEST(Scheduler, StatsCountInterstitialStartsSeparately) {
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(10), fcfs_policy());
  Job i1 = mk(100, 0, 2, 50);
  i1.klass = JobClass::kInterstitial;
  eng.run(0);
  ASSERT_TRUE(s.try_start_immediately(i1));
  eng.schedule_wake(0);
  eng.run();
  EXPECT_EQ(s.stats().interstitial_starts, 1u);
  EXPECT_EQ(s.stats().native_starts, 0u);
  s.take_result(1000);
}

// Churn for the fold tests: 60 random natives on 16 CPUs, with
// overestimates so reservations drift and wakes get armed.
void submit_churn(BatchScheduler& s) {
  Rng rng(7);
  for (workload::JobId id = 0; id < 60; ++id) {
    const auto run = 10 + static_cast<Seconds>(rng.below(300));
    s.submit(mk(id, static_cast<SimTime>(rng.below(2000)),
                1 + static_cast<int>(rng.below(16)), run,
                run * (1 + static_cast<Seconds>(rng.below(3)))));
  }
}

// The engine knows no tracer: take_result folds its counts into the
// attached one.  Attached at construction, the tracer sees every drained
// event and timestep, and each gauge equals the engine's own; attaching
// one, in either mode, changes nothing the engine drains.
TEST(SchedulerTrace, TakeResultFoldsEngineStatsIntoTracer) {
  const auto drain = [](trace::Tracer* tracer, sim::EngineStats& stats) {
    sim::Engine eng;
    BatchScheduler s(eng, machine_of(16), fcfs_policy());
    if (tracer != nullptr) s.set_tracer(tracer);
    submit_churn(s);
    eng.run();
    const RunResult r = s.take_result(3000);
    if (tracer != nullptr) {
      EXPECT_EQ(r.trace.engine_events_drained,
                tracer->counters().engine_events_drained);
    }
    stats = eng.stats();
    return eng.events_processed();
  };
  sim::EngineStats bare_stats;
  const std::uint64_t bare = drain(nullptr, bare_stats);
  trace::Tracer counters(trace::TraceMode::kCountersOnly);
  trace::Tracer full(trace::TraceMode::kFull);
  for (trace::Tracer* tracer : {&counters, &full}) {
    sim::EngineStats e;
    EXPECT_EQ(drain(tracer, e), bare);
    EXPECT_EQ(e.timesteps, bare_stats.timesteps);
    const trace::TraceSummary& c = tracer->counters();
    const auto scheduled = [&e](sim::EventType type) {
      return e.scheduled_by_type[static_cast<int>(type)];
    };
    EXPECT_EQ(c.engine_events_drained, bare);
    EXPECT_EQ(c.engine_timesteps, e.timesteps);
    EXPECT_EQ(c.engine_peak_queue_depth, e.peak_queue_depth);
    EXPECT_EQ(c.engine_max_timestep_batch, e.max_timestep_batch);
    EXPECT_EQ(c.engine_heap_allocations, e.heap_allocations);
    EXPECT_EQ(c.engine_events_job_submit,
              scheduled(sim::EventType::kJobSubmit));
    EXPECT_EQ(c.engine_events_job_finish,
              scheduled(sim::EventType::kJobFinish));
    EXPECT_EQ(c.engine_events_wake, scheduled(sim::EventType::kSchedulerWake));
    EXPECT_EQ(c.engine_events_sample, scheduled(sim::EventType::kSample));
    EXPECT_EQ(c.engine_events_repair,
              scheduled(sim::EventType::kCapacityRepair));
    EXPECT_EQ(c.engine_events_fault, scheduled(sim::EventType::kFaultFire));
    EXPECT_EQ(c.engine_events_grid_arrival,
              scheduled(sim::EventType::kGridArrival));
  }
  EXPECT_EQ(counters.counters().engine_events_job_submit, 60u);
  EXPECT_GT(counters.counters().engine_events_wake, 0u);
}

// Swapping tracers folds the engine's counts into the outgoing one, and
// the tracer attached mid-run counts drained events and timesteps of its
// own window only; gauges cover the engine's whole life.
TEST(SchedulerTrace, MidRunAttachCountsOnlyTheAttachedWindow) {
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(16), fcfs_policy());
  trace::Tracer first(trace::TraceMode::kCountersOnly);
  s.set_tracer(&first);
  submit_churn(s);
  eng.run(1000);
  const std::uint64_t events_at_swap = eng.events_processed();
  const std::uint64_t steps_at_swap = eng.stats().timesteps;
  ASSERT_GT(events_at_swap, 0u);
  trace::Tracer second(trace::TraceMode::kCountersOnly);
  s.set_tracer(&second);
  EXPECT_EQ(first.counters().engine_events_drained, events_at_swap);
  EXPECT_EQ(first.counters().engine_timesteps, steps_at_swap);
  eng.run();
  const RunResult r = s.take_result(3000);
  ASSERT_GT(eng.events_processed(), events_at_swap);
  const trace::TraceSummary& c = second.counters();
  EXPECT_EQ(c.engine_events_drained, eng.events_processed() - events_at_swap);
  EXPECT_EQ(c.engine_timesteps, eng.stats().timesteps - steps_at_swap);
  EXPECT_EQ(c.engine_peak_queue_depth, eng.stats().peak_queue_depth);
  EXPECT_EQ(r.trace.engine_timesteps, c.engine_timesteps);
  // The outgoing tracer kept only its own window.
  EXPECT_EQ(first.counters().engine_events_drained, events_at_swap);
}

TEST(Scheduler, WakeAtDedupsCoveredWakes) {
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(10), fcfs_policy());
  s.wake_at(10);  // queued
  s.wake_at(5);   // earlier: must queue its own event
  s.wake_at(7);   // covered by the wake at 5
  EXPECT_EQ(s.stats().wakeups, 2u);
}

TEST(Scheduler, WakeAtNotFooledByStaleEarlierWake) {
  // Regression: the old single next_wake_ register was never cleared once
  // its wake fired, so a later wake_at for a still-queued time scheduled a
  // duplicate event (and counted a phantom wakeup).
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(10), fcfs_policy());
  s.wake_at(10);
  s.wake_at(5);
  ASSERT_EQ(s.stats().wakeups, 2u);
  std::uint64_t wakeups_at_6 = 0;
  s.set_post_pass_hook([&](const PassContext& c) {
    if (c.now == 6) {
      // The wake at 5 has fired; the one at 10 is still queued, so this
      // must be recognized as covered.
      s.wake_at(10);
      wakeups_at_6 = s.stats().wakeups;
    }
  });
  s.engine().schedule_wake(6);
  eng.run();
  EXPECT_EQ(wakeups_at_6, 2u);
  EXPECT_EQ(s.stats().wakeups, 2u);
  s.take_result(20);
}

TEST(Scheduler, StaleWakeDedupAcrossCalendarTiers) {
  // The calendar queue's bucket ordering changes *how* wake events are
  // stored, never which wakes are deduplicated or when passes fire.  The
  // wake plan walks the calendar's tiers — same rung-1 bucket (5, 7, 10),
  // a later rung-1 bucket (70), rung 2 (70000), and the far-future
  // overflow list (100000000) — re-arming from the post-pass hook the way
  // the interstitial driver does (arming everything up front would be
  // covered by the earliest wake and prove nothing).
  const std::vector<SimTime> plan = {70, 70000, 100000000};
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(10), fcfs_policy());
  std::vector<SimTime> fired;
  s.set_post_pass_hook([&](const PassContext& c) {
    fired.push_back(c.now);
    for (const SimTime t : plan) {
      if (t > c.now) {
        s.wake_at(t);
        s.wake_at(t);  // immediate duplicate: must be covered
        break;
      }
    }
  });
  s.wake_at(10);
  s.wake_at(5);
  s.wake_at(7);  // covered by the wake at 5
  eng.run();
  // 2 up-front (10, 5) + one per plan step; the re-armed duplicates and
  // the covered 7 never reach the queue.
  EXPECT_EQ(fired, (std::vector<SimTime>{5, 10, 70, 70000, 100000000}));
  EXPECT_EQ(s.stats().wakeups, 5u);
  s.take_result(200000000);
}

TEST(Scheduler, IncrementalProfileEqualsRebuildAfterEveryPass) {
  // The pass-persistent profile (deltas + origin advance) must be the same
  // step function as a from-scratch rebuild at every post-pass point,
  // under every backfill discipline, across a workload dense enough to
  // exercise blocking, backfill, reservations and downtime drains.
  for (const BackfillMode mode :
       {BackfillMode::kEasy, BackfillMode::kConservative,
        BackfillMode::kNone}) {
    sim::Engine eng;
    BatchScheduler s(eng,
                     machine_of(32, cluster::DowntimeCalendar({{900, 1100}})),
                     fcfs_policy(mode));
    trace::Tracer tracer(trace::TraceMode::kCountersOnly);
    s.set_tracer(&tracer);
    std::uint64_t checked = 0;
    s.set_post_pass_hook([&](const PassContext& c) {
      EXPECT_TRUE(s.profile().same_function(s.rebuild_profile(c.now)))
          << "mode " << static_cast<int>(mode) << " t=" << c.now;
      ++checked;
    });
    Rng rng(99);
    SimTime submit = 0;
    for (workload::JobId id = 0; id < 120; ++id) {
      submit += static_cast<SimTime>(rng.below(40));
      const auto runtime = 20 + static_cast<Seconds>(rng.below(300));
      s.submit(mk(id, submit, 1 + static_cast<int>(rng.below(20)), runtime,
                  runtime * (1 + static_cast<Seconds>(rng.below(3)))));
    }
    eng.run();
    EXPECT_EQ(checked, tracer.summary().sched_passes);
    EXPECT_GT(tracer.summary().reservations_made, 0u);
    EXPECT_EQ(s.take_result(10000).records.size(), 120u);
  }
}

TEST(Scheduler, ProfileDescribesRunningJobsBetweenPasses) {
  // At every post-pass point the persistent profile's present-time value
  // must agree with the machine: temps undone, all running jobs applied.
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(16), fcfs_policy());
  bool checked = false;
  s.set_post_pass_hook([&](const PassContext& c) {
    EXPECT_EQ(s.profile().free_at(c.now), s.free_cpus());
    checked = true;
  });
  Rng rng(7);
  SimTime submit = 0;
  for (workload::JobId id = 0; id < 40; ++id) {
    submit += static_cast<SimTime>(rng.below(60));
    s.submit(mk(id, submit, 1 + static_cast<int>(rng.below(12)),
                10 + static_cast<Seconds>(rng.below(200))));
  }
  eng.run();
  EXPECT_TRUE(checked);
  s.take_result(10000);
}

#ifdef GTEST_HAS_DEATH_TEST
TEST(SchedulerDeath, TakeResultWithPendingJobsAborts) {
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(4), fcfs_policy());
  s.submit(mk(0, 0, 4, 100));
  eng.run(50);  // stop before completion
  EXPECT_DEATH(s.take_result(100), "precondition");
}

TEST(SchedulerDeath, OversizedJobRejected) {
  sim::Engine eng;
  BatchScheduler s(eng, machine_of(4), fcfs_policy());
  EXPECT_DEATH(s.submit(mk(0, 0, 5, 100)), "precondition");
}
#endif

}  // namespace
}  // namespace istc::sched
