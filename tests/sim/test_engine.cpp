#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

namespace istc::sim {
namespace {

/// Logs every job event it receives as (kind, arg): 's' submit, 'f'
/// finish, 'r' capacity repair.  `on_submit`, when set, runs after a
/// submit is logged, so a test can schedule follow-up typed events from
/// inside an event handler.
struct RecordingSink : JobEventSink {
  std::vector<std::pair<char, std::uint32_t>> log;
  std::function<void(std::uint32_t)> on_submit;
  void job_submit(std::uint32_t index) override {
    log.push_back({'s', index});
    if (on_submit) on_submit(index);
  }
  void job_finish(std::uint32_t id) override { log.push_back({'f', id}); }
  void capacity_repair(std::uint32_t id) override { log.push_back({'r', id}); }

  /// The args of the logged events, in firing order.
  std::vector<std::uint32_t> args() const {
    std::vector<std::uint32_t> out;
    for (const auto& [kind, arg] : log) out.push_back(arg);
    return out;
  }
  long count(char kind) const {
    return std::count_if(log.begin(), log.end(),
                         [kind](const auto& e) { return e.first == kind; });
  }
};

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_TRUE(e.finished());
}

TEST(Engine, RunsEventsInOrder) {
  Engine e;
  RecordingSink sink;
  e.set_job_sink(&sink);
  e.schedule_job_submit(20, 20);
  e.schedule_job_submit(10, 10);
  e.run();
  EXPECT_EQ(sink.args(), (std::vector<std::uint32_t>{10, 20}));
  EXPECT_EQ(e.now(), 20);
  EXPECT_EQ(e.events_processed(), 2u);
}

TEST(Engine, QuiescentHookOncePerTimestamp) {
  Engine e;
  RecordingSink sink;
  e.set_job_sink(&sink);
  std::vector<SimTime> hook_times;
  e.on_quiescent([&](SimTime t) { hook_times.push_back(t); });
  e.schedule_job_submit(5, 0);
  e.schedule_job_submit(5, 1);
  e.schedule_job_submit(5, 2);
  e.schedule_job_submit(9, 3);
  e.run();
  EXPECT_EQ(hook_times, (std::vector<SimTime>{5, 9}));
}

TEST(Engine, HookRunsAfterAllEventsAtTimestamp) {
  Engine e;
  RecordingSink sink;
  e.set_job_sink(&sink);
  std::size_t counted_at_hook = 0;
  e.on_quiescent([&](SimTime) { counted_at_hook = sink.log.size(); });
  for (std::uint32_t i = 0; i < 4; ++i) e.schedule_job_submit(3, i);
  e.run();
  EXPECT_EQ(counted_at_hook, 4u);
}

TEST(Engine, EventScheduledForNowByEventRunsThisStep) {
  Engine e;
  RecordingSink sink;
  e.set_job_sink(&sink);
  sink.on_submit = [&](std::uint32_t index) {
    if (index == 1) e.schedule_job_submit(e.now(), 2);
  };
  e.schedule_job_submit(5, 1);
  e.run();
  EXPECT_EQ(sink.args(), (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(e.now(), 5);
}

TEST(Engine, HookMaySchedulePresentAndFuture) {
  Engine e;
  RecordingSink sink;
  e.set_job_sink(&sink);
  int hook_calls = 0;
  e.on_quiescent([&](SimTime t) {
    ++hook_calls;
    if (t == 1 && hook_calls == 1) e.schedule_job_submit(4, 7);
  });
  e.schedule_wake(1);
  e.run();
  EXPECT_EQ(sink.args(), (std::vector<std::uint32_t>{7}));  // the future one
  EXPECT_GE(hook_calls, 2);  // once at t=1, once at t=4
}

TEST(Engine, MultipleHooksInRegistrationOrder) {
  Engine e;
  std::vector<int> order;
  e.on_quiescent([&](SimTime) { order.push_back(1); });
  e.on_quiescent([&](SimTime) { order.push_back(2); });
  e.schedule_wake(3);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Engine, RunUntilStopsAndResumes) {
  Engine e;
  RecordingSink sink;
  e.set_job_sink(&sink);
  e.schedule_job_submit(10, 10);
  e.schedule_job_submit(20, 20);
  e.schedule_job_submit(30, 30);
  e.run(20);
  EXPECT_EQ(sink.args(), (std::vector<std::uint32_t>{10, 20}));
  EXPECT_FALSE(e.finished());
  e.run();
  EXPECT_EQ(sink.log.size(), 3u);
}

TEST(Engine, RunUntilAdvancesClockToLimit) {
  Engine e;
  e.schedule_wake(5);
  e.run(100);
  EXPECT_EQ(e.now(), 100);
}

TEST(Engine, StepProcessesOneTimestamp) {
  Engine e;
  RecordingSink sink;
  e.set_job_sink(&sink);
  e.schedule_job_submit(5, 0);
  e.schedule_job_submit(5, 1);
  e.schedule_job_submit(8, 2);
  EXPECT_TRUE(e.step());
  EXPECT_EQ(sink.log.size(), 2u);
  EXPECT_EQ(e.now(), 5);
  EXPECT_TRUE(e.step());
  EXPECT_EQ(sink.log.size(), 3u);
  EXPECT_FALSE(e.step());
}

TEST(Engine, ChainedSimulationDrains) {
  // A self-perpetuating chain that stops after N links: each link's
  // handler schedules the next one 7 s later.
  Engine e;
  RecordingSink sink;
  e.set_job_sink(&sink);
  int links = 0;
  sink.on_submit = [&](std::uint32_t) {
    if (++links < 100) e.schedule_job_submit(e.now() + 7, 0);
  };
  e.schedule_job_submit(0, 0);
  e.run();
  EXPECT_EQ(links, 100);
  EXPECT_EQ(e.now(), 99 * 7);
}

TEST(Engine, EventsProcessedCounts) {
  Engine e;
  RecordingSink sink;
  e.set_job_sink(&sink);
  for (std::uint32_t i = 0; i < 7; ++i) e.schedule_job_submit(i, i);
  e.run();
  EXPECT_EQ(e.events_processed(), 7u);
}

TEST(Engine, RunWithEmptyQueueIsNoOp) {
  Engine e;
  e.run();
  EXPECT_EQ(e.now(), 0);
  EXPECT_TRUE(e.finished());
}

TEST(Engine, FinishedReflectsQueueState) {
  Engine e;
  e.schedule_wake(5);
  EXPECT_FALSE(e.finished());
  e.run();
  EXPECT_TRUE(e.finished());
}

TEST(Engine, HookNotCalledWithoutEvents) {
  Engine e;
  int calls = 0;
  e.on_quiescent([&](SimTime) { ++calls; });
  e.run();
  EXPECT_EQ(calls, 0);
}

TEST(Engine, RunUntilExactEventTimeProcessesIt) {
  Engine e;
  RecordingSink sink;
  e.set_job_sink(&sink);
  e.schedule_job_submit(10, 1);
  e.run(10);
  EXPECT_EQ(sink.log.size(), 1u);
  EXPECT_EQ(e.now(), 10);
}

TEST(Engine, ScheduleAtCurrentTimeBeforeRunWorks) {
  Engine e;
  RecordingSink sink;
  e.set_job_sink(&sink);
  e.schedule_job_submit(0, 1);
  e.run();
  EXPECT_EQ(sink.log.size(), 1u);
}

#ifdef GTEST_HAS_DEATH_TEST
TEST(EngineDeath, SchedulingInThePastAborts) {
  Engine e;
  e.schedule_wake(10);
  e.run();
  EXPECT_DEATH(e.schedule_wake(5), "precondition");
}
#endif

// -- typed event core ------------------------------------------------------

TEST(EngineTyped, DispatchesJobEventsToSink) {
  Engine e;
  RecordingSink sink;
  e.set_job_sink(&sink);
  e.schedule_job_finish(20, 7);
  e.schedule_job_submit(10, 3);
  e.schedule_wake(15);
  e.run();
  EXPECT_EQ(sink.log, (std::vector<std::pair<char, std::uint32_t>>{
                          {'s', 3}, {'f', 7}}));
  EXPECT_EQ(e.events_processed(), 3u);  // the wake drains too
  EXPECT_EQ(e.now(), 20);
}

TEST(EngineTyped, WakeTriggersQuiescentHook) {
  Engine e;
  std::vector<SimTime> hook_times;
  e.on_quiescent([&](SimTime t) { hook_times.push_back(t); });
  e.schedule_wake(9);
  e.run();
  EXPECT_EQ(hook_times, (std::vector<SimTime>{9}));
}

/// Every receiver an engine dispatches to, logging (time, kind, arg) in
/// firing order: 's'/'f'/'r' through the job sink, 'x' the fault hook,
/// 'g' the grid hook, 'q' the quiescent hooks and 'p' the sample hook.
struct ReceiverLog : JobEventSink {
  using Entry = std::tuple<SimTime, char, std::uint32_t>;
  std::vector<Entry> entries;
  const Engine* engine = nullptr;

  void attach(Engine& e) {
    engine = &e;
    e.set_job_sink(this);
    e.set_fault_hook([this](std::uint32_t arg) { note('x', arg); });
    e.set_grid_hook([this](std::uint32_t arg) { note('g', arg); });
    e.on_quiescent([this](SimTime) { note('q', 0); });
    e.set_sample_hook([this](SimTime) { note('p', 0); });
  }
  void job_submit(std::uint32_t index) override { note('s', index); }
  void job_finish(std::uint32_t slot) override { note('f', slot); }
  void capacity_repair(std::uint32_t id) override { note('r', id); }
  void note(char kind, std::uint32_t arg) {
    entries.emplace_back(engine->now(), kind, arg);
  }
};

TEST(EngineTyped, EveryKindReachesItsReceiverAndIsCounted) {
  Engine e;
  ReceiverLog rx;
  rx.attach(e);
  e.schedule_job_submit(1, 11);
  e.schedule_job_finish(2, 22);
  e.schedule_wake(3);
  e.schedule_capacity_repair(4, 44);
  e.schedule_fault(5, 55);
  e.schedule_grid_arrival(6, 66);
  e.schedule_sample(7);
  e.run();
  // Each event reaches exactly its receiver with its arg, then the
  // timestep's quiescent pass runs.  The wake at 3 reaches only the
  // quiescent hooks, and the sample at 7 only the sample hook.
  EXPECT_EQ(rx.entries, (std::vector<ReceiverLog::Entry>{
                            {1, 's', 11}, {1, 'q', 0},
                            {2, 'f', 22}, {2, 'q', 0},
                            {3, 'q', 0},
                            {4, 'r', 44}, {4, 'q', 0},
                            {5, 'x', 55}, {5, 'q', 0},
                            {6, 'g', 66}, {6, 'q', 0},
                            {7, 'p', 0}}));
  for (int k = 0; k < kNumEventTypes; ++k) {
    EXPECT_EQ(e.stats().scheduled_by_type[k], 1u) << "EventType " << k;
  }
  EXPECT_EQ(e.events_processed(), 7u);
}

TEST(EngineTyped, AdoptedCopyReplaysRemainingKindsInSourceOrder) {
  // The run-fork primitive at engine level: a copy made mid-run fires the
  // remaining events of every kind in the source's exact order, ties on
  // time included, and events pushed after the copy tie-break alike.
  const auto schedule_mix = [](Engine& e) {
    for (std::uint32_t i = 0; i < 40; ++i) {
      const SimTime t = 10 * static_cast<SimTime>(i % 13);  // many ties
      switch (i % 6) {
        case 0: e.schedule_job_submit(t, i); break;
        case 1: e.schedule_job_finish(t, i); break;
        case 2: e.schedule_wake(t); break;
        case 3: e.schedule_capacity_repair(t, i); break;
        case 4: e.schedule_fault(t, i); break;
        default: e.schedule_grid_arrival(t, i); break;
      }
    }
  };
  Engine source;
  ReceiverLog source_rx;
  source_rx.attach(source);
  schedule_mix(source);
  source.run(60);

  Engine copy;
  ReceiverLog copy_rx;
  copy_rx.attach(copy);
  copy.adopt_state(source);
  EXPECT_EQ(copy.now(), source.now());
  EXPECT_EQ(copy.queued_events(), source.queued_events());

  source_rx.entries.clear();
  for (Engine* e : {&source, &copy}) {
    e->schedule_fault(90, 1000);
    e->schedule_job_submit(90, 1001);
    e->schedule_grid_arrival(200, 1002);
  }
  source.run();
  copy.run();
  EXPECT_EQ(copy_rx.entries, source_rx.entries);
  for (const char kind : {'s', 'f', 'r', 'x', 'g', 'q'}) {
    EXPECT_TRUE(std::any_of(copy_rx.entries.begin(), copy_rx.entries.end(),
                            [kind](const ReceiverLog::Entry& entry) {
                              return std::get<1>(entry) == kind;
                            }))
        << "no '" << kind << "' event after the copy";
  }
  EXPECT_EQ(copy.events_processed(), source.events_processed());
}

TEST(EngineTyped, SteadyStateIsAllocationFree) {
  // The event core's contract at engine level: a typed churn (job events,
  // wakes, capacity repairs) warms the calendar's buckets once; an
  // identical churn afterwards performs zero queue heap allocations.
  Engine e;
  RecordingSink sink;
  e.set_job_sink(&sink);
  e.reserve_events(256);
  const auto churn = [&](SimTime base) {
    for (SimTime t = base; t < base + 64; ++t) {
      e.schedule_job_submit(t, static_cast<std::uint32_t>(t - base));
      e.schedule_job_finish(t + 40, static_cast<std::uint32_t>(t - base));
      e.schedule_wake(t + 20);
      e.schedule_capacity_repair(t + 10, static_cast<std::uint32_t>(t - base));
    }
    e.run();
  };
  churn(0);
  const std::uint64_t warm = e.stats().heap_allocations;
  // Same offsets from a base that is a whole number of wheel laps ahead:
  // the same bucket slots, so the warmed capacities are reused exactly.
  churn(SimTime{65536} * 1024 * 4);
  EXPECT_EQ(e.stats().heap_allocations, warm);
  EXPECT_EQ(sink.count('r'), 128);
  EXPECT_EQ(sink.count('s') + sink.count('f'), 256);
}

TEST(EngineTyped, StatsTrackDepthBatchAndKinds) {
  Engine e;
  RecordingSink sink;
  e.set_job_sink(&sink);
  for (std::uint32_t i = 0; i < 5; ++i) e.schedule_job_finish(10, i);
  e.schedule_wake(10);
  e.schedule_capacity_repair(3, 0);
  e.run();
  const EngineStats& s = e.stats();
  EXPECT_EQ(s.timesteps, 2u);  // t=3 and t=10
  EXPECT_EQ(e.events_processed(), 7u);
  EXPECT_EQ(s.peak_queue_depth, 7u);
  EXPECT_EQ(s.max_timestep_batch, 6u);  // the 6-event batch at t=10
  EXPECT_EQ(
      s.scheduled_by_type[static_cast<int>(EventType::kCapacityRepair)], 1u);
  EXPECT_EQ(s.scheduled_by_type[static_cast<int>(EventType::kJobFinish)], 5u);
  EXPECT_EQ(s.scheduled_by_type[static_cast<int>(EventType::kSchedulerWake)],
            1u);
  EXPECT_EQ(s.scheduled_by_type[static_cast<int>(EventType::kJobSubmit)], 0u);
}

TEST(EngineTyped, EventScheduledForNowFromCallbackCountsInBatch) {
  // A receiver that schedules a same-time event extends the current
  // timestep's batch.
  Engine e;
  RecordingSink sink;
  e.set_job_sink(&sink);
  sink.on_submit = [&](std::uint32_t index) {
    if (index == 0) e.schedule_job_submit(e.now(), 1);
  };
  e.schedule_job_submit(5, 0);
  e.run();
  EXPECT_EQ(sink.log.size(), 2u);
  EXPECT_EQ(e.stats().max_timestep_batch, 2u);
}

}  // namespace
}  // namespace istc::sim
