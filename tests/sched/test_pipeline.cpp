#include <gtest/gtest.h>

#include <map>

#include "sched/scheduler.hpp"
#include "trace/tracer.hpp"
#include "util/rng.hpp"

namespace istc::sched {
namespace {

using workload::Job;

cluster::Machine machine_of(int cpus) {
  return cluster::Machine(
      {.name = "m", .site = "", .queue_system = "", .cpus = cpus,
       .clock_ghz = 1.0},
      {});
}

Job mk(workload::JobId id, SimTime submit, int cpus, Seconds run,
       Seconds est = 0) {
  Job j;
  j.id = id;
  j.user = static_cast<workload::UserId>(id % 5);
  j.group = static_cast<workload::GroupId>(id % 2);
  j.submit = submit;
  j.cpus = cpus;
  j.runtime = run;
  j.estimate = est ? est : run;
  return j;
}

void submit_random_burst(BatchScheduler& s, int jobs, std::uint64_t seed) {
  Rng rng(seed);
  SimTime submit = 0;
  for (workload::JobId id = 0; id < static_cast<workload::JobId>(jobs); ++id) {
    submit += static_cast<SimTime>(rng.below(50));
    const auto runtime = 15 + static_cast<Seconds>(rng.below(250));
    s.submit(mk(id, submit, 1 + static_cast<int>(rng.below(10)), runtime,
                runtime * (1 + static_cast<Seconds>(rng.below(3)))));
  }
}

TEST(Pipeline, PriorityOrderReusedBetweenLedgerCharges) {
  sim::Engine eng;
  PolicySpec policy;
  BatchScheduler s(eng, machine_of(12), policy);
  trace::Tracer tracer(trace::TraceMode::kCountersOnly);
  s.set_tracer(&tracer);
  // A deep queue on a small machine: many passes see an unchanged pending
  // set between completions (charges), so the sorted order must be reused.
  submit_random_burst(s, 60, 33);
  eng.run();
  const auto& sum = tracer.summary();
  EXPECT_GT(sum.priority_reuses, 0u);
  EXPECT_GT(sum.priority_recomputes, 0u);
  // Every pass with a non-empty queue either recomputed or reused.
  EXPECT_LE(sum.priority_recomputes + sum.priority_reuses, sum.sched_passes);
  s.take_result(10000);
}

TEST(Pipeline, StageTimersLandInTraceSummaryWhenCounting) {
  sim::Engine eng;
  PolicySpec policy;
  BatchScheduler s(eng, machine_of(16), policy);
  trace::Tracer tracer(trace::TraceMode::kCountersOnly);
  s.set_tracer(&tracer);
  std::uint64_t passes = 0;
  s.set_post_pass_hook([&passes](const PassContext&) { ++passes; });
  submit_random_burst(s, 30, 55);
  eng.run();
  const auto& sum = tracer.summary();
  EXPECT_GT(sum.sched_passes, 0u);
  // Every pass lands in the summary exactly once.
  EXPECT_EQ(sum.sched_passes, passes);
  s.take_result(10000);
}

TEST(Pipeline, SubmissionInvalidatesCachedOrder) {
  // A newly submitted job must enter the next pass's sort: two equal jobs
  // from the same principal start in submit order even though the second
  // arrives after the order was first established.
  sim::Engine eng;
  PolicySpec policy;
  BatchScheduler s(eng, machine_of(4), policy);
  s.submit(mk(0, 0, 4, 100));   // occupies the machine
  s.submit(mk(1, 10, 4, 50));   // queues; order cached with just job 1
  s.submit(mk(2, 20, 4, 50));   // queues behind it after the cache formed
  eng.run();
  std::map<workload::JobId, SimTime> starts;
  for (const auto& r : s.take_result(1000).records) {
    starts[r.job.id] = r.start;
  }
  EXPECT_EQ(starts.at(1), 100);
  EXPECT_EQ(starts.at(2), 150);
}

}  // namespace
}  // namespace istc::sched
