// Microbenchmarks of the discrete-event engine and its calendar queue.

#include <benchmark/benchmark.h>

#include <functional>

#include "core/experiment.hpp"
#include "sim/engine.hpp"
#include "trace/tracer.hpp"

namespace {

using istc::SimTime;

/// Counts the job events it receives.  `chain`, when set, runs on every
/// submit (the self-perpetuating chain schedules its next link there).
struct CountingSink final : istc::sim::JobEventSink {
  long submits = 0;
  long finishes = 0;
  std::function<void()> chain;
  void job_submit(std::uint32_t) override {
    ++submits;
    if (chain) chain();
  }
  void job_finish(std::uint32_t) override { ++finishes; }
};

// One event per distinct time, each dispatched to the sink.
void BM_EngineScheduleAndDrain(benchmark::State& state) {
  const auto n = static_cast<SimTime>(state.range(0));
  for (auto _ : state) {
    istc::sim::Engine eng;
    CountingSink sink;
    eng.set_job_sink(&sink);
    eng.reserve_events(static_cast<std::size_t>(n));
    for (SimTime t = 0; t < n; ++t) {
      eng.schedule_job_submit(t, static_cast<std::uint32_t>(t));
    }
    eng.run();
    benchmark::DoNotOptimize(sink.submits);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineScheduleAndDrain)->Arg(1000)->Arg(100000);

// The steady-state shape of a site replay: a submit and a finish per job,
// dispatched through the JobEventSink vtable.
void BM_EngineTypedJobStream(benchmark::State& state) {
  const auto n = static_cast<SimTime>(state.range(0));
  for (auto _ : state) {
    istc::sim::Engine eng;
    CountingSink sink;
    eng.set_job_sink(&sink);
    eng.reserve_events(static_cast<std::size_t>(2 * n));
    for (SimTime t = 0; t < n; ++t) {
      eng.schedule_job_submit(t, static_cast<std::uint32_t>(t));
      eng.schedule_job_finish(t + 50, static_cast<std::uint32_t>(t));
    }
    eng.run();
    benchmark::DoNotOptimize(sink.finishes);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_EngineTypedJobStream)->Arg(100000);

void BM_EngineSameTimestampBatch(benchmark::State& state) {
  // Many events at one timestamp: one quiescent pass per step.
  const auto n = static_cast<SimTime>(state.range(0));
  for (auto _ : state) {
    istc::sim::Engine eng;
    CountingSink sink;
    eng.set_job_sink(&sink);
    long hook_calls = 0;
    eng.on_quiescent([&hook_calls](SimTime) { ++hook_calls; });
    for (SimTime i = 0; i < n; ++i) {
      eng.schedule_job_submit(42, static_cast<std::uint32_t>(i));
    }
    eng.run();
    benchmark::DoNotOptimize(hook_calls);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineSameTimestampBatch)->Arg(10000);

// The calendar's worst shape: one live event at a time, each link's
// handler scheduling the next one second later, so the queue drains and
// re-anchors its wheel on every hop.  No replay drains the queue per
// event (a replay preloads its whole log); the row bounds that path.
void BM_EngineSelfPerpetuatingChain(benchmark::State& state) {
  const long links = state.range(0);
  for (auto _ : state) {
    istc::sim::Engine eng;
    CountingSink sink;
    eng.set_job_sink(&sink);
    sink.chain = [&] {
      if (sink.submits < links) eng.schedule_job_submit(eng.now() + 1, 0);
    };
    eng.schedule_job_submit(0, 0);
    eng.run();
    benchmark::DoNotOptimize(sink.submits);
  }
  state.SetItemsProcessed(state.iterations() * links);
}
BENCHMARK(BM_EngineSelfPerpetuatingChain)->Arg(100000);

// End-to-end: the continual-harvest co-simulation (the heaviest scenario
// class).  Wall ms is the event core's share of a real experiment plus
// everything else it drives; queue_heap_allocs counts bucket warm-up.
void BM_ContinualHarvestEventCore(benchmark::State& state) {
  std::uint64_t seed = 400;
  std::uint64_t heap_allocs = 0;
  for (auto _ : state) {
    istc::trace::Tracer tracer(istc::trace::TraceMode::kCountersOnly);
    istc::core::Scenario sc;
    sc.site = istc::cluster::Site::kBlueMountain;
    sc.log_seed = seed++;  // avoid the process-wide cache
    sc.project = istc::core::ProjectSpec::continual_stream(
        32, 120, istc::cluster::site_span(sc.site));
    sc.tracer = &tracer;
    const auto run = istc::core::run_scenario(sc);
    benchmark::DoNotOptimize(run.records.size());
    heap_allocs += run.trace.engine_heap_allocations;
  }
  state.counters["queue_heap_allocs"] = benchmark::Counter(
      static_cast<double>(heap_allocs) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ContinualHarvestEventCore)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

}  // namespace
