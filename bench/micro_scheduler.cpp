// Macro-scale benchmarks: full site simulations per iteration, reported in
// wall milliseconds (these dominate every experiment driver's runtime).

#include <benchmark/benchmark.h>

#include "core/experiment.hpp"
#include "core/fork.hpp"
#include "trace/tracer.hpp"

namespace {

using istc::cluster::Site;

void BM_NativeOnlySimulation(benchmark::State& state) {
  const auto site = static_cast<Site>(state.range(0));
  std::uint64_t seed = 100;
  for (auto _ : state) {
    istc::core::Scenario sc;
    sc.site = site;
    sc.log_seed = seed++;  // avoid the process-wide cache
    const auto run = istc::core::run_scenario(sc);
    benchmark::DoNotOptimize(run.records.size());
  }
}
BENCHMARK(BM_NativeOnlySimulation)
    ->Arg(static_cast<int>(Site::kRoss))
    ->Arg(static_cast<int>(Site::kBlueMountain))
    ->Arg(static_cast<int>(Site::kBluePacific))
    ->Unit(benchmark::kMillisecond);

void BM_ContinualCoSimulation(benchmark::State& state) {
  // The heaviest scenario class: a full continual co-simulation, hundreds
  // of thousands of interstitial jobs.
  std::uint64_t seed = 200;
  for (auto _ : state) {
    istc::core::Scenario sc;
    sc.site = Site::kBlueMountain;
    sc.log_seed = seed++;
    sc.project = istc::core::ProjectSpec::continual_stream(
        32, 120, istc::cluster::site_span(sc.site));
    const auto run = istc::core::run_scenario(sc);
    benchmark::DoNotOptimize(run.records.size());
  }
}
BENCHMARK(BM_ContinualCoSimulation)->Unit(benchmark::kMillisecond)
    ->Iterations(3);

// Scheduler pass cost on the heaviest pass workload, the continual
// co-simulation, per site: Blue Mountain backfills EASY (one reservation
// per blocked pass), Ross conservatively (one per waiter).  `pass_us` is
// the scheduler's share — wall ms also includes event-queue and
// workload-generation time — and `replayed` counts the passes that
// replayed the previous full pass's verdicts instead of walking the queue.
void BM_ContinualPassWorkload(benchmark::State& state) {
  const auto site = static_cast<Site>(state.range(0));
  std::uint64_t seed = 300;
  std::uint64_t pass_us = 0;
  std::uint64_t passes = 0;
  std::uint64_t replayed = 0;
  for (auto _ : state) {
    istc::trace::Tracer tracer(istc::trace::TraceMode::kCountersOnly);
    istc::core::Scenario sc;
    sc.site = site;
    sc.log_seed = seed++;
    sc.project = istc::core::ProjectSpec::continual_stream(
        32, 120, istc::cluster::site_span(sc.site));
    sc.tracer = &tracer;
    istc::core::SimRun run(sc);
    const auto result = run.finish();
    benchmark::DoNotOptimize(result.records.size());
    pass_us += result.trace.sched_pass_us_total;
    passes += result.trace.sched_passes;
    replayed += run.scheduler().stats().replayed_passes;
  }
  const auto per_iteration = [&](std::uint64_t total) {
    return benchmark::Counter(static_cast<double>(total) /
                              static_cast<double>(state.iterations()));
  };
  state.counters["pass_us"] = per_iteration(pass_us);
  state.counters["passes"] = per_iteration(passes);
  state.counters["replayed"] = per_iteration(replayed);
}
BENCHMARK(BM_ContinualPassWorkload)
    ->Arg(static_cast<int>(Site::kBlueMountain))
    ->Arg(static_cast<int>(Site::kRoss))
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_OmniscientPack(benchmark::State& state) {
  const auto spec = istc::core::ProjectSpec::paper(
      static_cast<std::size_t>(state.range(0)), 32, 120);
  int rep = 0;
  for (auto _ : state) {
    const auto s = istc::core::omniscient_makespans(
        Site::kBlueMountain, spec, 1,
        0xBEEF + static_cast<std::uint64_t>(rep++));
    benchmark::DoNotOptimize(s.hours.size());
  }
}
BENCHMARK(BM_OmniscientPack)->Arg(2000)->Arg(32000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
