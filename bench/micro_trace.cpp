// Tracing overhead on the heaviest continual scenario (Blue Pacific,
// 12k-job log, 32-CPU x 120 s @ 1 GHz stream).  The acceptance bar for the
// trace subsystem: full tracing <= 5% wall time over the untraced run.
//
//   ./bench/micro_trace --benchmark_filter=Continual
//
// Compare the variants' wall times directly; they run the identical
// seeded scenario, so all schedule work is equal by construction (the
// determinism tests enforce it).

#include <benchmark/benchmark.h>

#include "core/experiment.hpp"
#include "core/project.hpp"
#include "obs/obs.hpp"
#include "trace/tracer.hpp"

namespace {

using namespace istc;

core::Scenario bluepac_continual(trace::Tracer* tracer) {
  core::Scenario sc;
  sc.site = cluster::Site::kBluePacific;
  sc.project = core::ProjectSpec::continual_stream(
      32, 120, cluster::site_span(cluster::Site::kBluePacific));
  sc.tracer = tracer;
  return sc;
}

void BM_ContinualUntraced(benchmark::State& state) {
  for (auto _ : state) {
    auto run = core::run_scenario(bluepac_continual(nullptr));
    benchmark::DoNotOptimize(run.records.data());
  }
}
BENCHMARK(BM_ContinualUntraced)->Unit(benchmark::kMillisecond);

void BM_ContinualCountersOnly(benchmark::State& state) {
  for (auto _ : state) {
    trace::Tracer tracer(trace::TraceMode::kCountersOnly);
    auto run = core::run_scenario(bluepac_continual(&tracer));
    benchmark::DoNotOptimize(run.trace.sched_pass_us_total);
  }
}
BENCHMARK(BM_ContinualCountersOnly)->Unit(benchmark::kMillisecond);

void BM_ContinualFullTracing(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    // Cap high enough that the whole replay fits (no drop path measured).
    trace::Tracer tracer(trace::TraceMode::kFull, 8u << 20);
    auto run = core::run_scenario(bluepac_continual(&tracer));
    benchmark::DoNotOptimize(run.records.data());
    events = tracer.size();
  }
  state.counters["events"] = static_cast<double>(events);
}
BENCHMARK(BM_ContinualFullTracing)->Unit(benchmark::kMillisecond);

// Wall-clock observability (src/obs) A/B on the same scenario: the span
// recorder fully enabled, no tracer attached.  Compare against
// BM_ContinualUntraced — the obs acceptance bar is <= 3%.
void BM_ContinualObsEnabled(benchmark::State& state) {
  obs::set_enabled(true);
  for (auto _ : state) {
    auto run = core::run_scenario(bluepac_continual(nullptr));
    benchmark::DoNotOptimize(run.records.data());
  }
  obs::set_enabled(false);
  const obs::RecorderStats rec = obs::recorder_stats();
  state.counters["spans"] = static_cast<double>(rec.recorded);
  obs::reset();
}
BENCHMARK(BM_ContinualObsEnabled)->Unit(benchmark::kMillisecond);

}  // namespace
