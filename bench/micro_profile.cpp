// Microbenchmarks of the ResourceProfile (the backfill hot path).

#include <benchmark/benchmark.h>

#include "sched/resource_profile.hpp"
#include "util/rng.hpp"

namespace {

using istc::Rng;
using istc::SimTime;
using istc::sched::ResourceProfile;

ResourceProfile busy_profile(int segments, Rng& rng) {
  ResourceProfile p(0, 4096);
  for (int i = 0; i < segments; ++i) {
    const SimTime start = rng.range(0, 500000);
    const auto dur = rng.range(60, 7200);
    const int cpus = static_cast<int>(rng.range(1, 256));
    if (p.min_free(start, start + dur) >= cpus) {
      p.reserve(start, start + dur, cpus);
    }
  }
  return p;
}

void BM_ProfileEarliestFit(benchmark::State& state) {
  Rng rng(1);
  const auto p = busy_profile(static_cast<int>(state.range(0)), rng);
  Rng qrng(2);
  for (auto _ : state) {
    const int cpus = static_cast<int>(qrng.range(1, 2048));
    const auto t = p.earliest_fit(cpus, qrng.range(60, 3600), 0);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_ProfileEarliestFit)->Arg(100)->Arg(1000);

void BM_ProfileReserveRelease(benchmark::State& state) {
  Rng rng(3);
  auto p = busy_profile(500, rng);
  Rng qrng(4);
  for (auto _ : state) {
    const int cpus = static_cast<int>(qrng.range(1, 128));
    const auto dur = qrng.range(60, 3600);
    const SimTime t = p.earliest_fit(cpus, dur, 0);
    p.reserve(t, t + dur, cpus);
    p.release(t, t + dur, cpus);
  }
}
BENCHMARK(BM_ProfileReserveRelease);

// The incremental path's per-pass cost: advancing the origin through a busy
// profile in coarse steps (history chop + re-anchor), vs. BM_ProfileRebuild
// below, the old path's per-pass cost.
void BM_ProfileAdvanceOrigin(benchmark::State& state) {
  Rng rng(7);
  const auto base = busy_profile(static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    ResourceProfile p = base;
    for (SimTime t = 0; t <= 500000; t += 10000) p.advance_origin(t);
    benchmark::DoNotOptimize(p.steps());
  }
}
BENCHMARK(BM_ProfileAdvanceOrigin)->Arg(100)->Arg(1000);

// The old per-pass construction: reconstruct the profile from `running`
// jobs' estimated remainders, every pass.
void BM_ProfileRebuild(benchmark::State& state) {
  const int running = static_cast<int>(state.range(0));
  const int cpus_each = 4096 / running;
  Rng rng(8);
  std::vector<SimTime> ends;
  ends.reserve(static_cast<std::size_t>(running));
  for (int i = 0; i < running; ++i) ends.push_back(rng.range(60, 500000));
  for (auto _ : state) {
    ResourceProfile p(0, 4096);
    for (const SimTime end : ends) p.reserve(0, end, cpus_each);
    benchmark::DoNotOptimize(p.steps());
  }
}
BENCHMARK(BM_ProfileRebuild)->Arg(64)->Arg(512);

// Window scan at a short (one-hour) and a long (quarter-span) window; the
// long one covers many breakpoints, the regime the omniscient packer
// queries in.
void BM_ProfileMinFree(benchmark::State& state) {
  Rng rng(5);
  const auto p = busy_profile(1000, rng);
  const SimTime window = state.range(0);
  Rng qrng(6);
  for (auto _ : state) {
    const SimTime a = qrng.range(0, 400000);
    benchmark::DoNotOptimize(p.min_free(a, a + window));
  }
}
BENCHMARK(BM_ProfileMinFree)->Arg(3600)->Arg(120000);

}  // namespace
