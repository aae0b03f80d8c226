// Telemetry overhead gate: the Blue Mountain continual co-simulation run
// bare vs. with the full telemetry bundle (RunMetrics + 1-minute sim-time
// sampler, ~121k ticks over the 84-day log).  Reports min-of-reps wall
// milliseconds for both sides, writes BENCH_metrics.json, and exits
// nonzero when the relative overhead exceeds the budget (default 3%,
// override via ISTC_METRICS_OVERHEAD_MAX) — the CI hook that keeps the
// sampler's hook-transparent fast path honest.

#include <chrono>

#include "common.hpp"
#include "metrics/report.hpp"

namespace {

using namespace istc;

struct RepResult {
  double ms = 0.0;
  std::size_t records = 0;
  std::size_t samples = 0;
};

RepResult run_once(std::uint64_t log_seed, bool with_metrics) {
  core::Scenario sc;
  sc.site = cluster::Site::kBlueMountain;
  sc.log_seed = log_seed;  // fresh log: keep the run out of the RunCache
  sc.project = core::ProjectSpec::continual_stream(
      32, 120, cluster::site_span(sc.site));

  metrics::SamplerConfig cfg;
  cfg.interval = 60;  // one tick per sim minute; stop defaults to the span
  metrics::RunMetrics m(cfg);
  if (with_metrics) sc.metrics = &m;

  const auto t0 = std::chrono::steady_clock::now();
  const auto run = core::run_scenario(sc);
  const auto t1 = std::chrono::steady_clock::now();

  RepResult r;
  r.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.records = run.records.size();
  r.samples = m.sampler() != nullptr ? m.sampler()->rows().size() : 0;
  return r;
}

}  // namespace

int main() {
  bench::print_preamble(
      "Telemetry overhead — continual co-simulation, metrics off vs. on",
      "Wall time of the heaviest scenario with a 1-minute sim-time sampler.");

  const int n = bench::reps(5);
  double min_off = 0.0, min_on = 0.0;
  std::size_t records_off = 0, records_on = 0, samples = 0;
  for (int rep = 0; rep < n; ++rep) {
    // Same fresh log seed on both sides of a rep; interleaved so ambient
    // machine load hits off and on runs alike.
    const auto seed = 0xCAFE + static_cast<std::uint64_t>(rep);
    const RepResult off = run_once(seed, /*with_metrics=*/false);
    const RepResult on = run_once(seed, /*with_metrics=*/true);
    min_off = rep == 0 ? off.ms : std::min(min_off, off.ms);
    min_on = rep == 0 ? on.ms : std::min(min_on, on.ms);
    records_off = off.records;
    records_on = on.records;
    samples = on.samples;
    std::printf("rep %d: off %8.1f ms   on %8.1f ms\n", rep, off.ms, on.ms);
  }

  // Sampling must be schedule-neutral; the record counts are the cheap
  // smoke of that here (the byte-level pin lives in the determinism tests).
  bool ok = records_off == records_on;
  if (!ok) {
    std::fprintf(stderr, "FAIL: metrics changed the schedule (%zu vs %zu "
                 "records)\n", records_off, records_on);
  }

  const double overhead = (min_on - min_off) / min_off;
  const double limit = bench::env_number("ISTC_METRICS_OVERHEAD_MAX", 0.03);
  Table t;
  t.headers({"", "metrics off", "metrics on"});
  t.row({"min wall (ms)", Table::num(min_off, 1), Table::num(min_on, 1)});
  t.row({"job records", Table::integer(static_cast<long long>(records_off)),
         Table::integer(static_cast<long long>(records_on))});
  t.row({"sampler rows", "0", Table::integer(static_cast<long long>(samples))});
  t.print();
  std::printf("\noverhead: %+.2f%% (budget %.0f%%)\n", overhead * 100.0,
              limit * 100.0);

  const std::string path = bench::artifact_path("BENCH_metrics.json");
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f,
                 "{\"benchmarks\":[\n"
                 "{\"name\":\"metrics/continual_bluemtn/off\","
                 "\"min_ms\":%.3f,\"records\":%zu},\n"
                 "{\"name\":\"metrics/continual_bluemtn/on_60s\","
                 "\"min_ms\":%.3f,\"records\":%zu,\"samples\":%zu,"
                 "\"overhead\":%.6f,\"overhead_budget\":%.6f}\n"
                 "]}\n",
                 min_off, records_off, min_on, records_on, samples, overhead,
                 limit);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }

  if (overhead > limit) {
    std::fprintf(stderr, "FAIL: telemetry overhead %.2f%% exceeds budget "
                 "%.0f%%\n", overhead * 100.0, limit * 100.0);
    ok = false;
  }
  return ok ? 0 : 1;
}
