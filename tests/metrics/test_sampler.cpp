// SimSampler + RunMetrics: the sim-time probe series is deterministic
// (equal-seed runs serialize to byte-identical RunReports), the tick grid
// covers [start+interval .. stop] with a final partial tick, the probed
// CPU-state columns always partition the machine's capacity — including
// under unplanned failures — the Scenario::metrics wiring feeds the
// sampler and the dispatch hook from a real site run, whose sampled
// busy-CPU seconds reproduce the Fig. 4 utilization series interval by
// interval, and a RunReport's counters are its RunResult's job counts and
// summary fields.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/driver.hpp"
#include "core/experiment.hpp"
#include "fault/fault.hpp"
#include "metrics/report.hpp"
#include "metrics/sampler.hpp"
#include "metrics/utilization.hpp"
#include "sim/engine.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "util/rng.hpp"

namespace istc::metrics {
namespace {

constexpr SimTime kSpan = 4000;

cluster::Machine machine_of(int cpus) {
  return cluster::Machine({.name = "sampler-mini", .site = "",
                           .queue_system = "", .cpus = cpus,
                           .clock_ghz = 1.0},
                          {});
}

std::vector<workload::Job> random_natives(std::uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<workload::Job> jobs;
  SimTime submit = 0;
  for (int i = 0; i < count; ++i) {
    submit += static_cast<SimTime>(rng.below(60));
    workload::Job j;
    j.id = static_cast<workload::JobId>(i);
    j.submit = submit;
    j.cpus = 1 + static_cast<int>(rng.below(12));
    j.runtime = 30 + static_cast<Seconds>(rng.below(300));
    j.estimate = j.runtime * (1 + static_cast<Seconds>(rng.below(3)));
    jobs.push_back(j);
  }
  return jobs;
}

/// Miniature with native churn, a continual interstitial stream, and
/// (optionally) crash + node faults and a tracer; RunMetrics attached
/// before the run.
sched::RunResult run_miniature(std::uint64_t seed, RunMetrics& metrics,
                               bool with_faults = false,
                               trace::Tracer* tracer = nullptr) {
  sim::Engine eng;
  cluster::Machine machine = machine_of(24);
  sched::BatchScheduler s(eng, machine, {});
  if (tracer != nullptr) s.set_tracer(tracer);
  for (const auto& j : random_natives(seed, 60)) s.submit(j);
  core::ProjectSpec spec = core::ProjectSpec::continual_stream(4, 60, kSpan);
  spec.fault_retry.max_retries = 2;
  spec.fault_retry.backoff = 15;
  spec.fault_retry.checkpoint_interval = 25;
  core::InterstitialDriver driver(s, spec, 2000);
  fault::FaultSpec faults;
  std::optional<fault::FaultInjector> injector;
  if (with_faults) {
    faults.seed = seed;
    faults.crash_mtbf = 1200;
    faults.crash_repair = 150;
    faults.node_mtbf = 500;
    faults.node_cpus = 7;
    faults.node_repair = 120;
    faults.stop = kSpan;
    injector.emplace(s, faults);
  }
  metrics.attach(eng, s, kSpan);
  eng.run();
  return s.take_result(kSpan);
}

std::string report_of(std::uint64_t seed, Seconds interval,
                      bool with_faults = false) {
  SamplerConfig cfg;
  cfg.interval = interval;
  RunMetrics m(cfg);
  const auto run = run_miniature(seed, m, with_faults);
  std::ostringstream out;
  // Wall-clock section off: this is the deterministic document.
  write_run_report(out, run, m, {.include_wall_clock = false});
  return out.str();
}

TEST(SimSampler, EqualSeedRunsProduceByteIdenticalReports) {
  const std::string a = report_of(42, 60);
  const std::string b = report_of(42, 60);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, report_of(43, 60));
  // The document carries the sections the schema names: the v2 header
  // with its v1 compat marker, the new per-machine section, and every
  // retained v1 section.
  for (const char* needle :
       {"\"schema\": \"istc.run_report.v2\"",
        "\"compat\": [\"istc.run_report.v1\"]", "\"machines\"",
        "\"counters\"", "\"histograms\"", "\"series\"",
        "\"native_wait_s\""}) {
    EXPECT_NE(a.find(needle), std::string::npos) << needle;
  }
  EXPECT_EQ(a.find("\"wall_clock\""), std::string::npos);
}

TEST(SimSampler, TickGridCoversStartToStopWithFinalPartialTick) {
  // 4000 / 150 leaves a remainder: ticks at 150, 300, ..., 3900, then a
  // final partial tick exactly at stop.
  SamplerConfig cfg;
  cfg.interval = 150;
  RunMetrics m(cfg);
  run_miniature(7, m);
  const SimSampler* s = m.sampler();
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->rows().size(), 27u);
  EXPECT_EQ(s->rows().front()[0], 150);
  EXPECT_EQ(s->rows()[25][0], 3900);
  EXPECT_EQ(s->rows().back()[0], kSpan);
  EXPECT_EQ(s->dropped(), 0u);
}

TEST(SimSampler, RowCapCountsDroppedTicks) {
  SamplerConfig cfg;
  cfg.interval = 100;
  cfg.max_samples = 10;
  RunMetrics m(cfg);
  run_miniature(7, m);
  const SimSampler* s = m.sampler();
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->rows().size(), 10u);
  // 4000/100 grid = 40 ticks; 30 past the cap.
  EXPECT_EQ(s->dropped(), 30u);
}

TEST(SimSampler, ProbedCpuStatesPartitionCapacityUnderFaults) {
  // Every tick: busy_native + busy_interstitial + free + offline must
  // equal the machine's capacity, even while crashes and node failures
  // are taking slices of the machine up and down.
  SamplerConfig cfg;
  cfg.interval = 20;
  RunMetrics m(cfg);
  const auto run = run_miniature(42, m, /*with_faults=*/true);
  ASSERT_GT(run.killed.size(), 0u);  // the faults actually bit
  const SimSampler* s = m.sampler();
  ASSERT_NE(s, nullptr);
  ASSERT_GT(s->rows().size(), 0u);
  bool saw_offline = false;
  for (const auto& row : s->rows()) {
    EXPECT_EQ(row[1] + row[2] + row[3] + row[4], 24) << "t=" << row[0];
    EXPECT_GE(row[1], 0);
    EXPECT_GE(row[2], 0);
    EXPECT_GE(row[3], 0);
    EXPECT_GE(row[4], 0);
    saw_offline = saw_offline || row[4] > 0;
  }
  EXPECT_TRUE(saw_offline);
}

TEST(SimSampler, CpuSecDeltasSumToRecordCpuSeconds) {
  // Kill-free miniature: the per-interval busy-CPU-second deltas must sum
  // to exactly the CPU-seconds of all completed records clipped to the
  // span.
  SamplerConfig cfg;
  cfg.interval = 60;
  RunMetrics m(cfg);
  const auto run = run_miniature(42, m);
  ASSERT_EQ(run.killed.size(), 0u);
  ASSERT_NE(m.sampler(), nullptr);
  std::int64_t sampled = 0;
  for (const auto& row : m.sampler()->rows()) sampled += row[12] + row[13];
  std::int64_t from_records = 0;
  for (const auto& r : run.records) {
    const SimTime end = std::min(r.end, kSpan);
    if (end > r.start) from_records += r.job.cpus * (end - r.start);
  }
  EXPECT_EQ(sampled, from_records);
}

TEST(RunMetrics, ScenarioWiringFeedsSamplerAndDispatchHook) {
  // The run_scenario integration path: Scenario::metrics attaches the
  // sampler and the start hook to a real site run.
  SamplerConfig cfg;
  cfg.interval = 6 * kSecondsPerHour;
  RunMetrics m(cfg);
  core::Scenario sc;
  sc.site = cluster::Site::kRoss;
  sc.project = core::ProjectSpec::paper(200, 32, 120);
  sc.metrics = &m;
  const auto run = core::run_scenario(sc);
  core::clear_experiment_caches();

  const SimSampler* s = m.sampler();
  ASSERT_NE(s, nullptr);
  // Stop defaulted to the site span: final tick exactly at span.
  EXPECT_EQ(s->rows().back()[0], cluster::site_span(sc.site));
  // One interstice width per interstitial start; nothing kills them here.
  ASSERT_EQ(run.killed.size(), 0u);
  EXPECT_EQ(run.interstitial_count(), 200u);
  EXPECT_EQ(m.interstice_cpus_at_dispatch().total(), 200u);
  // Kill-free, so each interval's busy-CPU-second deltas (native +
  // interstitial) are the record-overlap numerator of the same bucket of
  // utilization_series, the Fig. 4 series; the partial final interval
  // matches the clipped final bucket.
  const auto series = utilization_series(run.records, run.machine.cpus,
                                         run.span, cfg.interval);
  ASSERT_EQ(s->rows().size(), series.size());
  const double capacity = static_cast<double>(run.machine.cpus) *
                          static_cast<double>(cfg.interval);
  for (std::size_t k = 0; k < series.size(); ++k) {
    const auto& row = s->rows()[k];
    EXPECT_EQ(row[12] + row[13], std::llround(series[k] * capacity))
        << "interval " << k;
  }
}

using Counter = std::pair<std::string, std::uint64_t>;

/// The members of the report's top-level object `key`, one `"name": value`
/// line each, in document order.
std::vector<Counter> report_section(const std::string& doc,
                                    const std::string& key) {
  std::vector<Counter> out;
  const std::size_t at = doc.find("\n  \"" + key + "\": {\n");
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return out;
  std::istringstream in(doc.substr(at + 1));
  std::string line;
  std::getline(in, line);  // the key's own line
  while (std::getline(in, line) && line.rfind("    \"", 0) == 0) {
    const std::size_t colon = line.find("\": ");
    out.emplace_back(line.substr(5, colon - 5),
                     std::stoull(line.substr(colon + 3)));
  }
  return out;
}

TEST(RunReport, CountersAreTheSummaryFields) {
  // Reported with a fresh RunMetrics that never saw the run, so every
  // counter comes from the RunResult: the job counts, then each
  // deterministic summary_fields() row in order; wall_clock is each
  // wall-clock row in order.
  trace::Tracer tracer(trace::TraceMode::kCountersOnly);
  RunMetrics attached;
  const auto run = run_miniature(42, attached, /*with_faults=*/true, &tracer);
  ASSERT_GT(run.native_count(), 0u);
  ASSERT_GT(run.killed.size(), 0u);
  std::ostringstream out;
  write_run_report(out, run, RunMetrics{});
  const std::string doc = out.str();

  std::vector<Counter> counters = {
      {"jobs_native_completed", run.native_count()},
      {"jobs_interstitial_completed", run.interstitial_count()},
      {"jobs_killed", run.killed.size()}};
  std::vector<Counter> wall_clock;
  for (const auto& f : trace::summary_fields(run.trace)) {
    (f.wall_clock ? wall_clock : counters).emplace_back(f.name, f.value);
  }
  ASSERT_FALSE(wall_clock.empty());
  EXPECT_EQ(report_section(doc, "counters"), counters);
  EXPECT_EQ(report_section(doc, "wall_clock"), wall_clock);
  EXPECT_NE(doc.find("{\"name\": \"native_wait_s\", \"count\": " +
                     std::to_string(run.native_count()) + ","),
            std::string::npos);
}

}  // namespace
}  // namespace istc::metrics
