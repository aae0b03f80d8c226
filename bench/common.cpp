#include "common.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>

#include "core/fork.hpp"
#include "core/sweep.hpp"
#include "metrics/waits.hpp"
#include "trace/export.hpp"
#include "util/thread_pool.hpp"

namespace istc::bench {

void print_preamble(const char* artifact, const char* description) {
  // Benches take the pool width from the environment (the CLI uses
  // --threads); either way the effective count lands in the header so a
  // saved log pins the parallelism it ran with.
  const char* env = std::getenv("ISTC_THREADS");
  if (env && env[0] != '\0') {
    const long n = std::atol(env);
    if (n > 0) set_default_thread_count(static_cast<std::size_t>(n));
  }
  std::printf("==============================================================\n");
  std::printf("%s\n", artifact);
  std::printf("%s\n", description);
  std::printf("Workload: synthetic logs calibrated to the paper's Table 1\n");
  std::printf("(shape reproduction; absolute values differ — EXPERIMENTS.md)\n");
  std::printf("Threads: %zu (ISTC_THREADS or hardware)\n",
              default_thread_count());
  const auto pool = ThreadPool::global_stats();
  std::printf("Pool: %llu tasks executed, queue hwm %zu, busy hwm %zu "
              "(process-lifetime)\n",
              static_cast<unsigned long long>(pool.tasks_executed),
              pool.queue_hwm, pool.busy_hwm);
  std::printf("==============================================================\n\n");
}

void print_pool_stats(const char* when) {
  const auto pool = ThreadPool::global_stats();
  std::printf("pool stats (%s): %llu submitted, %llu executed, "
              "queue hwm %zu, busy hwm %zu, %llu pools\n",
              when, static_cast<unsigned long long>(pool.tasks_submitted),
              static_cast<unsigned long long>(pool.tasks_executed),
              pool.queue_hwm, pool.busy_hwm,
              static_cast<unsigned long long>(pool.pools_created));
}

std::string artifact_path(const char* filename) {
  const char* env = std::getenv("ISTC_OUT_DIR");
  const std::filesystem::path dir = (env && env[0] != '\0') ? env : "build";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort; open reports
  return (dir / filename).string();
}

std::string makespan_cell(const core::MakespanSample& sample) {
  if (!sample.feasible()) return "n/a*";
  const Summary s = sample.summary();
  return Table::pm(s.mean(), s.stddev(), 1);
}

bool quick() {
  const char* env = std::getenv("ISTC_QUICK");
  return env != nullptr && env[0] == '1';
}

int reps(int full) { return quick() ? std::max(2, full / 10) : full; }

double env_number(const char* name, double fallback) {
  const char* env = std::getenv(name);
  return (env != nullptr && env[0] != '\0') ? std::atof(env) : fallback;
}

std::string kjobs_label(std::size_t jobs) {
  char buf[32];
  if (jobs % 1000 == 0) {
    std::snprintf(buf, sizeof buf, "%zuk", jobs / 1000);
  } else {
    std::snprintf(buf, sizeof buf, "%.2gk",
                  static_cast<double>(jobs) / 1000.0);
  }
  return buf;
}

std::string median_waits_cell(std::span<const sched::JobRecord> records) {
  const auto all = metrics::wait_stats(records);
  const auto big = metrics::wait_stats(metrics::largest_native(records, 0.05));
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1fk / %.1fk", all.median_wait_s / 1000.0,
                big.median_wait_s / 1000.0);
  return buf;
}

double overall_util(const sched::RunResult& run) {
  return metrics::average_utilization(run.records, run.machine.cpus, 0,
                                      run.span, metrics::JobFilter::kAll);
}

double native_util_of(const sched::RunResult& run) {
  return metrics::average_utilization(run.records, run.machine.cpus, 0,
                                      run.span,
                                      metrics::JobFilter::kNativeOnly);
}

bool same_run(const sched::RunResult& a, const sched::RunResult& b) {
  const auto same = [](const sched::JobRecord& x, const sched::JobRecord& y) {
    return x.job.id == y.job.id && x.job.cpus == y.job.cpus &&
           x.start == y.start && x.end == y.end;
  };
  return a.sim_end == b.sim_end &&
         std::equal(a.records.begin(), a.records.end(), b.records.begin(),
                    b.records.end(), same) &&
         std::equal(a.killed.begin(), a.killed.end(), b.killed.begin(),
                    b.killed.end(), same);
}

void print_wait_decades(const Log10Histogram (&scenarios)[3]) {
  Table t;
  t.headers({"log10 wait (s)", "no interstitial", "32CPU x 458s",
             "32CPU x 3664s"});
  for (std::size_t d = 0; d < scenarios[0].decades(); ++d) {
    std::vector<std::string> row{Log10Histogram::bin_label(d)};
    for (const auto& h : scenarios) row.push_back(Table::num(h.fraction(d), 3));
    t.row(row);
  }
  t.print();
}

WaitCells wait_cells(std::span<const sched::JobRecord> records) {
  const auto all = metrics::wait_stats(records);
  const auto big = metrics::wait_stats(metrics::largest_native(records, 0.05));
  WaitCells c;
  c.median = Table::num(all.median_wait_s, 0);
  c.avg = Table::num(all.avg_wait_s, 0);
  c.largest5 = Table::num(big.median_wait_s, 0);
  c.median_ef = Table::num(all.median_ef, 2);
  c.avg_ef = Table::num(all.avg_ef, 1);
  return c;
}

core::Scenario bluemtn_scenario(int cpus_per_job, Seconds sec_at_1ghz) {
  core::Scenario sc;
  sc.site = cluster::Site::kBlueMountain;
  if (cpus_per_job > 0) {
    sc.project = core::ProjectSpec::continual_stream(
        cpus_per_job, sec_at_1ghz, cluster::site_span(sc.site));
  }
  return sc;
}

std::vector<sched::RunResult> run_scenarios(
    const std::vector<core::Scenario>& scenarios) {
  core::SweepRunner<core::SimRun> sweep(
      scenarios.size(), [&](std::size_t i) {
        return std::make_unique<core::SimRun>(scenarios[i]);
      });
  return sweep.run_scratch(
      0, [](core::SimRun& run, std::size_t) { return run.finish(); });
}

void print_continual_table(cluster::Site site, Seconds short_1ghz,
                           Seconds long_1ghz) {
  const auto& base = core::native_baseline(site);
  const auto& s_run = core::continual_run(site, 32, short_1ghz);
  const auto& l_run = core::continual_run(site, 32, long_1ghz);
  const auto spec_s = core::ProjectSpec::continual_stream(32, short_1ghz, 1);
  const auto spec_l = core::ProjectSpec::continual_stream(32, long_1ghz, 1);
  const Seconds rs = spec_s.runtime_on(base.machine);
  const Seconds rl = spec_l.runtime_on(base.machine);

  char h_short[48], h_long[48];
  std::snprintf(h_short, sizeof h_short, "32CPU x %lds",
                static_cast<long>(rs));
  std::snprintf(h_long, sizeof h_long, "32CPU x %lds",
                static_cast<long>(rl));

  Table t;
  t.headers({"", "Native Jobs", h_short, h_long});
  t.row({"Interstitial jobs", "0",
         Table::integer(static_cast<long long>(s_run.interstitial_count())),
         Table::integer(static_cast<long long>(l_run.interstitial_count()))});
  t.row({"Native jobs",
         Table::integer(static_cast<long long>(base.native_count())),
         Table::integer(static_cast<long long>(s_run.native_count())),
         Table::integer(static_cast<long long>(l_run.native_count()))});
  t.row({"Overall Util", Table::num(overall_util(base), 3),
         Table::num(overall_util(s_run), 3),
         Table::num(overall_util(l_run), 3)});
  t.row({"Native Util", Table::num(native_util_of(base), 3),
         Table::num(native_util_of(s_run), 3),
         Table::num(native_util_of(l_run), 3)});
  t.row({"Median wait (ks) all / 5% largest",
         median_waits_cell(base.records), median_waits_cell(s_run.records),
         median_waits_cell(l_run.records)});
  t.print();

  std::printf("\n");
  char title[64];
  std::snprintf(title, sizeof title, "scheduling cost (%s stream)", h_short);
  trace::print_counters(title, s_run.trace);
}

}  // namespace istc::bench
