#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/project.hpp"
#include "core/theory.hpp"
#include "metrics/utilization.hpp"
#include "metrics/waits.hpp"
#include "util/table.hpp"

/// \file common.hpp
/// Shared plumbing for the experiment drivers (one binary per paper table
/// or figure).  Each driver prints the rows/series the paper reports, from
/// the calibrated synthetic logs; absolute numbers therefore differ from
/// the paper, the shape is what must match (see EXPERIMENTS.md).

namespace istc::bench {

/// Standard header for every experiment binary.
void print_preamble(const char* artifact, const char* description);

/// One-line ThreadPool saturation summary (process-lifetime global
/// gauges): submitted/executed tasks, queue and busy high-water marks.
/// Print after a parallel phase so saved logs pin how hard the pool ran.
void print_pool_stats(const char* when);

/// Where experiment drivers write plot data (CSV etc.): `ISTC_OUT_DIR` if
/// set, else `build/`, created on demand.  Keeps run-from-repo-root
/// invocations from littering the source tree with artifacts.
std::string artifact_path(const char* filename);

/// "12.3 ± 4.5" in hours, or the paper's "n/a*" for infeasible cells.
std::string makespan_cell(const core::MakespanSample& sample);

/// True when `ISTC_QUICK` starts with '1': drivers shrink their work to
/// keep CI fast without changing defaults.
bool quick();

/// Number of replications for Monte-Carlo experiments; the paper uses 20
/// random starts (Table 2) and 500 samples (Table 4); a tenth (at least
/// two) under quick().
int reps(int full);

/// A numeric override from the environment (a gate's floor or budget):
/// the variable's value, or `fallback` when it is unset or empty.
double env_number(const char* name, double fallback);

/// "2k" / "¼k" style job-count label used by the paper's tables.
std::string kjobs_label(std::size_t jobs);

/// Median wait summary "all / largest-5%" in the paper's "0.2k / 4.4k"
/// kiloseconds style.
std::string median_waits_cell(std::span<const sched::JobRecord> records);

/// Utilization over [0, span) for a run.
double overall_util(const sched::RunResult& run);
double native_util_of(const sched::RunResult& run);

/// Exact schedule equality, the fork == scratch gates' predicate: the same
/// sim_end, then every completed and every killed record equal in order by
/// job id, CPUs, start and end.
bool same_run(const sched::RunResult& a, const sched::RunResult& b);

/// The Figs. 5-6 table: one row per log10(seconds) wait decade, one column
/// per scenario (no interstitial, 32CPU x 458s, 32CPU x 3664s), each cell
/// the fraction of that scenario's native jobs in the decade.
void print_wait_decades(const Log10Histogram (&scenarios)[3]);

/// Wait-statistic cells shared by the ablation/comparator tables: waits in
/// whole seconds, expansion factors with the papers' precision.  Computed
/// in one wait_stats pass per field group.
struct WaitCells {
  std::string median;     ///< median wait (s)
  std::string avg;        ///< average wait (s)
  std::string largest5;   ///< largest-5% median wait (s)
  std::string median_ef;  ///< median expansion factor
  std::string avg_ef;     ///< average expansion factor
};
WaitCells wait_cells(std::span<const sched::JobRecord> records);

/// The Blue Mountain scenario every ablation driver perturbs: site set,
/// and (when cpus_per_job > 0) a continual `cpus_per_job` x `sec_at_1ghz`
/// stream attached.  Pass cpus_per_job = 0 for the native-only variant.
core::Scenario bluemtn_scenario(int cpus_per_job = 0, Seconds sec_at_1ghz = 0);

/// Run a family of scenario variants through the fork-tree sweep engine
/// (core::SweepRunner) in scratch mode — variants that differ from t = 0
/// cannot share a prefix — returning results in point order regardless of
/// thread count.  Replaces the hand-rolled run_with()/parallel_for loops
/// the ablation and sensitivity drivers used to copy.
std::vector<sched::RunResult> run_scenarios(
    const std::vector<core::Scenario>& scenarios);

/// The shared body of Tables 6, 7 and 8: continual interstitial computing
/// on one machine with two job lengths (seconds @ 1 GHz).
void print_continual_table(cluster::Site site, Seconds short_1ghz,
                           Seconds long_1ghz);

}  // namespace istc::bench
