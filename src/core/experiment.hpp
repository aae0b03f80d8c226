#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/presets.hpp"
#include "core/omniscient.hpp"
#include "core/project.hpp"
#include "fault/fault.hpp"
#include "sched/record.hpp"
#include "trace/tracer.hpp"
#include "util/stats.hpp"

/// \file experiment.hpp
/// The experiment runner: builds a site (machine + policy + synthetic log),
/// runs native-only and with-interstitial scenarios, and provides the
/// replication machinery (random project starts, omniscient packing,
/// continual-sampling) behind every table and figure of the paper.
///
/// Replications run in parallel on a thread pool; each replication forks
/// its own RNG stream keyed by the replication index, so results are
/// independent of thread count.

namespace istc::metrics {
class RunMetrics;  // metrics/report.hpp
}

namespace istc::sched {
enum class BackfillMode : std::uint8_t;  // sched/scheduler.hpp
}

namespace istc::core {

/// One simulation setup.
struct Scenario {
  cluster::Site site = cluster::Site::kBlueMountain;
  /// Interstitial project / stream; nullopt = native-only run.
  std::optional<ProjectSpec> project;
  /// Seed for the synthetic native log; 0 = the canonical per-site log
  /// (the fixed trace every experiment replays, like the paper's logs).
  std::uint64_t log_seed = 0;
  /// Ablation knob: replace every user estimate with the true runtime.
  bool perfect_estimates = false;
  /// Comparator knobs (§4.3.2): scale native runtimes / widths to raise
  /// utilization the "longer or larger jobs" way instead of interstitially.
  double native_time_factor = 1.0;
  double native_size_factor = 1.0;
  /// Extension: natives evict running interstitial jobs instead of waiting
  /// (sched::PolicySpec::preempt_interstitial).
  bool preempt_interstitial = false;
  /// Ablation knob: override the site policy's backfill discipline
  /// (sched::PolicySpec::backfill); nullopt keeps the site default.
  std::optional<sched::BackfillMode> backfill;
  /// Unplanned failures (crashes + node outages); the default is inert and
  /// fault-free runs are bit-identical to pre-fault builds.  An enabled
  /// spec has its stop clamped to the site span, and the run stays
  /// deterministic per (scenario, faults.seed).
  fault::FaultSpec faults;
  /// Observability: when set, the scheduler, driver and fault injector
  /// record into this tracer (the scheduler folds the engine's counts in)
  /// and the RunResult carries its TraceSummary.  Not owned; must outlive
  /// the call.  Tracing never perturbs the schedule.
  trace::Tracer* tracer = nullptr;
  /// Telemetry: when set, run_scenario attaches the RunMetrics (start hook
  /// + optional sim-time sampler) before the run.  Not owned; must outlive
  /// the call.  With sampling disabled the run is bit-identical to an
  /// unmetered one; with it enabled, sample events are hook-transparent,
  /// so the schedule still is (pinned by tests/metrics/test_sampler.cpp).
  metrics::RunMetrics* metrics = nullptr;
};

/// Run a scenario to completion and collect all records.
sched::RunResult run_scenario(const Scenario& scenario);

/// Native-only run of the canonical site log, cached in the process-wide
/// RunCache (default_run_cache(); every comparison experiment shares it,
/// exactly as the paper reuses one log per machine).
const sched::RunResult& native_baseline(cluster::Site site);

/// Average native utilization of the baseline over [0, span), including
/// outages — the measured analogue of Table 1's "Utilization".
double native_utilization(cluster::Site site);

/// Replicated makespans, mean/std in hours.
struct MakespanSample {
  std::vector<double> hours;  ///< per-replication makespans
  Summary summary() const { return Summary(hours); }
  bool feasible() const { return !hours.empty(); }
};

/// Table 2: omniscient makespans of `spec` at `reps` uniformly random
/// project starts within the (tiled) native log.
MakespanSample omniscient_makespans(cluster::Site site,
                                    const ProjectSpec& spec, int reps,
                                    std::uint64_t seed = 0x7AB1E2);

/// §4.3.1 continual-sampling: run one continual stream of the project's
/// job shape, then sample `nsamples` random project start times.
/// The continual run is cached per (site, cpus, work) so the eight Table 4
/// rows on a machine share two underlying simulations.
MakespanSample fallible_makespans(cluster::Site site, const ProjectSpec& spec,
                                  int nsamples, std::uint64_t seed = 0xFA111B);

/// Cached continual co-simulation for a job shape (32 CPU x 458 s etc.):
/// the Table 5-8 scenarios.  utilization_cap keys the cache too.
const sched::RunResult& continual_run(cluster::Site site, int cpus_per_job,
                                      Seconds sec_at_1ghz,
                                      double utilization_cap = 1.0);

/// Tile a record set k times along the time axis (the native environment
/// repeated, used to let large projects run past the end of one log pass —
/// the paper's biggest projects exceed the shortest logs).
std::vector<sched::JobRecord> tile_records(
    std::span<const sched::JobRecord> records, SimTime span, int copies);

/// Tile a downtime calendar along with the records.
cluster::DowntimeCalendar tile_calendar(const cluster::DowntimeCalendar& cal,
                                        SimTime span, int copies);

/// Drop the process-wide default RunCache (tests use this to bound memory).
void clear_experiment_caches();

}  // namespace istc::core
