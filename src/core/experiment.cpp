#include "core/experiment.hpp"

#include <algorithm>

#include "core/driver.hpp"
#include "core/fork.hpp"
#include "core/run_cache.hpp"
#include "metrics/makespan.hpp"
#include "metrics/report.hpp"
#include "metrics/utilization.hpp"
#include "sched/presets.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/presets.hpp"

namespace istc::core {

using cluster::Site;

sched::RunResult run_scenario(const Scenario& scenario) {
  // SimRun owns the construction order (engine → scheduler → driver →
  // injector → metrics); running straight to the end without forking is
  // the degenerate case.
  SimRun run(scenario);
  return run.finish();
}

const sched::RunResult& native_baseline(Site site) {
  return default_run_cache().native_baseline(site);
}

double native_utilization(Site site) {
  const auto& base = native_baseline(site);
  return metrics::average_utilization(base.records, base.machine.cpus, 0,
                                      base.span, metrics::JobFilter::kAll);
}

const sched::RunResult& continual_run(Site site, int cpus_per_job,
                                      Seconds sec_at_1ghz,
                                      double utilization_cap) {
  return default_run_cache().continual_run(site, cpus_per_job, sec_at_1ghz,
                                           utilization_cap);
}

void clear_experiment_caches() { default_run_cache().clear(); }

std::vector<sched::JobRecord> tile_records(
    std::span<const sched::JobRecord> records, SimTime span, int copies) {
  ISTC_EXPECTS(span > 0);
  ISTC_EXPECTS(copies >= 1);
  std::vector<sched::JobRecord> out;
  out.reserve(records.size() * static_cast<std::size_t>(copies));
  for (int c = 0; c < copies; ++c) {
    const SimTime shift = static_cast<SimTime>(c) * span;
    for (const auto& r : records) {
      sched::JobRecord copy = r;
      copy.job.submit += shift;
      copy.start += shift;
      copy.end += shift;
      out.push_back(copy);
    }
  }
  return out;
}

cluster::DowntimeCalendar tile_calendar(const cluster::DowntimeCalendar& cal,
                                        SimTime span, int copies) {
  ISTC_EXPECTS(span > 0);
  ISTC_EXPECTS(copies >= 1);
  std::vector<cluster::DowntimeWindow> windows;
  for (int c = 0; c < copies; ++c) {
    const SimTime shift = static_cast<SimTime>(c) * span;
    for (const auto& w : cal.windows()) {
      windows.push_back({w.start + shift, w.end + shift});
    }
  }
  return cluster::DowntimeCalendar(std::move(windows));
}

MakespanSample omniscient_makespans(Site site, const ProjectSpec& spec,
                                    int reps, std::uint64_t seed) {
  ISTC_EXPECTS(reps >= 1);
  ISTC_EXPECTS(!spec.continual());

  const sched::RunResult& base = native_baseline(site);
  const SimTime span = base.span;

  // Tile the native environment so projects started late in the log keep
  // meeting native load instead of an artificially empty machine (the
  // paper's larger projects outlast the shorter logs).  The tile shift is
  // the drain time, not the log span: jobs submitted near the span end run
  // past it, and copies must not overlap them (capacity is physical).
  constexpr int kCopies = 4;
  SimTime shift = span;
  for (const auto& r : base.records) shift = std::max(shift, r.end);
  const auto tiled = tile_records(base.records, shift, kCopies);
  const cluster::Machine machine(
      cluster::machine_spec(site),
      tile_calendar(cluster::site_downtime(site), shift, kCopies));
  const FreeCapacity free(tiled, machine);

  MakespanSample sample;
  sample.hours.resize(static_cast<std::size_t>(reps));
  Rng root(seed ^ (static_cast<std::uint64_t>(site) << 32));
  std::vector<SimTime> starts(static_cast<std::size_t>(reps));
  for (auto& s : starts) {
    s = static_cast<SimTime>(root.below(static_cast<std::uint64_t>(span)));
  }
  parallel_for(static_cast<std::size_t>(reps), [&](std::size_t i) {
    const OmniscientResult r =
        pack_omniscient(free, machine, spec, starts[i]);
    sample.hours[i] = to_hours(r.makespan);
  });
  return sample;
}

MakespanSample fallible_makespans(Site site, const ProjectSpec& spec,
                                  int nsamples, std::uint64_t seed) {
  ISTC_EXPECTS(!spec.continual());
  const Seconds sec_at_1ghz = static_cast<Seconds>(
      spec.work_per_cpu / cluster::kGiga);
  const sched::RunResult& run =
      continual_run(site, spec.cpus_per_job, sec_at_1ghz);
  const auto completions = metrics::interstitial_completions(run.records);
  Rng rng(seed ^ (static_cast<std::uint64_t>(site) << 24) ^
          static_cast<std::uint64_t>(spec.total_jobs));
  MakespanSample sample;
  const auto makespans = metrics::sampled_makespans(
      completions, spec.total_jobs, static_cast<std::size_t>(nsamples),
      run.span, rng);
  sample.hours.reserve(makespans.size());
  for (double m : makespans) sample.hours.push_back(m / 3600.0);
  return sample;
}

}  // namespace istc::core
