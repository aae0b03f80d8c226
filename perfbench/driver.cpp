// perfbench — the measuring half of perfbench/run.py.
//
// Each subcommand runs one piece of a benchmark workload against the
// library's public API and prints one JSON object of raw measurements
// (sample arrays, counters, check verdicts) on stdout.  run.py turns them
// into metrics, so the percentile rule lives in one place (benchlib.py).
// Nothing here reaches inside src/: every time is the benchmark timing its
// own call into a layer, and every count is an accessor the layer already
// exposes.
//
//   perfbench harvest --seed N --seconds S [--trace 1]
//   perfbench fleet   --seed N --seconds S [--trace 1]
//   perfbench load    --seed N --socket PATH --query-rate Q --seconds S
//                     [--trace 1] [--check 1]
//   perfbench service --seed N --seconds S
//
// `load` is the whatif_mixed open-loop generator: one thread, one ingest
// connection plus query connections, never more connections than the host
// has CPUs.  `service` replays the same request stream in-process through
// Session::handle_line for the service layer's own timings.

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/fork.hpp"
#include "grid/fleet.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "service/tail_run.hpp"
#include "trace/tracer.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/presets.hpp"
#include "workload/swf.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace istc;
using Clock = std::chrono::steady_clock;

constexpr SimTime kHour = kSecondsPerHour;
constexpr SimTime kDay = 24 * kHour;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double s_since(Clock::time_point t0) { return ms_since(t0) / 1000.0; }

/// splitmix64: one well-mixed value per (seed, stream) pair, so every
/// input the benchmark generates is a pure function of --seed.  Never 0,
/// because log_seed 0 selects a site's canonical log.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) | 1;
}

/// The raw-measurement document a subcommand prints: one flat JSON object
/// of numbers, booleans and number arrays.
class Out {
 public:
  void num(std::string_view k, double v) {
    key(k);
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    s_ += buf;
  }
  void flag(std::string_view k, bool v) {
    key(k);
    s_ += v ? "true" : "false";
  }
  void str(std::string_view k, std::string_view v) {
    key(k);
    s_ += '"' + service::json_escape(v) + '"';
  }
  void samples(std::string_view k, const std::vector<double>& xs) {
    key(k);
    s_ += '[';
    char buf[40];
    for (std::size_t i = 0; i < xs.size(); ++i) {
      std::snprintf(buf, sizeof buf, i == 0 ? "%.9g" : ",%.9g", xs[i]);
      s_ += buf;
    }
    s_ += ']';
  }
  void print() const { std::printf("{%s}\n", s_.c_str()); }

 private:
  void key(std::string_view k) {
    if (!s_.empty()) s_ += ',';
    s_ += '"';
    s_ += k;
    s_ += "\":";
  }
  std::string s_;
};

double median_of(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Per-layer counters a traced run reads from the scheduler's public
/// accessors and a counters-only tracer, summed over runs.
struct SchedTotals {
  double passes = 0, pass_us = 0, setup_us = 0;
  double stage_us[trace::TraceSummary::kNumStages] = {0, 0, 0, 0};
  double priority_reuses = 0, priority_recomputes = 0;
  double backfilled_starts = 0, native_starts = 0;

  /// `s` is null where the scheduler is not reachable (grid machines).
  void add(const trace::TraceSummary& t, const sched::SchedulerStats* s) {
    passes += static_cast<double>(t.sched_passes);
    pass_us += static_cast<double>(t.sched_pass_us_total);
    setup_us += static_cast<double>(t.stage_setup_us);
    for (int k = 0; k < trace::TraceSummary::kNumStages; ++k) {
      stage_us[k] += static_cast<double>(t.stage_us[k]);
    }
    priority_reuses += static_cast<double>(t.priority_reuses);
    priority_recomputes += static_cast<double>(t.priority_recomputes);
    if (s != nullptr) {
      backfilled_starts += static_cast<double>(s->backfilled_starts);
      native_starts += static_cast<double>(s->native_starts);
    }
  }

  void write(Out& out) const {
    const double p = std::max(passes, 1.0);
    out.num("sched.passes", passes);
    out.num("sched.us_per_pass", pass_us / p);
    out.num("sched.stage.setup_us", setup_us / p);
    static const char* const kStage[] = {
        "sched.stage.priority_us", "sched.stage.dispatch_us",
        "sched.stage.backfill_us", "sched.stage.gate_us"};
    for (int k = 0; k < trace::TraceSummary::kNumStages; ++k) {
      out.num(kStage[k], stage_us[k] / p);
    }
    out.num("sched.priority_reuse_ratio",
            priority_reuses / std::max(priority_reuses + priority_recomputes, 1.0));
    out.num("sched.priority_reuse_base", priority_reuses + priority_recomputes);
    out.num("sched.backfill_start_ratio",
            backfilled_starts / std::max(native_starts, 1.0));
    out.num("sched.backfill_start_base", native_starts);
  }
};

/// SWF serialization of a log, one record per line (header comments
/// dropped) — the daemon's ingest lines, and the parse-timing input.
std::vector<std::string> swf_lines(const workload::JobLog& log) {
  std::ostringstream os;
  workload::write_swf(os, log);
  std::istringstream is(os.str());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty() && line[0] != ';') lines.push_back(line);
  }
  return lines;
}

/// workload.parse_swf_line_us: mean µs per parse over `lines`.
double parse_swf_us(const std::vector<std::string>& lines, bool* all_ok) {
  const auto t0 = Clock::now();
  std::size_t jobs = 0;
  for (const auto& l : lines) {
    if (workload::parse_swf_line(l).status ==
        workload::SwfLineOutcome::Status::kJob) {
      ++jobs;
    }
  }
  const double us = ms_since(t0) * 1000.0;
  if (all_ok != nullptr) *all_ok = jobs == lines.size();
  return us / static_cast<double>(std::max<std::size_t>(lines.size(), 1));
}

void pool_delta(Out& out, const PoolStats& before, double queries) {
  const PoolStats after = ThreadPool::global_stats();
  out.num("util.pool.tasks",
          static_cast<double>(after.tasks_executed - before.tasks_executed));
  out.num("util.pool.busy_hwm", static_cast<double>(after.busy_hwm));
  out.num("util.pool.queue_hwm", static_cast<double>(after.queue_hwm));
  out.num("util.pool.pools_per_query",
          static_cast<double>(after.pools_created - before.pools_created) /
              std::max(queries, 1.0));
}

// -- harvest ------------------------------------------------------------------
//
// Continual harvest on Blue Mountain (Table 6's short stream: 32 CPUs x
// 120 s at 1 GHz), one native log per iteration.  The logs come from a
// fixed pool of kHarvestLogs, taken in turn from a place --seed picks: a
// run covers the pool four or five times, so every seed measures nearly
// the same logs, and run.py keeps each log's fastest repeat ("input" names
// the pool log of each iteration).  Logs drawn freshly from each seed
// differ up to 2x in their query tail, which moved query_p99_ms by a
// quarter between seeds (README, Sizing).
//
// An iteration is: build (setup), a straight run advanced in 6-hour slices
// and finished (jobs_per_s; ingest = one slice), then a second run of the
// same scenario on which every 12-hour boundary answers a what-if by
// forking and advancing the fork one day (query).  The straight run never
// forks, so fork cost cannot leak into jobs_per_s.

constexpr SimTime kSlice = 6 * kHour;
/// A batch what-if forks the live run and looks one day ahead, like the
/// daemon's queries, every other slice.  The day of simulation keeps the
/// fork's memory copy (a harvest stack copies its job store) from
/// dominating, and with it the host's memory-bandwidth noise.
constexpr SimTime kQueryHorizon = kDay;
constexpr SimTime kQueryEvery = 2 * kSlice;
constexpr std::uint64_t kHarvestLogs = 6;

/// The pool log harvest iteration `i` runs under --seed `seed`.
std::uint64_t harvest_input(std::uint64_t seed, std::uint64_t i) {
  return (mix(seed, 0) + i) % kHarvestLogs;
}

core::Scenario harvest_scenario(std::uint64_t log_seed,
                                trace::Tracer* tracer) {
  core::Scenario sc;
  sc.site = cluster::Site::kBlueMountain;
  sc.log_seed = log_seed;
  sc.project = core::ProjectSpec::continual_stream(
      32, 120, cluster::site_span(sc.site));
  sc.tracer = tracer;
  return sc;
}

int cmd_harvest(std::uint64_t seed, double seconds, bool traced) {
  const SimTime span = cluster::site_span(cluster::Site::kBlueMountain);
  Out out;
  std::vector<double> setup_s, jobs_per_s, slice_ms, query_ms, inputs;
  std::size_t attempted = 0, failed = 0;
  bool check_ok = true;
  std::uint64_t first_hash = 0;

  // Traced-run state.
  std::vector<double> untraced_jps, traced_jps, log_ms, build_ms, day_ms,
      finish_ms, fork_us, steps, events, peak_depth, ns_per_event;
  SchedTotals sched;
  const PoolStats pool0 = ThreadPool::global_stats();
  double parse_us = 0.0;

  const auto t_end = Clock::now() + std::chrono::duration<double>(seconds);
  for (std::uint64_t i = 0; i == 0 || Clock::now() < t_end; ++i) {
    const std::uint64_t log_seed = mix(0, harvest_input(seed, i));
    if (!traced) {
      inputs.push_back(static_cast<double>(harvest_input(seed, i)));
      auto t0 = Clock::now();
      auto run = std::make_unique<core::SimRun>(harvest_scenario(log_seed, nullptr));
      setup_s.push_back(s_since(t0));
      double wall_ms = 0.0;
      for (SimTime t = kSlice; t < span; t += kSlice) {
        t0 = Clock::now();
        run->run_until(t);
        slice_ms.push_back(ms_since(t0));
        wall_ms += slice_ms.back();
      }
      t0 = Clock::now();
      const sched::RunResult result = run->finish();
      wall_ms += ms_since(t0);
      jobs_per_s.push_back(static_cast<double>(result.records.size()) /
                           (wall_ms / 1000.0));
      ++attempted;
      if (result.native_count() == 0 || result.interstitial_count() == 0) {
        ++failed;
      }

      auto base = std::make_unique<core::SimRun>(harvest_scenario(log_seed, nullptr));
      for (SimTime t = kQueryEvery; t < span; t += kQueryEvery) {
        base->run_until(t);
        t0 = Clock::now();
        {
          std::unique_ptr<core::SimRun> what_if = base->fork();
          what_if->run_until(t + kQueryHorizon);
        }
        query_ms.push_back(ms_since(t0));
      }

      if (i == 0) first_hash = grid::hash_run(result);
      continue;
    }

    // Traced run: alternate an untraced and a counters-traced iteration on
    // the same log (trace.overhead_pct), and time each layer call.
    auto t0 = Clock::now();
    const workload::JobLog log =
        workload::site_log(cluster::Site::kBlueMountain, log_seed);
    log_ms.push_back(ms_since(t0));
    if (i == 0) parse_us = parse_swf_us(swf_lines(log), nullptr);
    {
      core::SimRun run(harvest_scenario(log_seed, nullptr));
      t0 = Clock::now();
      const sched::RunResult r = run.finish();
      untraced_jps.push_back(static_cast<double>(r.records.size()) / s_since(t0));
    }
    trace::Tracer tracer(trace::TraceMode::kCountersOnly);
    t0 = Clock::now();
    core::SimRun run(harvest_scenario(log_seed, &tracer));
    build_ms.push_back(ms_since(t0));
    double wall_ms = 0.0;
    for (SimTime t = kDay; t < span; t += kDay) {
      t0 = Clock::now();
      run.run_until(t);
      day_ms.push_back(ms_since(t0));
      wall_ms += day_ms.back();
      steps.push_back(static_cast<double>(run.scheduler().profile().steps()));
      t0 = Clock::now();
      run.fork().reset();
      fork_us.push_back(ms_since(t0) * 1000.0);
    }
    t0 = Clock::now();
    const sched::RunResult r = run.finish();
    finish_ms.push_back(ms_since(t0));
    wall_ms += finish_ms.back();
    traced_jps.push_back(static_cast<double>(r.records.size()) /
                         (wall_ms / 1000.0));
    const double ev = static_cast<double>(run.engine().events_processed());
    events.push_back(ev);
    peak_depth.push_back(
        static_cast<double>(run.engine().stats().peak_queue_depth));
    ns_per_event.push_back(wall_ms * 1e6 / std::max(ev, 1.0));
    sched.add(tracer.summary(), &run.scheduler().stats());
    ++attempted;
  }

  if (!traced) {
    // Off the clock, with every timed run freed so that the check never
    // sets the peak RSS: a run of the first iteration's log, forked
    // mid-span and finished, schedules exactly what the straight run did.
    core::SimRun mid(harvest_scenario(mix(0, harvest_input(seed, 0)), nullptr));
    mid.run_until(span / 2);
    check_ok = grid::hash_run(mid.fork()->finish()) == first_hash;
    ++attempted;
    if (!check_ok) ++failed;
  }

  out.str("build_type", PERFBENCH_BUILD_TYPE);
  out.num("attempted", static_cast<double>(attempted));
  out.num("failed", static_cast<double>(failed));
  if (!traced) {
    out.flag("check_ok", check_ok);
    out.samples("input", inputs);
    out.samples("setup_s", setup_s);
    out.samples("jobs_per_s", jobs_per_s);
    out.samples("ingest_ms", slice_ms);
    out.samples("query_ms", query_ms);
  } else {
    out.flag("check_ok", true);
    out.num("workload.site_log_ms", median_of(log_ms));
    out.num("workload.parse_swf_line_us", parse_us);
    out.num("sim.events", median_of(events));
    out.num("sim.peak_queue_depth", median_of(peak_depth));
    out.num("sim.ns_per_event", median_of(ns_per_event));
    sched.write(out);
    out.samples("sched.profile_steps", steps);
    out.num("core.simrun_build_ms", median_of(build_ms));
    out.samples("core.slice_ms", day_ms);
    out.num("core.finish_ms", median_of(finish_ms));
    out.samples("core.simrun_fork_us", fork_us);
    pool_delta(out, pool0, static_cast<double>(attempted));
    out.num("untraced_jobs_per_s", median_of(untraced_jps));
    out.num("traced_jobs_per_s", median_of(traced_jps));
  }
  out.print();
  return failed == 0 && check_ok ? 0 : 1;
}

// -- fleet_stream -------------------------------------------------------------
//
// The batched grid stream: the four synthetic Ross-class machines of
// sweep_forks' million-job stream and four projects of narrow, short,
// machine-neutral jobs, that shape scaled down.  Iteration i runs input
// i mod kFleetInputs, so each input repeats and run.py keeps its fastest
// repeat.  The seed deals each input's job widths to the projects and sets
// each project's work per CPU; it does not reseed the native logs, whose
// load differs by up to 2x between seeds and would swamp the fleet's own
// cost (README, Sizing).  Shard threads = min(nproc / 2, machines): with a
// thread on every CPU the slices measured the host's scheduler more than
// the fleet.  Same iteration shape as harvest: a straight run in 6-hour
// slices, then one-day what-if forks of the whole fleet at every 12-hour
// boundary on a second run.  A 6-hour heartbeat makes every slice an epoch
// boundary (slicing is schedule-neutral; the fleet tests pin that), so
// slices measure steady epoch work rather than whichever slice happens to
// hold the next routing message.

constexpr int kFleetMachines = 4;
constexpr std::size_t kFleetJobsEach = 12'500;
constexpr std::size_t kFleetInputs = 5;

std::unique_ptr<grid::FleetRun> make_fleet(std::uint64_t seed,
                                          std::size_t input,
                                          std::size_t threads) {
  std::vector<grid::MachineSetup> fleet;
  for (int m = 0; m < kFleetMachines; ++m) {
    fleet.push_back(grid::synthetic_machine_setup(10 + m));
  }
  std::vector<grid::GridProjectSpec> projects;
  int widths[] = {1, 2, 4, 8};
  Rng rng(mix(seed, 1000 + input));
  for (std::size_t p = std::size(widths) - 1; p > 0; --p) {
    std::swap(widths[p], widths[rng.below(p + 1)]);
  }
  for (std::size_t p = 0; p < std::size(widths); ++p) {
    grid::GridProjectSpec spec;
    spec.name = "S";
    spec.name += std::to_string(p);
    spec.cpus_per_job = widths[p];
    spec.work_per_cpu = rng.uniform(4.5, 5.5) * cluster::kGiga;
    spec.jobs = kFleetJobsEach;
    projects.push_back(std::move(spec));
  }
  grid::FleetConfig cfg;
  cfg.threads = threads;
  cfg.heartbeat = kSlice;
  return std::make_unique<grid::FleetRun>(std::move(fleet), std::move(projects),
                                          cfg);
}

std::size_t fleet_jobs(const grid::FleetResult& r) {
  std::size_t n = 0;
  for (const auto& m : r.machines) n += m.run.records.size();
  return n;
}

bool fleet_accounted(const grid::FleetResult& r) {
  std::size_t done = 0;
  for (const auto& led : r.ledgers) done += led.completed + led.abandoned();
  return done == kFleetJobsEach * 4;
}

int cmd_fleet(std::uint64_t seed, double seconds, bool traced) {
  const std::size_t threads = std::min<std::size_t>(
      kFleetMachines, std::max(1u, std::thread::hardware_concurrency() / 2));
  const SimTime span = cluster::site_span(cluster::Site::kRoss);
  Out out;
  std::vector<double> setup_s, jobs_per_s, slice_ms, query_ms, inputs;
  std::size_t attempted = 0, failed = 0;
  bool check_ok = true;

  std::vector<double> untraced_jps, traced_jps, log_ms, build_ms, day_ms,
      finish_ms, epochs, per_batch, steps, events, peak_depth, ns_per_event;
  SchedTotals sched;
  double parse_us = 0.0;
  const PoolStats pool0 = ThreadPool::global_stats();

  const auto t_end = Clock::now() + std::chrono::duration<double>(seconds);
  for (std::size_t i = 0; i == 0 || Clock::now() < t_end; ++i) {
    const std::size_t input = i % kFleetInputs;
    if (!traced) {
      inputs.push_back(static_cast<double>(input));
      auto t0 = Clock::now();
      auto run = make_fleet(seed, input, threads);
      setup_s.push_back(s_since(t0));
      double wall_ms = 0.0;
      for (SimTime t = kSlice; t < span; t += kSlice) {
        t0 = Clock::now();
        run->run_until(t);
        slice_ms.push_back(ms_since(t0));
        wall_ms += slice_ms.back();
      }
      t0 = Clock::now();
      const grid::FleetResult result = run->finish();
      wall_ms += ms_since(t0);
      jobs_per_s.push_back(static_cast<double>(fleet_jobs(result)) /
                           (wall_ms / 1000.0));
      ++attempted;
      if (!fleet_accounted(result)) ++failed;

      auto base = make_fleet(seed, input, threads);
      for (SimTime t = kQueryEvery; t < span; t += kQueryEvery) {
        base->run_until(t);
        t0 = Clock::now();
        {
          std::unique_ptr<grid::FleetRun> what_if = base->fork();
          what_if->run_until(t + kQueryHorizon);
        }
        query_ms.push_back(ms_since(t0));
      }

      if (i == 0) {
        // Off the clock: the fleet hash does not depend on shard threads.
        check_ok = make_fleet(seed, input, 1)->finish().hash == result.hash;
        ++attempted;
        if (!check_ok) ++failed;
      }
      continue;
    }

    auto t0 = Clock::now();
    (void)workload::site_log(cluster::Site::kRoss, mix(seed, 1000 + i));
    log_ms.push_back(ms_since(t0));
    if (i == 0) {
      parse_us = parse_swf_us(
          swf_lines(workload::site_log(cluster::Site::kRoss, mix(seed, 1000))),
          nullptr);
    }
    {
      auto run = make_fleet(seed, input, threads);
      t0 = Clock::now();
      const grid::FleetResult r = run->finish();
      untraced_jps.push_back(static_cast<double>(fleet_jobs(r)) / s_since(t0));
    }
    // Grid machines always carry a counters-only tracer, so the traced run
    // differs from the untraced one only by the layer timings taken here.
    t0 = Clock::now();
    auto run = make_fleet(seed, input, threads);
    build_ms.push_back(ms_since(t0));
    double wall_ms = 0.0;
    for (SimTime t = kDay; t < span; t += kDay) {
      t0 = Clock::now();
      run->run_until(t);
      day_ms.push_back(ms_since(t0));
      wall_ms += day_ms.back();
      for (std::size_t m = 0; m < run->machine_count(); ++m) {
        steps.push_back(static_cast<double>(run->machine(m).probe().profile_steps));
      }
    }
    t0 = Clock::now();
    const grid::FleetResult r = run->finish();
    finish_ms.push_back(ms_since(t0));
    wall_ms += finish_ms.back();
    traced_jps.push_back(static_cast<double>(fleet_jobs(r)) / (wall_ms / 1000.0));
    epochs.push_back(static_cast<double>(run->epochs()));
    double delivered = 0, batches = 0, ev = 0, depth = 0;
    for (std::size_t m = 0; m < run->machine_count(); ++m) {
      const grid::GridMachine& gm = run->machine(m);
      delivered += static_cast<double>(gm.port_stats().delivered);
      batches += static_cast<double>(gm.delivery_batches());
      const trace::TraceSummary& t = gm.tracer().counters();
      ev += static_cast<double>(t.engine_events_drained);
      depth = std::max(depth, static_cast<double>(t.engine_peak_queue_depth));
      sched.add(t, nullptr);
    }
    per_batch.push_back(delivered / std::max(batches, 1.0));
    events.push_back(ev);
    peak_depth.push_back(depth);
    ns_per_event.push_back(wall_ms * 1e6 / std::max(ev, 1.0));
    ++attempted;
  }

  out.str("build_type", PERFBENCH_BUILD_TYPE);
  out.num("attempted", static_cast<double>(attempted));
  out.num("failed", static_cast<double>(failed));
  out.num("shard_threads", static_cast<double>(threads));
  if (!traced) {
    out.flag("check_ok", check_ok);
    out.samples("input", inputs);
    out.samples("setup_s", setup_s);
    out.samples("jobs_per_s", jobs_per_s);
    out.samples("ingest_ms", slice_ms);
    out.samples("query_ms", query_ms);
  } else {
    out.flag("check_ok", true);
    out.num("workload.site_log_ms", median_of(log_ms));
    out.num("workload.parse_swf_line_us", parse_us);
    out.num("sim.events", median_of(events));
    out.num("sim.peak_queue_depth", median_of(peak_depth));
    out.num("sim.ns_per_event", median_of(ns_per_event));
    sched.write(out);
    out.samples("sched.profile_steps", steps);
    out.num("grid.build_ms", median_of(build_ms));
    out.samples("grid.slice_ms", day_ms);
    out.num("grid.finish_ms", median_of(finish_ms));
    out.num("grid.epochs", median_of(epochs));
    out.num("grid.jobs_per_batch", median_of(per_batch));
    // Each traced iteration builds two fleets: the untraced and the traced.
    pool_delta(out, pool0, 2.0 * static_cast<double>(attempted));
    out.num("untraced_jobs_per_s", median_of(untraced_jps));
    out.num("traced_jobs_per_s", median_of(traced_jps));
  }
  out.print();
  return failed == 0 && check_ok ? 0 : 1;
}

// -- whatif_mixed: the request stream -----------------------------------------
//
// Blue Mountain's canonical log as SWF lines.  The first kPreload lines are
// the preloaded tail; the rest stream in at kIngestRate, with one line in
// kLateEvery held back so it lands behind the frontier and forces a rewind.
// Queries cycle through mixed shapes (single and multi point, native and
// interstitial), all with a one-day horizon.  The seed picks which lines
// arrive late, how late, and where the query cycle starts.  It does not
// pick the log: what-if cost depends on how loaded the baseline is at the
// frontier, and reseeded logs differ by up to 4x there (README, Sizing).

constexpr std::size_t kPreload = 3000;
constexpr double kIngestRate = 100.0;  // lines per second
constexpr std::size_t kLateEvery = 50;

const char* const kQueryShapes[] = {
    R"({"op":"whatif","jobs":2,"cpus":32,"runtime_s":600,"horizon_s":86400)",
    R"({"op":"whatif","jobs":6,"cpus":16,"runtime_s":300,"horizon_s":86400,"points_s":[0,3600])",
    R"({"op":"whatif","class":"interstitial","jobs":8,"cpus":8,"runtime_s":204,"horizon_s":86400)",
    R"({"op":"whatif","jobs":4,"cpus":64,"runtime_s":450,"horizon_s":86400,"points_s":[0,1800,7200])",
    R"({"op":"whatif","class":"interstitial","jobs":16,"cpus":32,"runtime_s":120,"horizon_s":86400,"points_s":[0,3600])",
    R"({"op":"whatif","jobs":1,"cpus":256,"runtime_s":900,"horizon_s":86400)",
};
constexpr std::size_t kShapes = std::size(kQueryShapes);

std::string ingest_request(const std::string& swf) {
  return R"({"op":"ingest","line":")" + service::json_escape(swf) + "\"}";
}

struct TailStream {
  std::vector<std::string> preload;  ///< ingest requests, in order
  /// Streamed ingest requests in send order; late[i] marks a held-back line.
  std::vector<std::string> stream;
  std::vector<char> late;
  std::vector<std::string> raw_lines;  ///< every SWF line (parse timing)
};

TailStream make_tail(std::uint64_t seed) {
  TailStream t;
  t.raw_lines = swf_lines(workload::site_log(cluster::Site::kBlueMountain));
  const std::size_t n = t.raw_lines.size();
  for (std::size_t i = 0; i < std::min(kPreload, n); ++i) {
    t.preload.push_back(ingest_request(t.raw_lines[i]));
  }
  // Line k of the stream goes out at position k, or k + late_by when held.
  const std::size_t late_phase = seed % kLateEvery;
  const std::size_t late_by = 10 + seed % 21;
  std::vector<std::pair<std::size_t, std::size_t>> order;  // (slot, line)
  for (std::size_t i = kPreload; i < n; ++i) {
    const std::size_t k = i - kPreload;
    const bool held = k % kLateEvery == late_phase;
    order.emplace_back(2 * (held ? k + late_by : k) + (held ? 1 : 0), i);
  }
  std::sort(order.begin(), order.end());
  for (const auto& [slot, line] : order) {
    t.stream.push_back(ingest_request(t.raw_lines[line]));
    t.late.push_back(static_cast<char>(slot % 2));
  }
  return t;
}

std::string query_request(std::uint64_t seed, std::size_t k, bool scratch) {
  std::string q = kQueryShapes[(k + seed) % kShapes];
  q += scratch ? R"(,"mode":"scratch"})" : "}";
  return q;
}

enum class Kind : unsigned char { kIngest, kLate, kQuery, kStatus };

constexpr double kRampRatio = 1.06;

/// The offered query rate over time: `fixed_rate` for `fixed_s`, then
/// `ramp_steps` steps of `step_s` seconds, each kRampRatio faster than the
/// one before (max_qps is read off this staircase).  Ingest runs at
/// kIngestRate throughout; `status_rate` adds status probes.
struct LoadShape {
  double fixed_rate = 0.0;
  double fixed_s = 0.0;
  std::size_t ramp_steps = 0;
  double step_s = 0.0;
  double status_rate = 0.0;

  double total_s() const {
    return fixed_s + static_cast<double>(ramp_steps) * step_s;
  }
  double rate(std::size_t step) const {
    return fixed_rate * std::pow(kRampRatio, static_cast<double>(step));
  }
};

struct Request {
  Kind kind = Kind::kQuery;
  double due = 0.0;       ///< seconds after the window opens
  std::size_t step = 0;   ///< 0 = fixed phase, k = k-th ramp step
  std::string text;
};

/// Arrivals are Poisson processes drawn from the seed (independent
/// clients), so no fixed phase between ingests and queries decides who
/// waits for whom.
std::vector<Request> make_schedule(std::uint64_t seed, const TailStream& tail,
                                   const LoadShape& shape) {
  std::vector<Request> reqs;
  const auto step_of = [&](double due) -> std::size_t {
    return due < shape.fixed_s
               ? 0
               : 1 + static_cast<std::size_t>((due - shape.fixed_s) / shape.step_s);
  };
  Rng ingest_rng(mix(seed, 11));
  double due = 0.0;
  for (std::size_t k = 0; k < tail.stream.size(); ++k) {
    due += ingest_rng.exponential(1.0 / kIngestRate);
    if (due >= shape.total_s()) break;
    reqs.push_back({tail.late[k] ? Kind::kLate : Kind::kIngest, due,
                    step_of(due), tail.stream[k]});
  }
  Rng query_rng(mix(seed, 12));
  std::size_t shape_index = 0;
  for (std::size_t step = 0; step <= shape.ramp_steps; ++step) {
    const double start =
        step == 0 ? 0.0
                  : shape.fixed_s + static_cast<double>(step - 1) * shape.step_s;
    const double len = step == 0 ? shape.fixed_s : shape.step_s;
    const double rate = shape.rate(step);
    for (double at = query_rng.exponential(1.0 / rate); at < len;
         at += query_rng.exponential(1.0 / rate)) {
      reqs.push_back({Kind::kQuery, start + at, step,
                      query_request(seed, shape_index++, false)});
    }
  }
  if (shape.status_rate > 0) {
    Rng status_rng(mix(seed, 13));
    for (double at = status_rng.exponential(1.0 / shape.status_rate);
         at < shape.total_s(); at += status_rng.exponential(1.0 / shape.status_rate)) {
      reqs.push_back({Kind::kStatus, at, step_of(at), R"({"op":"status"})"});
    }
  }
  std::stable_sort(reqs.begin(), reqs.end(),
                   [](const Request& a, const Request& b) { return a.due < b.due; });
  return reqs;
}

bool reply_ok(Kind kind, const std::string& reply) {
  switch (kind) {
    case Kind::kIngest:
    case Kind::kLate:
      return reply.find(R"("accepted":true)") != std::string::npos;
    case Kind::kQuery:
      return reply.find(R"("points":)") != std::string::npos &&
             reply.find(R"("error")") == std::string::npos;
    case Kind::kStatus:
      return reply.find(R"("epoch":)") != std::string::npos;
  }
  return false;
}

// -- whatif_mixed: the socket client ------------------------------------------

struct Conn {
  int fd = -1;
  std::string in;
  std::deque<std::size_t> inflight;  ///< request ids awaiting replies (FIFO)
};

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_line(int fd, const std::string& text) {
  const std::string data = text + "\n";
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read what is available on `c` and hand each complete reply line, with
/// its request id, to `on_reply`.  False when the peer closed or failed.
template <class F>
bool read_replies(Conn& c, F&& on_reply) {
  char buf[65536];
  const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
  if (n < 0 && errno == EINTR) return true;
  if (n <= 0) return false;
  c.in.append(buf, static_cast<std::size_t>(n));
  std::size_t start = 0;
  for (std::size_t nl = c.in.find('\n'); nl != std::string::npos;
       nl = c.in.find('\n', start)) {
    if (c.inflight.empty()) return false;  // a reply nobody asked for
    const std::size_t id = c.inflight.front();
    c.inflight.pop_front();
    on_reply(id, c.in.substr(start, nl - start));
    start = nl + 1;
  }
  c.in.erase(0, start);
  return true;
}

/// One synchronous request/reply on an idle connection.
std::string ask(Conn& c, const std::string& text) {
  if (!send_line(c.fd, text)) return {};
  c.inflight.push_back(0);
  std::string reply;
  bool got = false;
  while (!got) {
    if (!read_replies(c, [&](std::size_t, std::string r) {
          reply = std::move(r);
          got = true;
        })) {
      return {};
    }
  }
  return reply;
}

int cmd_load(const ArgParser& args, std::uint64_t seed, double seconds) {
  const std::string socket_path = args.get_or("socket", "");
  const bool traced = args.get_int_or("trace", 0) != 0;
  const bool check = args.get_int_or("check", 0) != 0;
  const std::size_t conns = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 2, 4);

  Out out;
  out.str("build_type", PERFBENCH_BUILD_TYPE);
  out.num("connections", static_cast<double>(conns));

  auto t0 = Clock::now();
  const TailStream tail = make_tail(seed);
  out.num("loggen_s", s_since(t0));

  std::vector<Conn> pool(conns);
  for (auto& c : pool) {
    c.fd = connect_unix(socket_path);
    if (c.fd < 0) {
      std::fprintf(stderr, "load: cannot connect to %s\n", socket_path.c_str());
      return 2;
    }
  }
  Conn& feeder = pool[0];  // the tail feeder: ingests, in order

  // Preload: the tail so far, pipelined on the feeder with a bounded window
  // (its rate is the daemon's catch-up ingest throughput).
  std::size_t attempted = 0, failed = 0, accepted = 0;
  t0 = Clock::now();
  {
    std::size_t next = 0;
    constexpr std::size_t kWindow = 256;
    while (next < tail.preload.size() || !feeder.inflight.empty()) {
      while (next < tail.preload.size() && feeder.inflight.size() < kWindow) {
        if (!send_line(feeder.fd, tail.preload[next])) return 2;
        feeder.inflight.push_back(next++);
      }
      if (!read_replies(feeder, [&](std::size_t, const std::string& r) {
            ++attempted;
            if (reply_ok(Kind::kIngest, r)) {
              ++accepted;
            } else {
              ++failed;
            }
          })) {
        return 2;
      }
    }
  }
  out.num("preload_s", s_since(t0));
  out.num("preload_jobs", static_cast<double>(accepted));

  // The timed window: open loop, every request timed from when it was due.
  // The first kWarmup seconds run but are not recorded, so daemon start-up
  // transients (first pools, first snapshots) stay out.
  constexpr double kWarmup = 1.0;
  LoadShape shape;
  shape.fixed_rate = args.get_num_or("query-rate", 200.0);
  shape.fixed_s = args.has("preload-only") ? 0.0 : kWarmup + seconds;
  shape.ramp_steps = static_cast<std::size_t>(args.get_int_or("ramp-steps", 0));
  shape.step_s = args.get_num_or("step-seconds", 0.5);
  shape.status_rate = traced ? 20.0 : 0.0;
  const std::vector<Request> reqs = make_schedule(seed, tail, shape);

  std::vector<double> sent_at(reqs.size(), -1.0);
  std::vector<double> query_ms, query_step, ingest_ms, late_ms, status_us,
      lag_ms, step_backlog;
  // Query replies received inside each ramp step's window.
  std::vector<double> step_served(shape.ramp_steps + 1, 0.0);
  std::deque<std::size_t> ingest_backlog, query_backlog;
  std::size_t backlog_max = 0, next = 0, end = reqs.size(), answered = 0;
  const auto w0 = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - w0).count();
  };
  const double drain_limit = shape.total_s() + 30.0;

  const auto on_reply = [&](std::size_t id, const std::string& reply) {
    const double now = elapsed();
    const Request& r = reqs[id];
    ++answered;
    ++attempted;
    if (!reply_ok(r.kind, reply)) {
      if (failed++ < 5) std::fprintf(stderr, "load: failed reply: %s\n", reply.c_str());
    }
    if (r.due < kWarmup) return;
    const double ms = (now - r.due) * 1000.0;
    if (r.kind == Kind::kQuery) {
      if (now >= shape.fixed_s && now < shape.total_s()) {
        step_served[1 + static_cast<std::size_t>((now - shape.fixed_s) /
                                                 shape.step_s)] += 1.0;
      }
      query_ms.push_back(ms);
      query_step.push_back(static_cast<double>(r.step));
    } else if (r.step == 0 && r.kind == Kind::kIngest) {
      ingest_ms.push_back(ms);
    } else if (r.step == 0 && r.kind == Kind::kLate) {
      late_ms.push_back(ms);
    } else if (r.kind == Kind::kStatus) {
      status_us.push_back((now - sent_at[id]) * 1e6);
    }
  };

  while (answered < next || next < end) {
    const double now = elapsed();
    if (now > drain_limit) break;
    const std::size_t backlog = ingest_backlog.size() + query_backlog.size();
    // Ramp step boundaries: note the backlog each step leaves behind, and
    // stop offering load once two steps in a row left it growing.
    while (step_backlog.size() < shape.ramp_steps &&
           now >= shape.fixed_s +
                      static_cast<double>(step_backlog.size() + 1) * shape.step_s) {
      step_backlog.push_back(static_cast<double>(backlog));
      const std::size_t n = step_backlog.size();
      if (n >= 2 && step_backlog[n - 1] > static_cast<double>(conns) &&
          step_backlog[n - 2] > static_cast<double>(conns)) {
        end = next;
        break;
      }
    }
    while (next < end && reqs[next].due <= now) {
      if (reqs[next].due >= kWarmup) {
        lag_ms.push_back((now - reqs[next].due) * 1000.0);
      }
      const Kind k = reqs[next].kind;
      (k == Kind::kIngest || k == Kind::kLate ? ingest_backlog : query_backlog)
          .push_back(next);
      ++next;
    }
    // Ingests and queries never overlap in the daemon: an ingest waits for
    // in-flight queries to finish and holds new ones back until it is
    // answered.  The session clears its reference-arm memo on every
    // accepted ingest while queries copy results out of it unlocked, and
    // that race crashes the daemon under concurrent load (README, Known
    // daemon defect).
    std::size_t queries_inflight = 0;
    for (std::size_t c = 1; c < pool.size(); ++c) {
      queries_inflight += pool[c].inflight.size();
    }
    bool send_failed = false;
    if (feeder.inflight.empty() && !ingest_backlog.empty() &&
        queries_inflight == 0) {
      const std::size_t id = ingest_backlog.front();
      ingest_backlog.pop_front();
      sent_at[id] = elapsed();
      send_failed = !send_line(feeder.fd, reqs[id].text);
      feeder.inflight.push_back(id);
    }
    const bool ingest_pending = !feeder.inflight.empty() || !ingest_backlog.empty();
    for (std::size_t c = 1; c < pool.size() && !query_backlog.empty() &&
                            !ingest_pending && !send_failed;
         ++c) {
      if (!pool[c].inflight.empty()) continue;
      const std::size_t id = query_backlog.front();
      query_backlog.pop_front();
      sent_at[id] = elapsed();
      send_failed = !send_line(pool[c].fd, reqs[id].text);
      pool[c].inflight.push_back(id);
    }
    if (send_failed) {
      std::fprintf(stderr, "load: send failed: %s\n", std::strerror(errno));
      break;
    }
    if (now >= kWarmup && now < shape.fixed_s) {
      backlog_max = std::max(
          backlog_max, ingest_backlog.size() + query_backlog.size());
    }

    std::vector<pollfd> fds(pool.size());
    for (std::size_t c = 0; c < pool.size(); ++c) {
      fds[c] = {pool[c].fd, POLLIN, 0};
    }
    const double wait_s =
        next < end ? std::clamp(reqs[next].due - elapsed(), 0.0, 0.05) : 0.05;
    timespec ts{};
    ts.tv_nsec = static_cast<long>(wait_s * 1e9);
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      std::fprintf(stderr, "load: poll failed: %s\n", std::strerror(errno));
      break;
    }
    bool broken = false;
    for (std::size_t c = 0; c < pool.size() && ready > 0; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!read_replies(pool[c], on_reply)) {
        std::fprintf(stderr, "load: connection %zu lost\n", c);
        broken = true;
      }
    }
    if (broken) break;
  }
  // Anything offered but never answered: refused, dropped, or too late.
  failed += next - answered;
  attempted += next - answered;

  out.num("query_rate", shape.fixed_rate);
  out.num("ingest_rate", kIngestRate);
  out.samples("query_ms", query_ms);
  out.samples("query_step", query_step);
  out.samples("ingest_ms", ingest_ms);
  out.samples("late_ms", late_ms);
  out.samples("gen_lag_ms", lag_ms);
  if (traced) out.samples("service.status_rtt_us", status_us);
  std::vector<double> step_rate;
  for (std::size_t k = 1; k <= step_backlog.size(); ++k) {
    step_rate.push_back(shape.rate(k));
  }
  out.samples("step_rate", step_rate);
  std::vector<double> served_qps;
  for (std::size_t k = 1; k <= step_backlog.size(); ++k) {
    served_qps.push_back(step_served[k] / shape.step_s);
  }
  out.samples("step_served_qps", served_qps);
  out.samples("step_backlog", step_backlog);
  out.num("backlog_max", static_cast<double>(backlog_max));

  bool check_ok = true;
  if (check) {
    // Off the clock, at the final epoch: forked answers are byte-identical
    // to from-scratch answers.
    Conn& c = pool[1];
    for (std::size_t k = 0; k < kShapes; ++k) {
      const std::string forked = ask(c, query_request(seed, k, false));
      const std::string scratch = ask(c, query_request(seed, k, true));
      ++attempted;
      if (forked.empty() || forked != scratch ||
          !reply_ok(Kind::kQuery, forked)) {
        check_ok = false;
        ++failed;
      }
    }
  }
  out.flag("check_ok", check_ok);

  if (traced) {
    const service::Value status =
        service::parse(ask(pool[1], R"({"op":"status"})")).value;
    out.num("service.rewinds", status.num_or("rewinds", -1));
    out.num("service.snapshots", status.num_or("snapshots", -1));
    const service::Value stats =
        service::parse(ask(pool[1], R"({"op":"stats"})")).value;
    if (const service::Value* p = stats.find("pool")) {
      const service::Value* counters = stats.find("counters");
      const double queries = counters ? counters->num_or("queries", 0) : 0;
      out.num("util.pool.tasks", p->num_or("tasks_executed", 0));
      out.num("util.pool.busy_hwm", p->num_or("busy_hwm", 0));
      out.num("util.pool.queue_hwm", p->num_or("queue_hwm", 0));
      out.num("util.pool.pools_per_query",
              p->num_or("pools_created", 0) / std::max(queries, 1.0));
    }
    if (const service::Value* prof = stats.find("profile");
        prof != nullptr && prof->is_array()) {
      for (const service::Value& stage : prof->array) {
        out.num("service.stage." + stage.str_or("stage", "") + "_us.p99",
                stage.num_or("p99_us", 0));
      }
    }
  }
  ++attempted;
  if (ask(pool[1], R"({"op":"shutdown"})").empty()) ++failed;
  for (auto& c : pool) ::close(c.fd);
  out.num("attempted", static_cast<double>(attempted));
  out.num("failed", static_cast<double>(failed));
  out.print();
  return failed == 0 && check_ok ? 0 : 1;
}

// -- whatif_mixed: the service layer in-process --------------------------------
//
// The same preload and request stream replayed serially through
// Session::handle_line (no socket, no queueing), so the gap to the socket
// numbers is transport plus waiting.  Also times parse_request on every
// request line, TailRun::fork on the preloaded journal, and the simulation
// under the baseline with a counters-only tracer.

int cmd_service(std::uint64_t seed, double seconds) {
  Out out;
  out.str("build_type", PERFBENCH_BUILD_TYPE);
  auto t0 = Clock::now();
  const TailStream tail = make_tail(seed);
  out.num("workload.site_log_ms", ms_since(t0));
  bool parse_ok = false;
  out.num("workload.parse_swf_line_us", parse_swf_us(tail.raw_lines, &parse_ok));

  LoadShape shape;
  shape.fixed_rate = 100.0;
  shape.fixed_s = seconds;
  const std::vector<Request> reqs = make_schedule(seed, tail, shape);
  t0 = Clock::now();
  std::size_t parse_errors = 0;
  for (const Request& r : reqs) {
    if (!service::parse_request(r.text).error.empty()) ++parse_errors;
  }
  out.num("service.parse_request_us",
          ms_since(t0) * 1000.0 / static_cast<double>(std::max<std::size_t>(reqs.size(), 1)));

  // The baseline as a bare TailRun: the preloaded journal submitted with
  // dense ids (as the session assigns them), advanced to frontier - 1.
  {
    service::TailRun run(service::TailConfig{cluster::Site::kBlueMountain, {}});
    trace::Tracer tracer(trace::TraceMode::kCountersOnly);
    run.scheduler().set_tracer(&tracer);
    SimTime frontier = 0;
    workload::JobId id = 0;
    for (std::size_t i = 0; i < std::min(kPreload, tail.raw_lines.size()); ++i) {
      workload::SwfLineOutcome o = workload::parse_swf_line(tail.raw_lines[i]);
      if (o.status != workload::SwfLineOutcome::Status::kJob) continue;
      o.job.id = id++;
      o.job.klass = workload::JobClass::kNative;
      run.submit(o.job);
      frontier = std::max(frontier, o.job.submit);
    }
    t0 = Clock::now();
    run.run_until(frontier - 1);
    const double wall_ms = ms_since(t0);
    const double ev = static_cast<double>(run.scheduler().engine().events_processed());
    out.num("sim.events", ev);
    out.num("sim.peak_queue_depth",
            static_cast<double>(run.scheduler().engine().stats().peak_queue_depth));
    out.num("sim.ns_per_event", wall_ms * 1e6 / std::max(ev, 1.0));
    SchedTotals sched;
    sched.add(tracer.summary(), &run.scheduler().stats());
    sched.write(out);
    out.samples("sched.profile_steps",
                {static_cast<double>(run.scheduler().profile().steps())});
    std::vector<double> fork_us;
    for (int k = 0; k < 200; ++k) {
      t0 = Clock::now();
      run.fork().reset();
      fork_us.push_back(ms_since(t0) * 1000.0);
    }
    out.samples("service.tailrun_fork_us", fork_us);
  }

  service::Session session(service::SessionConfig{});
  std::size_t failed = parse_errors, attempted = reqs.size();
  for (const std::string& line : tail.preload) {
    if (!reply_ok(Kind::kIngest, session.handle_line(line))) ++failed;
    ++attempted;
  }
  std::vector<double> query_ms, ingest_ms, rewind_ms;
  for (const Request& r : reqs) {
    if (r.kind == Kind::kStatus) continue;
    t0 = Clock::now();
    const std::string reply = session.handle_line(r.text);
    const double ms = ms_since(t0);
    if (!reply_ok(r.kind, reply)) ++failed;
    (r.kind == Kind::kQuery ? query_ms
     : r.kind == Kind::kLate ? rewind_ms
                             : ingest_ms)
        .push_back(ms);
  }
  out.samples("service.handle_query_ms", query_ms);
  out.samples("service.handle_ingest_ms", ingest_ms);
  out.samples("service.handle_rewind_ms", rewind_ms);
  out.flag("check_ok", parse_ok);
  out.num("attempted", static_cast<double>(attempted));
  out.num("failed", static_cast<double>(failed));
  out.print();
  return failed == 0 && parse_ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench <harvest|fleet|load|service> --seed N "
               "--seconds S [--trace 0|1] [load: --socket PATH --query-rate Q "
               "--check 0|1 --shutdown 0|1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const std::string cmd = args.command();
  const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  const double seconds = args.get_num_or("seconds", 5.0);
  const bool traced = args.get_int_or("trace", 0) != 0;
  if (!args.errors().empty() || seconds <= 0) return usage();
  if (cmd == "harvest") return cmd_harvest(seed, seconds, traced);
  if (cmd == "fleet") return cmd_fleet(seed, seconds, traced);
  if (cmd == "load") return cmd_load(args, seed, seconds);
  if (cmd == "service") return cmd_service(seed, seconds);
  return usage();
}
