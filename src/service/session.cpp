#include "service/session.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <utility>

#include "cluster/presets.hpp"
#include "core/sweep.hpp"
#include "obs/exposition.hpp"
#include "obs/obs.hpp"
#include "service/json.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"
#include "workload/swf.hpp"

namespace istc::service {

namespace {

/// User/group for speculative what-if *native* jobs: a reserved range
/// outside generated populations and distinct from kInterstitialUser.
constexpr workload::UserId kWhatIfUser = 59000;
constexpr workload::GroupId kWhatIfGroup = 590;

std::string hex_hash(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Per-point verdict inputs: (submit, start, wait) of every native
/// record, keyed by id, restricted to ingested natives.
std::map<workload::JobId, Seconds> native_waits(const sched::RunResult& run) {
  std::map<workload::JobId, Seconds> waits;
  for (const auto& r : run.records) {
    if (r.job.id < kStreamIdBase && !r.job.interstitial()) {
      waits.emplace(r.job.id, r.start - r.job.submit);
    }
  }
  return waits;
}

double harvested_cpu_seconds(const sched::RunResult& run, workload::JobId lo,
                             workload::JobId hi) {
  double total = 0.0;
  for (const auto& r : run.records) {
    if (r.job.id >= lo && r.job.id < hi) {
      total += static_cast<double>(r.job.cpus) *
               static_cast<double>(r.end - r.start);
    }
  }
  return total;
}

}  // namespace

Session::Session(const SessionConfig& cfg)
    : cfg_(cfg),
      chain_(std::make_unique<TailRun>(TailConfig{cfg.site, cfg.stream}),
             cfg.snapshot_interval) {
  const cluster::MachineSpec spec = cluster::machine_spec(cfg_.site);
  machine_cpus_ = spec.cpus;
  clock_ghz_ = spec.clock_ghz;
  queries_ = registry_.counter("service.queries");
  query_errors_ = registry_.counter("service.query_errors");
  ingests_ = registry_.counter("service.ingests");
  ingests_accepted_ = registry_.counter("service.ingests_accepted");
  ingests_rejected_ = registry_.counter("service.ingests_rejected");
  rewinds_metric_ = registry_.counter("service.rewinds");
  epoch_gauge_ = registry_.gauge("service.epoch");
  snapshots_gauge_ = registry_.gauge("service.snapshots");
  query_latency_us_ = registry_.histogram("service.query_latency_us",
                                          metrics::Determinism::kWallClock);
}

std::string Session::handle_line(std::string_view line) {
  try {
    const Request req = parse_request(line);
    if (!req.error.empty()) {
      std::lock_guard lk(mu_);
      registry_.add(query_errors_);
      return error_reply("error", req.error_code, req.error);
    }
    switch (req.op) {
      case Op::kWhatIf: {
        // Root span: one trace per query, with capture / sweep arms /
        // verdict hanging off it in the exported Chrome trace.
        obs::ScopedSpan span("query.whatif",
                             static_cast<std::int64_t>(req.query.jobs));
        return do_whatif(req.query);
      }
      case Op::kIngest: {
        obs::ScopedSpan span("ingest.apply");
        return do_ingest(req.line);
      }
      case Op::kStatus:
        return do_status();
      case Op::kStats:
        return do_stats();
      case Op::kShutdown:
        return do_shutdown();
    }
    return error_reply("error", "internal", "unreachable");
  } catch (const std::exception& e) {
    return error_reply("error", "internal", e.what());
  } catch (...) {
    return error_reply("error", "internal", "unknown exception");
  }
}

bool Session::shutdown_requested() const {
  std::lock_guard lk(mu_);
  return shutdown_;
}

std::uint64_t Session::epoch() const {
  std::lock_guard lk(mu_);
  return epoch_;
}

SimTime Session::frontier() const {
  std::lock_guard lk(mu_);
  return frontier_;
}

std::uint64_t Session::baseline_hash() {
  std::lock_guard lk(mu_);
  return chain_.live().state_hash();
}

std::size_t Session::accepted_jobs() const {
  std::lock_guard lk(mu_);
  return accepted_.size();
}

std::size_t Session::snapshot_count() const {
  std::lock_guard lk(mu_);
  return chain_.snapshot_count();
}

std::size_t Session::rewinds() const {
  std::lock_guard lk(mu_);
  return chain_.rewinds();
}

// -- ingest -----------------------------------------------------------------

void Session::ingest_job(workload::Job job) {
  job.id = static_cast<workload::JobId>(accepted_.size());
  job.klass = workload::JobClass::kNative;
  if (job.submit > chain_.live().now()) {
    // In-order: the submission is still a future event for the live run.
    chain_.live().submit(job);
    accepted_.push_back(job);
  } else {
    // Out-of-order: the live run has advanced past (or onto) the submit
    // time, so everything it simulated from there is invalid.  Rewind to
    // the newest snapshot strictly older than the line and replay the
    // accepted tail in ingest order — the order the from-scratch oracle
    // uses, so the rebuilt baseline is bit-identical to it.
    obs::ScopedSpan span("ingest.rewind");
    accepted_.push_back(job);
    const std::size_t seq = chain_.rewind_to(job.submit);
    for (std::size_t i = seq; i < accepted_.size(); ++i) {
      chain_.live().submit(accepted_[i]);
    }
    registry_.add(rewinds_metric_);
  }
  chain_.note_submitted(accepted_.size());
  frontier_ = std::max(frontier_, job.submit);
  chain_.advance_to(frontier_ - 1);
  ++epoch_;
  // Reference-arm memo entries are keyed by epoch; an accepted line
  // invalidates them all, so drop them rather than accumulate.
  ref_cache_.clear();
  registry_.set(epoch_gauge_, static_cast<std::int64_t>(epoch_));
  registry_.set(snapshots_gauge_,
                static_cast<std::int64_t>(chain_.snapshot_count()));
}

std::string Session::do_ingest(const std::string& line) {
  std::lock_guard lk(mu_);
  registry_.add(ingests_);
  const workload::SwfLineOutcome out = workload::parse_swf_line(line);
  switch (out.status) {
    case workload::SwfLineOutcome::Status::kError:
      registry_.add(ingests_rejected_);
      return error_reply("ingest", "bad_line", out.error);
    case workload::SwfLineOutcome::Status::kBlank:
    case workload::SwfLineOutcome::Status::kSkipped: {
      JsonWriter w;
      w.begin_object();
      w.member("schema", kWhatIfSchema);
      w.member("op", "ingest");
      w.member("accepted", false);
      w.member("reason",
               out.status == workload::SwfLineOutcome::Status::kBlank
                   ? "blank"
                   : "filtered");
      w.member("epoch", epoch_);
      w.end_object();
      return w.take();
    }
    case workload::SwfLineOutcome::Status::kJob:
      break;
  }
  if (out.job.cpus > machine_cpus_) {
    registry_.add(ingests_rejected_);
    return error_reply("ingest", "infeasible",
                       "job wants " + std::to_string(out.job.cpus) +
                           " cpus, machine has " +
                           std::to_string(machine_cpus_));
  }
  registry_.add(ingests_accepted_);
  last_accepted_ingest_ = std::chrono::steady_clock::now();
  ingest_job(out.job);
  JsonWriter w;
  w.begin_object();
  w.member("schema", kWhatIfSchema);
  w.member("op", "ingest");
  w.member("accepted", true);
  w.member("id", static_cast<std::uint64_t>(accepted_.back().id));
  w.member("epoch", epoch_);
  w.member("frontier_s", static_cast<std::int64_t>(frontier_));
  w.member("now_s", static_cast<std::int64_t>(chain_.live().now()));
  w.end_object();
  return w.take();
}

// -- what-if ----------------------------------------------------------------

/// Everything a query needs from the baseline, captured in one critical
/// section so the reply is consistent even while other clients ingest.
struct Session::QueryBase {
  std::uint64_t epoch = 0;
  SimTime frontier = 0;  ///< live clock at capture (fork time)
  std::uint64_t hash = 0;
  bool has_stream = false;
  std::unique_ptr<TailRun> spec_prefix;  ///< forked mode: what-if arm base
  std::unique_ptr<TailRun> ref_prefix;   ///< forked mode: reference arm base
  std::vector<workload::Job> accepted;   ///< scratch mode: replay journal
};

std::string Session::do_whatif(const WhatIfQuery& q) {
  const auto wall0 = std::chrono::steady_clock::now();

  QueryBase base;
  {
    obs::ScopedSpan span("query.capture");
    std::lock_guard lk(mu_);
    registry_.add(queries_);
    if (q.cpus > machine_cpus_) {
      registry_.add(query_errors_);
      return error_reply("whatif", "infeasible",
                         "job wants " + std::to_string(q.cpus) +
                             " cpus, machine has " +
                             std::to_string(machine_cpus_));
    }
    if (q.interstitial && cfg_.stream) {
      registry_.add(query_errors_);
      return error_reply("whatif", "conflict",
                         "baseline already runs an interstitial stream; "
                         "interstitial what-ifs need a natives-only baseline");
    }
    base.epoch = epoch_;
    base.frontier = chain_.live().now();
    base.hash = chain_.live().state_hash();
    base.has_stream = cfg_.stream.has_value();
    if (q.scratch) {
      base.accepted = accepted_;
    } else {
      base.spec_prefix = chain_.live().fork();
      base.ref_prefix = chain_.live().fork();
    }
  }

  const SimTime frontier = base.frontier;
  const std::size_t npoints = q.points_s.size();

  // One fork (or scratch rebuild) per point; apply the speculative
  // workload at frontier + offset and drain to collect the schedule.
  auto finish_spec = [&](TailRun& run, std::size_t i) -> sched::RunResult {
    const SimTime at = frontier + q.points_s[i];
    if (auto* driver = run.driver()) {
      driver->set_stop_time(at + q.horizon_s);
    }
    run.run_until(at);
    if (q.interstitial) {
      core::ProjectSpec spec = core::ProjectSpec::paper(
          q.jobs, q.cpus,
          static_cast<Seconds>(static_cast<double>(q.runtime_s) * clock_ghz_));
      spec.start_time = at;
      spec.stop_time = at + q.horizon_s;
      run.add_stream(spec, kSpeculativeIdBase);
    } else {
      for (std::size_t j = 0; j < q.jobs; ++j) {
        workload::Job job;
        job.id = kSpeculativeIdBase + static_cast<workload::JobId>(j);
        job.klass = workload::JobClass::kNative;
        job.user = kWhatIfUser;
        job.group = kWhatIfGroup;
        job.cpus = q.cpus;
        job.submit = at;
        job.runtime = q.runtime_s;
        job.estimate = q.runtime_s;
        run.submit(job);
      }
    }
    return run.finish();
  };

  // The reference arm: the same window with *no* speculative workload.
  auto finish_ref = [&](TailRun& run, std::size_t i) -> sched::RunResult {
    const SimTime at = frontier + q.points_s[i];
    if (auto* driver = run.driver()) {
      driver->set_stop_time(at + q.horizon_s);
    }
    run.run_until(at);
    return run.finish();
  };

  std::vector<sched::RunResult> specs;
  std::vector<sched::RunResult> refs(npoints);
  if (q.scratch) {
    // Reference arm of the bench's bit-equality gate: every arm of every
    // point re-simulated from time zero through the same finish path.
    auto make_run = [&](std::size_t) {
      auto run = std::make_unique<TailRun>(TailConfig{cfg_.site, cfg_.stream});
      for (const workload::Job& job : base.accepted) run->submit(job);
      return run;
    };
    core::SweepRunner<TailRun> sweep(npoints, make_run);
    specs = sweep.run_scratch(frontier, finish_spec);
    for (std::size_t i = 0; i < npoints; ++i) {
      auto run = make_run(i);
      run->run_until(frontier);
      refs[i] = finish_ref(*run, i);
    }
  } else {
    // Forked mode: the prefix fork was taken under the lock at the
    // captured epoch; SweepRunner forks it once per point (its prefix
    // advance to `frontier` is a no-op — the live run already stood
    // there) and the per-point advancement fans out.
    auto prefix = std::make_shared<std::unique_ptr<TailRun>>(
        std::move(base.spec_prefix));
    auto make_run = [prefix](std::size_t) { return std::move(*prefix); };
    core::SweepRunner<TailRun> sweep(npoints, make_run);
    specs = sweep.run_forked(frontier, finish_spec);
    // Reference arms are memoized per (epoch, point, horizon): concurrent
    // same-epoch queries share one baseline-window simulation.
    for (std::size_t i = 0; i < npoints; ++i) {
      std::uint64_t key = util::kFnvOffset;
      key = util::fnv1a_u64(key, base.epoch);
      key = util::fnv1a_u64(key, static_cast<std::uint64_t>(frontier));
      key = util::fnv1a_u64(key, static_cast<std::uint64_t>(q.points_s[i]));
      key = util::fnv1a_u64(key, static_cast<std::uint64_t>(q.horizon_s));
      refs[i] = ref_cache_.memoized(key, [&]() -> sched::RunResult {
        std::unique_ptr<TailRun> run = base.ref_prefix->fork();
        return finish_ref(*run, i);
      });
    }
  }

  // -- verdict --------------------------------------------------------------

  obs::ScopedSpan verdict_span("query.verdict");
  JsonWriter w;
  w.begin_object();
  w.member("schema", kWhatIfSchema);
  w.member("op", "whatif");
  w.member("project", q.project);
  w.member("class", q.interstitial ? "interstitial" : "native");
  w.member("epoch", base.epoch);
  w.member("frontier_s", static_cast<std::int64_t>(frontier));
  w.member("baseline_hash", hex_hash(base.hash));
  w.member("horizon_s", static_cast<std::int64_t>(q.horizon_s));
  w.key("points");
  w.begin_array();
  for (std::size_t i = 0; i < npoints; ++i) {
    const sched::RunResult& spec = specs[i];
    const sched::RunResult& ref = refs[i];
    const SimTime at = frontier + q.points_s[i];

    std::size_t completed = 0;
    std::size_t killed = 0;
    SimTime last_end = at;
    double wait_sum = 0.0;
    for (const auto& r : spec.records) {
      if (r.job.id < kSpeculativeIdBase) continue;
      ++completed;
      last_end = std::max(last_end, r.end);
      wait_sum += static_cast<double>(r.start - r.job.submit);
    }
    for (const auto& r : spec.killed) {
      if (r.job.id >= kSpeculativeIdBase) ++killed;
    }

    const auto ref_waits = native_waits(ref);
    const auto spec_waits = native_waits(spec);
    std::size_t compared = 0;
    std::size_t affected = 0;
    double delta_sum = 0.0;
    for (const auto& [id, wait] : ref_waits) {
      const auto it = spec_waits.find(id);
      if (it == spec_waits.end()) continue;
      ++compared;
      const double delta = static_cast<double>(it->second - wait);
      delta_sum += delta;
      if (it->second != wait) ++affected;
    }

    w.comma();
    w.begin_object();
    w.member("offset_s", static_cast<std::int64_t>(q.points_s[i]));
    w.member("submit_s", static_cast<std::int64_t>(at));
    w.member("completed", completed);
    w.member("killed", killed);
    w.member("makespan_s", static_cast<std::int64_t>(last_end - at));
    w.member("mean_wait_s",
             completed > 0 ? wait_sum / static_cast<double>(completed) : 0.0);
    w.member("harvested_cpu_s",
             harvested_cpu_seconds(spec, kSpeculativeIdBase,
                                   workload::kInvalidJob));
    w.key("native_impact");
    w.begin_object();
    w.member("compared", compared);
    w.member("affected", affected);
    w.member("mean_wait_delta_s",
             compared > 0 ? delta_sum / static_cast<double>(compared) : 0.0);
    w.end_object();
    if (base.has_stream) {
      w.member("stream_harvest_delta_cpu_s",
               harvested_cpu_seconds(spec, kStreamIdBase, kSpeculativeIdBase) -
                   harvested_cpu_seconds(ref, kStreamIdBase,
                                         kSpeculativeIdBase));
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();

  const auto wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - wall0)
                           .count();
  {
    std::lock_guard lk(mu_);
    registry_.observe(query_latency_us_, static_cast<std::uint64_t>(wall_us));
  }
  return w.take();
}

// -- status / stats / shutdown ----------------------------------------------

namespace {

/// {"count":N,"p50_us":...,"p90_us":...,"p99_us":...} for a histogram.
void write_quantiles(JsonWriter& w, const char* key,
                     const metrics::Log2Histogram& h) {
  w.key(key);
  w.begin_object();
  w.member("count", h.total());
  w.member("p50_us", h.quantile(0.50));
  w.member("p90_us", h.quantile(0.90));
  w.member("p99_us", h.quantile(0.99));
  w.end_object();
}

}  // namespace

double Session::ingest_lag_s() const {
  if (last_accepted_ingest_.time_since_epoch().count() == 0) return -1.0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       last_accepted_ingest_)
      .count();
}

std::string Session::do_status() {
  std::lock_guard lk(mu_);
  JsonWriter w;
  w.begin_object();
  w.member("schema", kWhatIfSchema);
  w.member("op", "status");
  w.member("site", cluster::machine_spec(cfg_.site).name);
  w.member("stream", cfg_.stream.has_value());
  w.member("epoch", epoch_);
  w.member("frontier_s", static_cast<std::int64_t>(frontier_));
  w.member("now_s", static_cast<std::int64_t>(chain_.live().now()));
  w.member("accepted_jobs", accepted_.size());
  w.member("snapshots", chain_.snapshot_count());
  w.member("rewinds", chain_.rewinds());
  w.member("baseline_hash", hex_hash(chain_.live().state_hash()));
  // Wall-clock telemetry is fine here: status replies are never part of
  // the purity comparison (only whatif replies are hashed/compared).
  write_quantiles(w, "query_latency_us",
                  registry_.histogram_ref(query_latency_us_));
  w.end_object();
  return w.take();
}

std::string Session::do_stats() {
  const auto pool = ThreadPool::global_stats();
  const obs::RecorderStats rec = obs::recorder_stats();
  const auto profile = obs::profile_snapshot();

  std::lock_guard lk(mu_);
  JsonWriter w;
  w.begin_object();
  w.member("schema", kWhatIfSchema);
  w.member("op", "stats");
  w.member("site", cluster::machine_spec(cfg_.site).name);
  w.member("stream", cfg_.stream.has_value());
  w.member("epoch", epoch_);
  w.member("frontier_s", static_cast<std::int64_t>(frontier_));
  w.member("now_s", static_cast<std::int64_t>(chain_.live().now()));
  w.member("accepted_jobs", accepted_.size());
  w.member("snapshots", chain_.snapshot_count());
  w.member("rewinds", chain_.rewinds());
  w.member("uptime_s",
           std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         started_)
               .count());
  w.member("ingest_lag_s", ingest_lag_s());

  w.key("counters");
  w.begin_object();
  w.member("queries", registry_.counter_value(queries_));
  w.member("query_errors", registry_.counter_value(query_errors_));
  w.member("ingests", registry_.counter_value(ingests_));
  w.member("ingests_accepted", registry_.counter_value(ingests_accepted_));
  w.member("ingests_rejected", registry_.counter_value(ingests_rejected_));
  w.end_object();

  write_quantiles(w, "query_latency_us",
                  registry_.histogram_ref(query_latency_us_));

  w.key("pool");
  w.begin_object();
  w.member("default_threads", default_thread_count());
  w.member("tasks_submitted", pool.tasks_submitted);
  w.member("tasks_executed", pool.tasks_executed);
  w.member("queue_depth", pool.queue_depth);
  w.member("queue_hwm", pool.queue_hwm);
  w.member("busy_workers", pool.busy_workers);
  w.member("busy_hwm", pool.busy_hwm);
  w.member("pools_created", pool.pools_created);
  w.end_object();

  w.key("obs");
  w.begin_object();
  w.member("enabled", obs::enabled());
  w.member("spans_recorded", rec.recorded);
  w.member("spans_dropped", rec.dropped);
  w.member("span_threads", rec.threads);
  w.end_object();

  w.key("profile");
  w.begin_array();
  for (const auto& p : profile) {
    w.comma();
    w.begin_object();
    w.member("stage", p.label);
    w.member("count", p.count);
    w.member("total_us", p.total_us);
    w.member("p50_us", p.p50_us);
    w.member("p90_us", p.p90_us);
    w.member("p99_us", p.p99_us);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::string Session::prometheus_text() {
  const auto pool = ThreadPool::global_stats();
  const obs::RecorderStats rec = obs::recorder_stats();
  const auto profile = obs::profile_snapshot();
  obs::PrometheusWriter prom;

  std::lock_guard lk(mu_);
  // Registry instruments under their sanitized names, deterministic and
  // wall-clock alike (Prometheus consumers do their own bucketing).
  for (const auto& c : registry_.counters()) {
    const std::string name = obs::PrometheusWriter::sanitize(c.name);
    prom.family(name, "counter", c.name);
    prom.sample(name, static_cast<double>(c.value));
  }
  for (const auto& g : registry_.gauges()) {
    const std::string name = obs::PrometheusWriter::sanitize(g.name);
    prom.family(name, "gauge", g.name);
    prom.sample(name, static_cast<double>(g.value));
  }
  for (const auto& h : registry_.histograms()) {
    static constexpr double kQ[] = {0.5, 0.9, 0.99};
    const double v[] = {h.hist.quantile(0.5), h.hist.quantile(0.9),
                        h.hist.quantile(0.99)};
    prom.summary(obs::PrometheusWriter::sanitize(h.name), h.name, kQ, v, 3,
                 static_cast<double>(h.hist.sum()), h.hist.total());
  }

  prom.family("istc_ingest_lag_seconds", "gauge",
              "wall seconds since the last accepted ingest (-1 before any)");
  prom.sample("istc_ingest_lag_seconds", ingest_lag_s());
  prom.family("istc_snapshot_chain_depth", "gauge",
              "snapshots currently held by the baseline chain");
  prom.sample("istc_snapshot_chain_depth",
              static_cast<double>(chain_.snapshot_count()));
  prom.family("istc_uptime_seconds", "gauge", "daemon wall-clock uptime");
  prom.sample("istc_uptime_seconds",
              std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - started_)
                  .count());

  prom.family("istc_pool_tasks_executed", "counter",
              "thread-pool tasks executed, every pool since process start");
  prom.sample("istc_pool_tasks_executed",
              static_cast<double>(pool.tasks_executed));
  prom.family("istc_pool_queue_depth", "gauge",
              "tasks currently queued across live pools");
  prom.sample("istc_pool_queue_depth", static_cast<double>(pool.queue_depth));
  prom.family("istc_pool_queue_hwm", "gauge",
              "high-water mark of the pool queue depth");
  prom.sample("istc_pool_queue_hwm", static_cast<double>(pool.queue_hwm));
  prom.family("istc_pool_busy_workers", "gauge",
              "workers currently running a task across live pools");
  prom.sample("istc_pool_busy_workers",
              static_cast<double>(pool.busy_workers));
  prom.family("istc_pool_busy_hwm", "gauge",
              "high-water mark of concurrently busy workers");
  prom.sample("istc_pool_busy_hwm", static_cast<double>(pool.busy_hwm));

  prom.family("istc_obs_spans_recorded", "counter",
              "spans recorded into the per-thread rings");
  prom.sample("istc_obs_spans_recorded", static_cast<double>(rec.recorded));
  prom.family("istc_obs_spans_dropped", "counter",
              "spans that overwrote an unexported ring slot");
  prom.sample("istc_obs_spans_dropped", static_cast<double>(rec.dropped));

  if (!profile.empty()) {
    prom.family("istc_obs_stage_us", "summary",
                "wall-clock stage profile (microseconds, log2-bucketed)");
    for (const auto& p : profile) {
      char label[96];
      std::snprintf(label, sizeof label, "stage=\"%s\",quantile=\"0.5\"",
                    p.label.c_str());
      prom.sample("istc_obs_stage_us", label, p.p50_us);
      std::snprintf(label, sizeof label, "stage=\"%s\",quantile=\"0.99\"",
                    p.label.c_str());
      prom.sample("istc_obs_stage_us", label, p.p99_us);
      std::snprintf(label, sizeof label, "stage=\"%s\"", p.label.c_str());
      prom.sample("istc_obs_stage_us_count", label,
                  static_cast<double>(p.count));
      prom.sample("istc_obs_stage_us_sum", label,
                  static_cast<double>(p.total_us));
    }
  }
  return prom.take();
}

std::string Session::do_shutdown() {
  std::lock_guard lk(mu_);
  shutdown_ = true;
  JsonWriter w;
  w.begin_object();
  w.member("schema", kWhatIfSchema);
  w.member("op", "shutdown");
  w.member("ok", true);
  w.end_object();
  return w.take();
}

}  // namespace istc::service
