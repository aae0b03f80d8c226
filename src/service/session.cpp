#include "service/session.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <type_traits>
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
}

std::string Session::handle_line(std::string_view line) {
  try {
    const Request req = parse_request(line);
    if (!req.error.empty()) {
      std::lock_guard lk(mu_);
      ++query_errors_;
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
  }
  chain_.note_submitted(accepted_.size());
  frontier_ = std::max(frontier_, job.submit);
  chain_.advance_to(frontier_ - 1);
  ++epoch_;
  // Reference-arm memo entries are keyed by epoch; an accepted line
  // invalidates them all, so drop them rather than accumulate.
  ref_cache_.clear();
}

std::string Session::do_ingest(const std::string& line) {
  std::lock_guard lk(mu_);
  ++ingests_;
  const workload::SwfLineOutcome out = workload::parse_swf_line(line);
  switch (out.status) {
    case workload::SwfLineOutcome::Status::kError:
      ++ingests_rejected_;
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
    ++ingests_rejected_;
    return error_reply("ingest", "infeasible",
                       "job wants " + std::to_string(out.job.cpus) +
                           " cpus, machine has " +
                           std::to_string(machine_cpus_));
  }
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
    ++queries_;
    if (q.cpus > machine_cpus_) {
      ++query_errors_;
      return error_reply("whatif", "infeasible",
                         "job wants " + std::to_string(q.cpus) +
                             " cpus, machine has " +
                             std::to_string(machine_cpus_));
    }
    if (q.interstitial && cfg_.stream) {
      ++query_errors_;
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

  const auto wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - wall0)
                           .count();
  {
    std::lock_guard lk(mu_);
    query_latency_ns_.add(static_cast<std::uint64_t>(wall_ns));
  }
  return w.take();
}

// -- status / stats / /metrics ---------------------------------------------

namespace {

constexpr const char* kCounter = "counter";
constexpr const char* kGauge = "gauge";
constexpr const char* kSummary = "summary";
constexpr bool kStatus = true;  // Reading::identity

/// The summary every histogram renders as on both surfaces: count, sum
/// and these quantiles (stats key; the `/metrics` label is q itself).
struct Quantile {
  double q;
  const char* key;
};
constexpr Quantile kQuantiles[] = {
    {0.50, "p50_us"}, {0.90, "p90_us"}, {0.99, "p99_us"}};

/// Profile rows carry their stage as a stats member and a `/metrics` label.
constexpr const char* kRowKey = "stage";

/// Every histogram behind a reading holds wall-clock nanoseconds; both
/// surfaces show microseconds, converted here and nowhere else, so a
/// sub-microsecond span still adds to its stage's sum and quantiles.
double us(double ns) { return ns / 1000.0; }

void write_summary(JsonWriter& w, const metrics::Log2Histogram& h) {
  w.member("count", h.total());
  w.member("total_us", us(static_cast<double>(h.sum())));
  for (const Quantile& q : kQuantiles) w.member(q.key, us(h.quantile(q.q)));
}

void write_summary(obs::PrometheusWriter& prom, const std::string& family,
                   const std::string& labels,
                   const metrics::Log2Histogram& h) {
  for (const Quantile& q : kQuantiles) {
    char quantile[32];
    std::snprintf(quantile, sizeof quantile, "quantile=\"%g\"", q.q);
    prom.sample(family, labels.empty() ? quantile : labels + "," + quantile,
                us(h.quantile(q.q)));
  }
  prom.sample(family + "_sum", labels, us(static_cast<double>(h.sum())));
  prom.sample(family + "_count", labels, static_cast<double>(h.total()));
}

void write_json(JsonWriter& w, const Reading::Value& value) {
  std::visit(
      [&w](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, metrics::Log2Histogram>) {
          w.begin_object();
          write_summary(w, v);
          w.end_object();
        } else if constexpr (std::is_same_v<T, Reading::Rows>) {
          w.begin_array();
          for (const obs::StageProfile& row : v) {
            w.comma();
            w.begin_object();
            w.member(kRowKey, row.label);
            write_summary(w, row.ns);
            w.end_object();
          }
          w.end_array();
        } else {
          w.value(v);
        }
      },
      value);
}

/// Write readings as members of the open object.  A path "group.name"
/// nests under object `group`; readings of one group are adjacent in the
/// list, and a path has at most one '.'.
void write_json(JsonWriter& w, const std::vector<Reading>& readings,
                bool identity_only) {
  std::string_view group;  // the nested object now open, if any
  for (const Reading& r : readings) {
    if (identity_only && !r.identity) continue;
    const std::string_view path = r.path;
    const std::size_t dot = path.find('.');
    const std::string_view g =
        dot == std::string_view::npos ? "" : path.substr(0, dot);
    if (g != group) {
      if (!group.empty()) w.end_object();
      if (!g.empty()) {
        w.key(g);
        w.begin_object();
      }
      group = g;
    }
    w.key(path.substr(dot + 1));  // npos + 1 == 0: the whole path
    write_json(w, r.value);
  }
  if (!group.empty()) w.end_object();
}

void begin_reply(JsonWriter& w, const char* op, cluster::Site site) {
  w.begin_object();
  w.member("schema", kWhatIfSchema);
  w.member("op", op);
  w.member("site", cluster::machine_spec(site).name);
}

}  // namespace

double Session::ingest_lag_s() const {
  if (last_accepted_ingest_.time_since_epoch().count() == 0) return -1.0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       last_accepted_ingest_)
      .count();
}

std::vector<Reading> Session::session_readings() const {
  const double uptime_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - started_)
                              .count();
  return {
      {"stream", "istc_service_stream", kGauge,
       "1 when the baseline runs an interstitial stream",
       cfg_.stream.has_value(), kStatus},
      {"epoch", "istc_service_epoch", kGauge,
       "baseline epoch: accepted ingests so far", epoch_, kStatus},
      {"frontier_s", "istc_service_frontier_seconds", kGauge,
       "newest accepted submit time (sim seconds)",
       static_cast<std::int64_t>(frontier_), kStatus},
      {"now_s", "istc_service_now_seconds", kGauge,
       "live baseline clock (sim seconds)",
       static_cast<std::int64_t>(chain_.live().now()), kStatus},
      {"accepted_jobs", "istc_service_ingests_accepted", kCounter,
       "ingest lines accepted into the baseline",
       std::uint64_t{accepted_.size()}, kStatus},
      {"snapshots", "istc_service_snapshots", kGauge,
       "snapshots held by the baseline chain",
       std::uint64_t{chain_.snapshot_count()}, kStatus},
      {"rewinds", "istc_service_rewinds", kCounter,
       "out-of-order ingests that rewound the baseline",
       std::uint64_t{chain_.rewinds()}, kStatus},
      {"uptime_s", "istc_uptime_seconds", kGauge, "daemon wall-clock uptime",
       uptime_s},
      {"ingest_lag_s", "istc_ingest_lag_seconds", kGauge,
       "wall seconds since the last accepted ingest (-1 before any)",
       ingest_lag_s()},
      {"counters.queries", "istc_service_queries", kCounter,
       "what-if queries received", queries_},
      {"counters.query_errors", "istc_service_query_errors", kCounter,
       "malformed requests and refused what-if queries", query_errors_},
      {"counters.ingests", "istc_service_ingests", kCounter,
       "ingest requests received", ingests_},
      {"counters.ingests_rejected", "istc_service_ingests_rejected", kCounter,
       "ingest lines rejected as malformed or infeasible", ingests_rejected_},
      {"query_latency_us", "istc_service_query_latency_us", kSummary,
       "what-if wall-clock latency (microseconds, log2-bucketed)",
       query_latency_ns_, kStatus},
  };
}

std::vector<Reading> Session::readings() {
  // Process-wide values first, outside mu_; they come last in the list.
  const PoolStats pool = ThreadPool::global_stats();
  const obs::RecorderStats rec = obs::recorder_stats();
  Reading::Rows profile = obs::profile_snapshot();
  std::vector<Reading> all;
  {
    std::lock_guard lk(mu_);
    all = session_readings();
  }
  all.insert(all.end(), {
      {"pool.default_threads", "istc_pool_default_threads", kGauge,
       "workers a pool gets unless sized explicitly",
       std::uint64_t{default_thread_count()}},
      {"pool.tasks_submitted", "istc_pool_tasks_submitted", kCounter,
       "thread-pool tasks submitted, every pool since process start",
       pool.tasks_submitted},
      {"pool.tasks_executed", "istc_pool_tasks_executed", kCounter,
       "thread-pool tasks executed, every pool since process start",
       pool.tasks_executed},
      {"pool.queue_depth", "istc_pool_queue_depth", kGauge,
       "tasks currently queued across live pools",
       std::uint64_t{pool.queue_depth}},
      {"pool.queue_hwm", "istc_pool_queue_hwm", kGauge,
       "high-water mark of the pool queue depth",
       std::uint64_t{pool.queue_hwm}},
      {"pool.busy_workers", "istc_pool_busy_workers", kGauge,
       "workers currently running a task across live pools",
       std::uint64_t{pool.busy_workers}},
      {"pool.busy_hwm", "istc_pool_busy_hwm", kGauge,
       "high-water mark of concurrently busy workers",
       std::uint64_t{pool.busy_hwm}},
      {"pool.pools_created", "istc_pool_pools_created", kCounter,
       "thread pools constructed since process start", pool.pools_created},
      {"obs.enabled", "istc_obs_enabled", kGauge,
       "1 when spans and the stage profile are recording", obs::enabled()},
      {"obs.spans_recorded", "istc_obs_spans_recorded", kCounter,
       "spans recorded into the span ring", rec.recorded},
      {"obs.spans_dropped", "istc_obs_spans_dropped", kCounter,
       "spans that overwrote an unexported ring slot", rec.dropped},
      {"profile", "istc_obs_stage_us", kSummary,
       "wall-clock stage profile (microseconds, log2-bucketed)",
       std::move(profile)},
  });
  return all;
}

std::string Session::do_status() {
  std::unique_lock lk(mu_);
  const std::vector<Reading> readings = session_readings();
  const std::uint64_t hash = chain_.live().state_hash();
  lk.unlock();
  // Wall-clock telemetry is fine here: status replies are never part of
  // the purity comparison (only whatif replies are hashed/compared).
  JsonWriter w;
  begin_reply(w, "status", cfg_.site);
  write_json(w, readings, /*identity_only=*/true);
  w.member("baseline_hash", hex_hash(hash));
  w.end_object();
  return w.take();
}

std::string Session::do_stats() {
  JsonWriter w;
  begin_reply(w, "stats", cfg_.site);
  write_json(w, readings(), /*identity_only=*/false);
  w.end_object();
  return w.take();
}

std::string Session::prometheus_text() {
  obs::PrometheusWriter prom;
  for (const Reading& r : readings()) {
    const std::string family = r.family;
    prom.family(family, r.type, r.help);
    std::visit(
        [&](const auto& v) {
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, metrics::Log2Histogram>) {
            write_summary(prom, family, "", v);
          } else if constexpr (std::is_same_v<T, Reading::Rows>) {
            for (const obs::StageProfile& row : v) {
              write_summary(prom, family,
                            std::string(kRowKey) + "=\"" + row.label + "\"",
                            row.ns);
            }
          } else {
            prom.sample(family, "", static_cast<double>(v));
          }
        },
        r.value);
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
