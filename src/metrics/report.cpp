#include "metrics/report.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "trace/export.hpp"
#include "util/assert.hpp"
#include "util/csv.hpp"
#include "util/json_text.hpp"

namespace istc::metrics {

std::uint64_t bounded_slowdown_milli(Seconds wait, Seconds runtime,
                                     Seconds tau) {
  ISTC_EXPECTS(wait >= 0);
  ISTC_EXPECTS(runtime >= 0);
  ISTC_EXPECTS(tau > 0);
  const std::uint64_t denom =
      static_cast<std::uint64_t>(std::max(runtime, tau));
  const std::uint64_t num =
      static_cast<std::uint64_t>(wait + runtime) * 1000u;
  return std::max<std::uint64_t>(1000, num / denom);
}

RunMetrics::RunMetrics(SamplerConfig cfg) : cfg_(cfg) {
  native_wait_s_ = registry_.histogram("native_wait_s");
  interstitial_wait_s_ = registry_.histogram("interstitial_wait_s");
  native_slowdown_milli_ = registry_.histogram("native_slowdown_milli");
  interstice_cpus_at_dispatch_ =
      registry_.histogram("interstice_cpus_at_dispatch");
  jobs_native_completed_ = registry_.counter("jobs_native_completed");
  jobs_interstitial_completed_ =
      registry_.counter("jobs_interstitial_completed");
  jobs_killed_ = registry_.counter("jobs_killed");
}

void RunMetrics::attach(sim::Engine& engine, sched::BatchScheduler& sched,
                        SimTime span) {
  sched.set_start_hook([this](const workload::Job& job, int free_before) {
    if (job.interstitial()) {
      registry_.observe(interstice_cpus_at_dispatch_,
                        static_cast<std::uint64_t>(free_before));
    }
  });
  if (cfg_.interval > 0) {
    if (cfg_.stop == kTimeInfinity) cfg_.stop = span;
    sampler_.emplace(engine, sched, cfg_);
  }
}

void RunMetrics::ingest_records(std::span<const sched::JobRecord> records) {
  for (const auto& r : records) {
    const auto wait = static_cast<std::uint64_t>(r.wait());
    if (r.interstitial()) {
      registry_.observe(interstitial_wait_s_, wait);
    } else {
      registry_.observe(native_wait_s_, wait);
      registry_.observe(native_slowdown_milli_,
                        bounded_slowdown_milli(r.wait(), r.job.runtime));
    }
  }
}

void RunMetrics::ingest(const sched::RunResult& result) {
  ingest_records(result.records);
  registry_.set_counter(jobs_native_completed_,
                        static_cast<std::uint64_t>(result.native_count()));
  registry_.set_counter(
      jobs_interstitial_completed_,
      static_cast<std::uint64_t>(result.interstitial_count()));
  registry_.set_counter(jobs_killed_,
                        static_cast<std::uint64_t>(result.killed.size()));
  // Bridge: every TraceSummary counter, registered under its CSV column
  // name (one enumeration, trace::summary_fields, feeds both outputs).
  for (const auto& f : trace::summary_fields(result.trace)) {
    const Determinism det =
        f.wall_clock ? Determinism::kWallClock : Determinism::kDeterministic;
    registry_.set_counter(registry_.counter(f.name, det), f.value);
  }
}

namespace {

using util::format_double;
using util::json_escape;

void write_counter_object(std::ostream& out, const Registry& reg,
                          Determinism det) {
  out << "{";
  bool first = true;
  for (const auto& c : reg.counters()) {
    if (c.det != det) continue;
    if (!first) out << ",";
    first = false;
    out << "\n    \"" << json_escape(c.name) << "\": " << c.value;
  }
  out << (first ? "}" : "\n  }");
}

}  // namespace

void write_run_report(std::ostream& out, const sched::RunResult& result,
                      const RunMetrics& metrics,
                      const ReportOptions& options) {
  const Registry& reg = metrics.registry();
  out << "{\n";
  out << "  \"schema\": \"" << kRunReportSchema << "\",\n";
  out << "  \"compat\": [\"" << kRunReportCompat << "\"],\n";
  out << "  \"machine\": {\"name\": \"" << json_escape(result.machine.name)
      << "\", \"site\": \"" << json_escape(result.machine.site)
      << "\", \"cpus\": " << result.machine.cpus
      << ", \"clock_ghz\": " << format_double(result.machine.clock_ghz)
      << "},\n";
  // v2: per-machine sections.  A solo run is a one-machine fleet; the
  // fleet writer (grid/report.hpp) emits the same shape with one entry
  // per shard.
  out << "  \"machines\": [\n    {\"name\": \""
      << json_escape(result.machine.name) << "\", \"site\": \""
      << json_escape(result.machine.site)
      << "\", \"cpus\": " << result.machine.cpus
      << ", \"clock_ghz\": " << format_double(result.machine.clock_ghz)
      << ",\n     \"span_s\": " << result.span
      << ", \"sim_end_s\": " << result.sim_end
      << ",\n     \"jobs\": {\"native_completed\": " << result.native_count()
      << ", \"interstitial_completed\": " << result.interstitial_count()
      << ", \"killed\": " << result.killed.size() << "}}\n  ],\n";
  out << "  \"span_s\": " << result.span << ",\n";
  out << "  \"sim_end_s\": " << result.sim_end << ",\n";
  out << "  \"sample_interval_s\": " << metrics.sample_interval() << ",\n";
  out << "  \"jobs\": {\"native_completed\": " << result.native_count()
      << ", \"interstitial_completed\": " << result.interstitial_count()
      << ", \"killed\": " << result.killed.size() << "},\n";

  out << "  \"counters\": ";
  write_counter_object(out, reg, Determinism::kDeterministic);
  out << ",\n";

  out << "  \"gauges\": {";
  {
    bool first = true;
    for (const auto& g : reg.gauges()) {
      if (g.det != Determinism::kDeterministic) continue;
      if (!first) out << ",";
      first = false;
      out << "\n    \"" << json_escape(g.name) << "\": " << g.value;
    }
    out << (first ? "}" : "\n  }");
  }
  out << ",\n";

  out << "  \"histograms\": [";
  {
    bool first_h = true;
    for (const auto& h : reg.histograms()) {
      if (h.det != Determinism::kDeterministic) continue;
      if (!first_h) out << ",";
      first_h = false;
      out << "\n    {\"name\": \"" << json_escape(h.name)
          << "\", \"count\": " << h.hist.total()
          << ", \"sum\": " << h.hist.sum() << ", \"buckets\": [";
      const int lo = h.hist.first_nonzero();
      const int hi = h.hist.last_nonzero();
      for (int k = lo; k >= 0 && k <= hi; ++k) {
        if (k != lo) out << ", ";
        out << "[" << Log2Histogram::bucket_lo(k) << ", "
            << Log2Histogram::bucket_hi(k) << ", " << h.hist.count(k) << "]";
      }
      out << "]}";
    }
    out << (first_h ? "]" : "\n  ]");
  }
  out << ",\n";

  out << "  \"series\": ";
  if (const SimSampler* s = metrics.sampler(); s != nullptr) {
    out << "{\n    \"interval_s\": " << s->config().interval
        << ",\n    \"samples\": " << s->rows().size()
        << ",\n    \"dropped\": " << s->dropped() << ",\n    \"columns\": [";
    const auto& cols = SimSampler::columns();
    for (int i = 0; i < SimSampler::kNumSeries; ++i) {
      if (i != 0) out << ", ";
      out << "\"" << cols[static_cast<std::size_t>(i)] << "\"";
    }
    out << "],\n    \"rows\": [";
    bool first_r = true;
    for (const auto& row : s->rows()) {
      out << (first_r ? "\n" : ",\n") << "      [";
      first_r = false;
      for (int i = 0; i < SimSampler::kNumSeries; ++i) {
        if (i != 0) out << ", ";
        out << row[static_cast<std::size_t>(i)];
      }
      out << "]";
    }
    out << (first_r ? "]" : "\n    ]") << "\n  }";
  } else {
    out << "null";
  }

  if (options.include_wall_clock) {
    // Host-time measurements, explicitly quarantined: everything above
    // this key is byte-identical across equal-seed runs.
    out << ",\n  \"wall_clock\": ";
    write_counter_object(out, reg, Determinism::kWallClock);
  }
  out << "\n}\n";
}

void write_run_report_file(const std::string& path,
                           const sched::RunResult& result,
                           const RunMetrics& metrics,
                           const ReportOptions& options) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path);
  write_run_report(out, result, metrics, options);
}

void write_series_csv(const std::string& path, const RunMetrics& metrics) {
  CsvWriter csv(path);
  const auto& cols = SimSampler::columns();
  std::vector<std::string> header(cols.begin(), cols.end());
  csv.header(header);
  const SimSampler* s = metrics.sampler();
  if (s == nullptr) return;  // header-only file: sampling was off
  std::vector<std::string> cells(SimSampler::kNumSeries);
  for (const auto& row : s->rows()) {
    for (int i = 0; i < SimSampler::kNumSeries; ++i) {
      cells[static_cast<std::size_t>(i)] =
          std::to_string(row[static_cast<std::size_t>(i)]);
    }
    csv.row(cells);
  }
}

}  // namespace istc::metrics
