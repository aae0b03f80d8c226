#include "metrics/report.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <vector>

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

CompletionHistograms completion_histograms(
    std::span<const sched::JobRecord> records) {
  CompletionHistograms h;
  for (const auto& r : records) {
    const auto wait = static_cast<std::uint64_t>(r.wait());
    if (r.interstitial()) {
      h.interstitial_wait_s.add(wait);
    } else {
      h.native_wait_s.add(wait);
      h.native_slowdown_milli.add(
          bounded_slowdown_milli(r.wait(), r.job.runtime));
    }
  }
  return h;
}

void RunMetrics::attach(sim::Engine& engine, sched::BatchScheduler& sched,
                        SimTime span) {
  sched.set_start_hook([this](const workload::Job& job, int free_before) {
    if (job.interstitial()) {
      interstice_cpus_at_dispatch_.add(
          static_cast<std::uint64_t>(free_before));
    }
  });
  if (cfg_.interval > 0) {
    if (cfg_.stop == kTimeInfinity) cfg_.stop = span;
    sampler_.emplace(engine, sched, cfg_);
  }
}

namespace {

using util::format_double;
using util::json_escape;

/// A machine's identity members, in the v1 "machine" section and in each
/// "machines" entry.
void write_identity(std::ostream& out, const cluster::MachineSpec& m) {
  out << "\"name\": \"" << json_escape(m.name) << "\", \"site\": \""
      << json_escape(m.site) << "\", \"cpus\": " << m.cpus
      << ", \"clock_ghz\": " << format_double(m.clock_ghz);
}

void write_jobs(std::ostream& out, const sched::RunResult& run) {
  out << "{\"native_completed\": " << run.native_count()
      << ", \"interstitial_completed\": " << run.interstitial_count()
      << ", \"killed\": " << run.killed.size() << "}";
}

/// The report's counters, one list for both sections: the job counts,
/// then every TraceSummary field in summary_fields() order.
std::vector<trace::SummaryField> report_counters(
    const sched::RunResult& run) {
  std::vector<trace::SummaryField> fields = {
      {"jobs_native_completed", run.native_count(), false},
      {"jobs_interstitial_completed", run.interstitial_count(), false},
      {"jobs_killed", run.killed.size(), false},
  };
  const auto summary = trace::summary_fields(run.trace);
  fields.insert(fields.end(), summary.begin(), summary.end());
  return fields;
}

void write_counter_object(std::ostream& out,
                          const std::vector<trace::SummaryField>& fields,
                          bool wall_clock) {
  out << "{";
  bool first = true;
  for (const auto& f : fields) {
    if (f.wall_clock != wall_clock) continue;
    if (!first) out << ",";
    first = false;
    out << "\n    \"" << json_escape(f.name) << "\": " << f.value;
  }
  out << (first ? "}" : "\n  }");
}

void write_histogram(std::ostream& out, const char* name,
                     const Log2Histogram& h) {
  out << "\n    {\"name\": \"" << name << "\", \"count\": " << h.total()
      << ", \"sum\": " << h.sum() << ", \"buckets\": [";
  const int lo = h.first_nonzero();
  const int hi = h.last_nonzero();
  for (int k = lo; k >= 0 && k <= hi; ++k) {
    if (k != lo) out << ", ";
    out << "[" << Log2Histogram::bucket_lo(k) << ", "
        << Log2Histogram::bucket_hi(k) << ", " << h.count(k) << "]";
  }
  out << "]}";
}

}  // namespace

void write_machine_entry(std::ostream& out, const sched::RunResult& run) {
  out << "    {";
  write_identity(out, run.machine);
  out << ",\n     \"span_s\": " << run.span
      << ", \"sim_end_s\": " << run.sim_end << ",\n     \"jobs\": ";
  write_jobs(out, run);
}

void write_run_report(std::ostream& out, const sched::RunResult& result,
                      const RunMetrics& metrics,
                      const ReportOptions& options) {
  out << "{\n";
  out << "  \"schema\": \"" << kRunReportSchema << "\",\n";
  out << "  \"compat\": [\"" << kRunReportCompat << "\"],\n";
  out << "  \"machine\": {";
  write_identity(out, result.machine);
  out << "},\n";
  // v2: per-machine sections.  A solo run is a one-machine fleet; the
  // fleet writer (grid/report.hpp) emits the same shape with one entry
  // per shard.
  out << "  \"machines\": [\n";
  write_machine_entry(out, result);
  out << "}\n  ],\n";
  out << "  \"span_s\": " << result.span << ",\n";
  out << "  \"sim_end_s\": " << result.sim_end << ",\n";
  out << "  \"sample_interval_s\": " << metrics.sample_interval() << ",\n";
  out << "  \"jobs\": ";
  write_jobs(out, result);
  out << ",\n";

  const std::vector<trace::SummaryField> counters = report_counters(result);
  out << "  \"counters\": ";
  write_counter_object(out, counters, /*wall_clock=*/false);
  out << ",\n";
  out << "  \"gauges\": {},\n";

  const CompletionHistograms done = completion_histograms(result.records);
  out << "  \"histograms\": [";
  write_histogram(out, "native_wait_s", done.native_wait_s);
  out << ",";
  write_histogram(out, "interstitial_wait_s", done.interstitial_wait_s);
  out << ",";
  write_histogram(out, "native_slowdown_milli", done.native_slowdown_milli);
  out << ",";
  write_histogram(out, "interstice_cpus_at_dispatch",
                  metrics.interstice_cpus_at_dispatch());
  out << "\n  ],\n";

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
    write_counter_object(out, counters, /*wall_clock=*/true);
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
