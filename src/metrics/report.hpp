#pragma once

#include <iosfwd>
#include <optional>
#include <span>
#include <string>

#include "metrics/histogram.hpp"
#include "metrics/sampler.hpp"
#include "sched/record.hpp"

/// \file report.hpp
/// RunMetrics — what a run can only observe while it runs — and the
/// unified RunReport.
///
/// A finished sched::RunResult already holds most of what a RunReport
/// says: the job counts and completion histograms are functions of its
/// records, and its TraceSummary holds the scheduler counters, which
/// trace::summary_fields() enumerates.  A RunMetrics adds what the result
/// cannot reproduce: the sim-time sampler (when the config's interval is
/// > 0) and the interstice width at each interstitial dispatch.
/// write_run_report() renders both into one JSON document; the
/// deterministic sections are byte-identical across equal-seed runs, and
/// wall-clock timers live in an explicitly separate section that
/// ReportOptions can drop entirely.

namespace istc::sim {
class Engine;
}
namespace istc::sched {
class BatchScheduler;
}

namespace istc::metrics {

/// Integer bounded slowdown in milli-units:
/// max(1000, 1000 * (wait + runtime) / max(runtime, tau)).  Pure int64
/// arithmetic, so histograms of it are exactly reproducible.
std::uint64_t bounded_slowdown_milli(Seconds wait, Seconds runtime,
                                     Seconds tau = 10);

/// A job log's completion histograms, in the order a RunReport lists them.
struct CompletionHistograms {
  Log2Histogram native_wait_s;
  Log2Histogram interstitial_wait_s;
  Log2Histogram native_slowdown_milli;  ///< bounded_slowdown_milli
};

/// Bin every record's wait (by class) and every native's bounded slowdown.
CompletionHistograms completion_histograms(
    std::span<const sched::JobRecord> records);

class RunMetrics {
 public:
  explicit RunMetrics(SamplerConfig cfg = {}) : cfg_(cfg) {}

  /// The sampler, or nullptr when sampling is disabled / not attached.
  const SimSampler* sampler() const {
    return sampler_ ? &*sampler_ : nullptr;
  }
  Seconds sample_interval() const { return cfg_.interval; }

  /// Free CPUs at each interstitial dispatch (the interstice it filled).
  const Log2Histogram& interstice_cpus_at_dispatch() const {
    return interstice_cpus_at_dispatch_;
  }

  /// Wire into a live run: installs the scheduler start hook (interstice
  /// width at interstitial dispatch) and, when the interval is set, the
  /// sim-time sampler (stop defaults to `span`).  Both observe only —
  /// attaching metrics never perturbs the schedule (pinned by tests).
  void attach(sim::Engine& engine, sched::BatchScheduler& sched, SimTime span);

 private:
  SamplerConfig cfg_;
  Log2Histogram interstice_cpus_at_dispatch_;
  std::optional<SimSampler> sampler_;
};

/// RunReport schema identity.  v2 adds a "machines" section (one entry
/// per machine; single-element for solo runs) for grid/federated runs and
/// a "compat" list naming the older schemas whose fields are all still
/// present at their original paths.
inline constexpr const char* kRunReportSchema = "istc.run_report.v2";
inline constexpr const char* kRunReportCompat = "istc.run_report.v1";

struct ReportOptions {
  /// Emit the "wall_clock" section (host-time counters).  OFF yields a
  /// fully deterministic document — the form the determinism tests compare
  /// byte for byte.
  bool include_wall_clock = true;
};

/// The unified RunReport: one JSON document (kRunReportSchema) with run
/// identity, job totals, the counters (job counts, then every
/// deterministic trace::summary_fields() row), histogram buckets, the
/// sampled time series, a one-element "machines" section (the v2 shape
/// shared with fleet reports), and (optionally) the wall-clock
/// summary_fields() rows.  "gauges" stays an empty object, as v1 had it.
void write_run_report(std::ostream& out, const sched::RunResult& result,
                      const RunMetrics& metrics,
                      const ReportOptions& options = {});
void write_run_report_file(const std::string& path,
                           const sched::RunResult& result,
                           const RunMetrics& metrics,
                           const ReportOptions& options = {});

/// Open one "machines" entry: the machine's identity, span, sim end and
/// job counts, leaving the object open for further members and its
/// closing brace.  Solo and fleet reports (grid/report.hpp) both start
/// their entries here.
void write_machine_entry(std::ostream& out, const sched::RunResult& run);

/// The sampled series alone, as CSV (header = SimSampler::columns());
/// the header alone when the metrics carry no sampler.
void write_series_csv(const std::string& path, const RunMetrics& metrics);

}  // namespace istc::metrics
