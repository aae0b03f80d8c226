#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/summary.hpp"
#include "trace/tracer.hpp"

/// \file export.hpp
/// Trace serialization: JSONL (one event per line, machine-greppable),
/// Chrome trace-event JSON (load in chrome://tracing or Perfetto: jobs as
/// duration events on per-CPU-block tracks, gate decisions as instants),
/// and a flat CSV counter dump via util/csv.
///
/// All exporters write events in (time, seq) order with fixed field order,
/// so equal traces serialize to byte-identical output.

namespace istc::trace {

/// One JSON object per line; field order fixed per kind (see event.hpp).
void write_jsonl(std::ostream& out, const Tracer& tracer);
void write_jsonl_file(const std::string& path, const Tracer& tracer);

struct ChromeTraceOptions {
  std::string machine_name = "machine";
  /// Total CPUs; used to lay jobs out on contiguous CPU-block tracks.
  int total_cpus = 0;
};

/// Chrome trace-event format (the chrome://tracing JSON flavour).  Jobs
/// become "X" complete events whose track (tid) is the first CPU of a
/// contiguous block assigned first-fit at export time; gate decisions and
/// scheduler housekeeping become instant events on a scheduler process.
void write_chrome_trace(std::ostream& out, const Tracer& tracer,
                        const ChromeTraceOptions& options);
void write_chrome_trace_file(const std::string& path, const Tracer& tracer,
                             const ChromeTraceOptions& options);

/// One named TraceSummary field.  `wall_clock` marks host-time (`*_us`)
/// measurements, which are not deterministic across runs; everything else
/// is sim-time derived and byte-stable for a given seed.
struct SummaryField {
  const char* name;
  std::uint64_t value;
  bool wall_clock;
};

/// Every TraceSummary counter as an ordered (name, value, wall_clock)
/// table.  This is the single enumeration behind the counters.csv columns
/// and the RunReport's `counters` and `wall_clock` sections
/// (metrics/report.hpp), so a counter added here shows up everywhere at
/// once.  Order is pinned: new fields append at the end, so existing CSV
/// consumers keep their column offsets.
std::vector<SummaryField> summary_fields(const TraceSummary& summary);

/// Counter dump: one header row, one value row (util/csv formatting);
/// columns are summary_fields() in order.
void write_counters_csv(const std::string& path, const TraceSummary& summary);

/// Counter listing on stdout: a `title` line, then one "name : value" line
/// per summary_fields() row under its counters.csv name, deterministic
/// rows first, then wall-clock rows.  The CLI's trace breakdown and the
/// bench drivers' scheduling-cost block both print this.
void print_counters(const char* title, const TraceSummary& summary);

}  // namespace istc::trace
