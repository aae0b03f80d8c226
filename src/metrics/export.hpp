#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "sched/record.hpp"

/// \file export.hpp
/// Export simulation results for external analysis.
///
/// Standard Workload Format, the community's trace format, with the
/// wait-time field filled in so the result reads as a *completed* trace.

namespace istc::metrics {

/// Write records as an SWF trace: submit (2), wait (3), run (4), procs
/// (5/8), estimate (9), status 1, user (12), group (13).  Interstitial
/// jobs carry queue number 2 (field 15), native jobs 1, so downstream
/// tools can split the streams.
void write_swf_records(std::ostream& out,
                       std::span<const sched::JobRecord> records,
                       const std::string& header_comment = {});

void write_swf_records_file(const std::string& path,
                            std::span<const sched::JobRecord> records,
                            const std::string& header_comment = {});

}  // namespace istc::metrics
