#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/time.hpp"

/// \file protocol.hpp
/// The what-if wire protocol: newline-delimited JSON, one request per
/// line, one reply per line, schema `istc.whatif.v1`.
///
/// Requests (all fields beyond "op" optional unless noted):
///
///   {"op":"whatif", "jobs":8, "cpus":16, "runtime_s":600,
///    "class":"native"|"interstitial", "horizon_s":86400,
///    "points_s":[0,3600,7200], "mode":"forked"|"scratch",
///    "project":"P"}
///       Admission query: if project P submitted `jobs` jobs of
///       `cpus` x `runtime_s` now (or at each offset in points_s), what
///       would happen by `horizon_s`?  mode=scratch re-simulates from
///       time zero instead of forking the live baseline — the reference
///       arm; replies are bit-identical across modes.
///
///   {"op":"ingest", "line":"<one SWF record>"}
///       Feed one line of the site's log tail into the live baseline.
///
///   {"op":"status"}      Daemon introspection: the identity readings
///                        (epoch, frontier, accepted jobs, snapshots,
///                        rewinds, query-latency summary) and the
///                        baseline hash.
///   {"op":"stats"}       Every reading: counters, latency summary,
///                        per-stage profile, pool saturation, span-
///                        recorder counters.  `istc top` renders it, and
///                        `GET /metrics` shows each of its numeric or
///                        boolean leaves as exactly one sample (one
///                        reading list, service::Reading, backs both).
///   {"op":"shutdown"}    Stop accepting work; the server exits.
///
/// Replies always carry {"schema":"istc.whatif.v1","op":<echo>} and
/// either the op's payload or {"error":{"code":...,"message":...}}.
/// Purity contract: *whatif* replies contain no wall-clock fields — the
/// same query against the same baseline epoch is byte-identical
/// regardless of concurrency or query order (the property the service
/// tests pin).  Wall-clock telemetry lives only in status/stats replies
/// and the /metrics endpoint, which are never hashed or compared.

namespace istc::service {

inline constexpr std::string_view kWhatIfSchema = "istc.whatif.v1";

enum class Op : unsigned char { kWhatIf, kIngest, kStatus, kStats, kShutdown };

/// Bounds a single query may not exceed (a socket peer is untrusted; the
/// daemon refuses rather than simulates absurd shapes).
inline constexpr std::size_t kMaxQueryJobs = 100000;
inline constexpr std::size_t kMaxQueryPoints = 64;
/// Longest request line the server buffers.  A peer past it without a
/// newline gets one line_too_long error (HTTP: 414) and is disconnected.
inline constexpr std::size_t kMaxLineBytes = 64 * 1024;

struct WhatIfQuery {
  std::string project = "adhoc";
  std::size_t jobs = 1;
  int cpus = 1;
  Seconds runtime_s = 60;
  bool interstitial = false;
  Seconds horizon_s = 24 * kSecondsPerHour;
  /// Offsets from the baseline frontier at which to try the submission
  /// (a multi-point what-if sweeps one fork per offset).
  std::vector<Seconds> points_s = {0};
  bool scratch = false;
};

/// A parsed request: `error` empty means the request is well-formed.
struct Request {
  Op op = Op::kStatus;
  WhatIfQuery query;  ///< op == kWhatIf
  std::string line;   ///< op == kIngest
  std::string error_code;
  std::string error;
};

/// Parse and validate one request line.  Never throws; malformed JSON,
/// unknown ops, wrong types, and out-of-range shapes all land in
/// Request::error with a machine-readable error_code.
Request parse_request(std::string_view text);

/// One-line error reply (no trailing newline; the transport appends it).
std::string error_reply(std::string_view op, std::string_view code,
                        std::string_view message);

}  // namespace istc::service
