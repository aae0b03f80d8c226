#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "metrics/histogram.hpp"

/// \file obs.hpp
/// Causal wall-clock spans — the operational half of the telemetry story.
///
/// The deterministic layers (src/trace sim-time events, src/metrics
/// RunReports) answer "what did the simulation decide"; this layer
/// answers "where did the daemon's wall-clock time actually go".  It is
/// strictly separated from results: every reply payload, golden hash and
/// RunResult is byte-identical whether observability is on or off
/// (tests/obs pins this), because nothing here ever feeds back into
/// simulation state.
///
/// Model: a thread-local TraceContext carries (trace id, current span id).
/// ScopedSpan opens a child of the current context, times itself with the
/// steady clock, and on close builds one fixed-size SpanRecord.  Under
/// the recorder's one mutex it pushes the record into one ring of the
/// newest kRingCapacity records and adds its duration to the histogram
/// for its name; only the first close of a name after a reset allocates.
/// Every read (recorder_stats, profile_snapshot, write_chrome_spans) and
/// reset() takes the same mutex, so each is safe while spans close on
/// other threads.  Cross-thread fan-out (SweepRunner arms, fleet machine
/// advancement on util::ThreadPool) goes through traced_for, which adopts
/// the caller's context in each task, so a query's arms hang off the
/// query span in the exported trace.
///
/// Everything is inert until set_enabled(true): a disabled ScopedSpan is
/// one relaxed load.  Export (write_chrome_spans) emits Chrome-trace JSON
/// ("X" complete events, ts and dur in microseconds, one track per
/// thread) loadable in chrome://tracing or Perfetto.

namespace istc {
class ThreadPool;
}

namespace istc::obs {

using SpanId = std::uint64_t;

/// The causal position of the current thread: which trace (one per root
/// span, e.g. one per `istc ask` query) and which span is open.
struct TraceContext {
  std::uint64_t trace = 0;  ///< 0 = no active trace
  SpanId span = 0;          ///< 0 = no open span (next span is a root)
};

/// Master switch for spans and their profile.  Off by default; the
/// daemon turns it on for --obs / --obs-trace, benches A/B it.
bool enabled();
void set_enabled(bool on);

/// Nanoseconds since process start on the steady clock (never wall time:
/// immune to NTP steps, and small enough to subtract without overflow).
std::uint64_t now_ns();

/// One closed span.  `name` must be a string literal (static storage):
/// records store the pointer, not a copy, to keep the hot path
/// allocation-free.
struct SpanRecord {
  const char* name = nullptr;
  std::uint64_t trace = 0;
  SpanId id = 0;
  SpanId parent = 0;
  std::uint64_t track = 0;  ///< the closing thread's track (export tid)
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t arg = -1;  ///< optional payload (point index, batch size…)
};

/// The calling thread's current causal context (zeroes when idle).
TraceContext current_context();

/// Adopt a context captured on another thread — the fan-out glue.  Used
/// inside pool tasks so spans opened there parent correctly.  Restores
/// the previous context on destruction.
class ScopedContext {
 public:
  explicit ScopedContext(TraceContext ctx);
  ~ScopedContext();
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  TraceContext saved_;
  bool active_;
};

/// RAII span: opens a child of the current context (or a new root trace)
/// when observability is enabled, records on destruction.  Near-free when
/// disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::int64_t arg = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// The context this span established — capture before fanning out.
  TraceContext context() const;

 private:
  const char* name_;
  std::int64_t arg_;
  std::uint64_t start_ns_ = 0;
  TraceContext saved_;
  TraceContext mine_;
  bool active_ = false;
};

/// Run fn(i) for i in [0, n) on `pool`, or serially when it is null, each
/// inside a span `name` with arg i.  Every span parents under the
/// caller's current span, whichever worker runs it.
void traced_for(ThreadPool* pool, std::size_t n, const char* name,
                const std::function<void(std::size_t)>& fn);

/// Records the ring holds; a full ring overwrites its oldest record.
/// Sized so a full bench/whatif_service run drops no span.
inline constexpr std::size_t kRingCapacity = 16384;

/// The recorder's counters.
struct RecorderStats {
  std::uint64_t recorded = 0;  ///< spans written (overwritten ones included)
  std::uint64_t dropped = 0;   ///< spans pushed out of the ring by newer ones
};
RecorderStats recorder_stats();

/// One span name's wall-clock profile.
struct StageProfile {
  std::string label;  ///< the span name with '.' replaced by '_'
  metrics::Log2Histogram ns;  ///< span durations in nanoseconds
};

/// Every span name closed since the last reset, ordered by label.
std::vector<StageProfile> profile_snapshot();

/// Drop all recorded spans, counters and profiles.  For bench A/B
/// sections and test isolation.
void reset();

/// Export the ring's records, oldest first, as a Chrome-trace JSON array:
/// "M" metadata naming the process and one thread_name row per track
/// (tid = the order in which threads first closed a span), then one "X"
/// event per span, ready for chrome://tracing / Perfetto.
void write_chrome_spans(std::ostream& out);
void write_chrome_spans_file(const std::string& path);

}  // namespace istc::obs
