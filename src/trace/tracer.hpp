#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "trace/event.hpp"
#include "trace/summary.hpp"

/// \file tracer.hpp
/// The tracing core: a chunked, preallocated event buffer plus the
/// TraceSummary counters.  Hooks throughout sched/core/fault hold a
/// `Tracer*` that is null by default, so an untraced run pays one branch
/// per hook; the engine holds none (the scheduler folds its counts in).
///
/// Determinism contract: `record()` stamps each event with a monotone
/// sequence number, so the (time, seq) key mirrors the engine's event queue
/// and equal-seed runs yield identical streams.  Nothing in the tracer
/// feeds back into the simulation — tracing observes, never perturbs.

/// True when `p` (a Tracer*) wants full event records.
#define ISTC_TRACE_EVENTS_ON(p) ((p) != nullptr && (p)->events_enabled())
/// True when `p` wants counters: every attached tracer counts.
#define ISTC_TRACE_COUNTERS_ON(p) ((p) != nullptr)

namespace istc::trace {

enum class TraceMode : std::uint8_t {
  kCountersOnly,  ///< summary counters/timers only, no event records
  kFull,          ///< counters plus the event stream
};

class Tracer {
 public:
  /// Events per allocation chunk; chunks are never moved once allocated,
  /// so record() is pointer-bump cheap and iteration is stable.
  static constexpr std::size_t kChunkEvents = 1u << 16;

  /// Default cap: 1M events (~48 MB).  Past the cap events are counted in
  /// dropped() but not stored — a trace that silently truncates must say
  /// so.
  static constexpr std::size_t kDefaultMaxEvents = 1u << 20;

  explicit Tracer(TraceMode mode = TraceMode::kFull,
                  std::size_t max_events = kDefaultMaxEvents);

  TraceMode mode() const { return mode_; }
  bool events_enabled() const { return mode_ == TraceMode::kFull; }

  /// Append one event (fields other than `seq` filled by the caller).
  /// No-op unless events are enabled.
  void record(TraceEvent event);

  /// Mutable counter block for hook sites; cheap direct increments.
  TraceSummary& counters() { return counters_; }
  const TraceSummary& counters() const { return counters_; }

  /// Counter snapshot (a copy of counters()).  Buffer bookkeeping is
  /// not a counter: read size() and dropped().
  TraceSummary summary() const { return counters_; }

  std::size_t size() const { return size_; }
  std::uint64_t dropped() const { return dropped_; }
  const TraceEvent& operator[](std::size_t i) const {
    return chunks_[i / kChunkEvents][i % kChunkEvents];
  }

  /// Events sorted by the (time, seq) key.  Hooks record in causal order,
  /// but statically-known futures (the downtime calendar) are recorded up
  /// front, so exporters sort before writing.
  std::vector<TraceEvent> sorted_events() const;

  /// Forget all recorded events and counters; keeps the first chunk.
  void clear();

 private:
  TraceMode mode_;
  std::size_t max_events_;
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<std::unique_ptr<TraceEvent[]>> chunks_;
  TraceSummary counters_;
};

}  // namespace istc::trace
