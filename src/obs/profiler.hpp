#pragma once

#include <cstdint>
#include <vector>

#include "metrics/histogram.hpp"
#include "obs/obs.hpp"

/// \file profiler.hpp
/// The wall-clock self-profiler: scoped per-stage time attribution,
/// aggregated into HDR-style log2 histograms (metrics::Log2Histogram,
/// used header-only so this stays a util-level leaf library).
///
/// Each thread owns one histogram per Stage; observing is a thread-local
/// array index plus a Log2Histogram::add — no locks, no allocation.
/// profile_snapshot() merges the per-thread histograms under a registry
/// lock and returns quantiles per stage; that feeds the `stats` verb, the
/// /metrics endpoint and `istc top`.
///
/// Shares the obs master switch: ScopedTimer is inert (two loads) until
/// obs::set_enabled(true), and obs::reset() clears profiles too.  Like
/// spans, profile data never feeds back into simulation state.

namespace istc::obs {

/// Where daemon wall-time can go.  One histogram per stage per thread.
enum class Stage : int {
  kSweepPrefix = 0,  ///< sweep: shared-prefix simulation
  kSweepFork,        ///< sweep: serial fork creation
  kSweepArm,         ///< sweep: one point's advancement
  kEpochAdvance,     ///< fleet: parallel machine advance phase
  kEpochBoundary,    ///< fleet: serial report/route sync barrier
  kIngestApply,      ///< session: one ingest line end to end
  kIngestRewind,     ///< session: rewind + replay of the accepted tail
  kQueryCapture,     ///< session: under-lock epoch/fork capture
  kQueryVerdict,     ///< session: verdict assembly from both arms
  kCount
};

/// Stable snake_case label ("sweep_arm", "ingest_rewind", …) used in
/// stats JSON, Prometheus labels and the dashboard.
const char* stage_label(Stage s);

/// Record one observation (microseconds) for a stage on this thread.
/// No-op while observability is disabled.
void observe_stage_us(Stage s, std::uint64_t us);

/// RAII stage timer; observes elapsed microseconds on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Stage s);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Stage stage_;
  std::uint64_t start_ns_ = 0;
  bool active_;
};

/// One stage's cross-thread aggregate.
struct StageProfile {
  Stage stage = Stage::kCount;
  const char* label = nullptr;
  std::uint64_t count = 0;
  std::uint64_t total_us = 0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
};

/// Merge every thread's histograms and return the stages with at least
/// one observation, in Stage order.  Safe to call while other threads
/// observe (their adds are plain writes into thread-owned histograms;
/// a racing snapshot may miss in-flight observations, never corrupt).
std::vector<StageProfile> profile_snapshot();

/// The merged histogram of one stage (empty histogram if unobserved).
metrics::Log2Histogram stage_histogram(Stage s);

/// Clear all per-thread profiles.  Called by obs::reset(); exposed for
/// tests that only care about profiles.
void reset_profiles();

}  // namespace istc::obs
