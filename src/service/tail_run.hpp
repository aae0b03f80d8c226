#pragma once

#include <memory>
#include <optional>

#include "cluster/presets.hpp"
#include "core/fork.hpp"
#include "core/project.hpp"

/// \file tail_run.hpp
/// TailRun — a live simulation stack fed from a streaming workload tail.
///
/// Where a scenario's core::SimRun loads a fixed pre-generated log,
/// TailRun is the *open-ended* SimRun: it starts with no natives and jobs
/// arrive one at a time through submit() as the daemon ingests an SWF
/// tail.  Everything else — run_until, add_stream, finish, state_hash —
/// is SimRun's; fork() is SimRun's fork typed as a TailRun, so a
/// core::SweepRunner<TailRun> can evaluate multi-point what-if queries
/// against a forked baseline, and service::SnapshotChain can keep a
/// rewindable snapshot history for out-of-order tail lines.
///
/// Id discipline (the streaming analogue of SimRun's "driver ids start
/// after the log"): ingested native jobs get dense ids assigned by the
/// caller from 0; a baseline harvest stream counts from kStreamIdBase;
/// speculative what-if jobs count from kSpeculativeIdBase — three disjoint
/// ranges, so a query can pick its own jobs out of a drained result.

namespace istc::service {

/// First id of the baseline's continual harvest stream (when configured).
inline constexpr workload::JobId kStreamIdBase = 0x10000000;
/// First id of a query's speculative jobs (native or interstitial).
inline constexpr workload::JobId kSpeculativeIdBase = 0x40000000;

struct TailConfig {
  cluster::Site site = cluster::Site::kBlueMountain;
  /// Baseline harvest stream co-simulated with the ingested natives
  /// (nullopt = natives only).  Ids count from kStreamIdBase.
  std::optional<core::ProjectSpec> stream;
};

class TailRun final : public core::SimRun {
 public:
  /// The site's machine, downtime and policy with no natives loaded.
  explicit TailRun(const TailConfig& cfg);

  /// Copy-on-write snapshot at the current boundary (core::SimRun::fork;
  /// `this` is mutated only to freeze shared log prefixes).
  std::unique_ptr<TailRun> fork();

 private:
  explicit TailRun(TailRun& other) : core::SimRun(other) {}
};

}  // namespace istc::service
