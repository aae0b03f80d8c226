#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/project.hpp"
#include "core/run_cache.hpp"
#include "metrics/histogram.hpp"
#include "obs/obs.hpp"
#include "service/baseline.hpp"
#include "service/protocol.hpp"
#include "service/tail_run.hpp"
#include "workload/job.hpp"

/// \file session.hpp
/// Session — the what-if daemon's brain, transport-free.
///
/// One Session owns the live baseline (a SnapshotChain<TailRun>), the
/// accepted-tail replay journal, the reference-arm RunCache, and its
/// traffic counters.  The entire protocol funnels through handle_line():
/// one request line in, one reply line out, never throwing — which is
/// what makes the server loop trivial and the whole daemon testable (and
/// fuzzable) without a socket.
///
/// Concurrency model: a mutex serializes *state transitions* — ingest,
/// snapshot/rewind bookkeeping, fork creation, counters — but speculative
/// simulation runs outside the lock on the calling thread.  A what-if
/// query captures its epoch and creates its forks in one critical
/// section, so every reply is computed against a consistent baseline
/// even while other clients ingest; the reply's byte content depends
/// only on (epoch, query), never on interleaving (the purity property
/// tests/service/test_service_property.cpp pins).
///
/// Staleness model: the live run is advanced to frontier-1 (one tick shy
/// of the newest accepted submit time), so an in-order tail line is
/// always a future event.  A line submitting at or before the live clock
/// invalidates the baseline: the chain rewinds to the newest snapshot
/// strictly older than the line, the accepted tail [seq, end) replays in
/// ingest order, and the clock re-advances — bit-identical to a
/// from-scratch run over the full accepted tail.

namespace istc::service {

/// One number the daemon reports about itself, under the name each
/// surface shows it by.  Session::readings() lists them in report order;
/// `stats` renders every reading, `status` the identity ones, `GET
/// /metrics` each as one family, and `istc top` walks the stats reply —
/// so a new signal is one list entry, shown everywhere.
struct Reading {
  /// Stage-keyed histograms (the span profile): a stats array with one
  /// row per stage, and one `stage`-labelled summary per row.
  using Rows = std::vector<obs::StageProfile>;
  using Value = std::variant<bool, std::int64_t, std::uint64_t, double,
                             metrics::Log2Histogram, Rows>;

  const char* path = "";    ///< stats path; "pool.queue_hwm" nests once
  const char* family = "";  ///< `/metrics` family
  const char* type = "";    ///< counter, gauge, or summary (histograms)
  const char* help = "";    ///< `/metrics` HELP line
  Value value;
  bool identity = false;  ///< also in the status reply
};

struct SessionConfig {
  cluster::Site site = cluster::Site::kBlueMountain;
  /// Baseline harvest stream (nullopt = natives-only baseline).
  std::optional<core::ProjectSpec> stream;
  /// Sim-time cadence between baseline snapshots: the rewind cost bound.
  Seconds snapshot_interval = 6 * kSecondsPerHour;
};

class Session {
 public:
  explicit Session(const SessionConfig& cfg);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Handle one request line, return one reply line (no trailing
  /// newline).  Thread-safe; never throws.
  std::string handle_line(std::string_view line);

  /// True once a shutdown request was handled; the server drains and exits.
  bool shutdown_requested() const;

  // -- introspection (tests / bench) ---------------------------------------

  std::uint64_t epoch() const;
  SimTime frontier() const;
  std::uint64_t baseline_hash();
  std::size_t accepted_jobs() const;
  std::size_t snapshot_count() const;
  std::size_t rewinds() const;
  const SessionConfig& config() const { return cfg_; }

  /// Everything the daemon reports about itself, in report order:
  /// session state (read under mu_), then process-wide thread-pool and
  /// span-recorder values (read before it).  Thread-safe.
  std::vector<Reading> readings();

  /// The `GET /metrics` body: every reading as one Prometheus family.
  /// Thread-safe.
  std::string prometheus_text();

 private:
  struct QueryBase;  // epoch-consistent fork set, created under the lock

  std::string do_whatif(const WhatIfQuery& q);
  std::string do_ingest(const std::string& line);
  std::string do_status();
  std::string do_stats();
  std::string do_shutdown();

  /// The readings of session state, the identity ones among them; the
  /// list's head.  Caller holds mu_.
  std::vector<Reading> session_readings() const;

  /// Seconds of wall time since the last accepted ingest (-1 before the
  /// first): the operator's "how stale is my tail feed" number.  Caller
  /// holds mu_.
  double ingest_lag_s() const;

  /// Feed an accepted job into the live baseline: fast path for future
  /// submits, rewind + replay for out-of-order ones.  Caller holds mu_.
  void ingest_job(workload::Job job);

  SessionConfig cfg_;
  int machine_cpus_ = 0;
  double clock_ghz_ = 0.0;

  /// Wall-clock anchors (telemetry only; never in whatif replies).
  std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
  std::chrono::steady_clock::time_point last_accepted_ingest_{};

  mutable std::mutex mu_;
  SnapshotChain<TailRun> chain_;
  /// Every accepted job in ingest order — the replay journal.  Ids are
  /// dense [0, size).
  std::vector<workload::Job> accepted_;
  SimTime frontier_ = 0;
  std::uint64_t epoch_ = 0;
  bool shutdown_ = false;

  core::RunCache ref_cache_;

  // Traffic, counted under mu_.  Everything else the daemon reports is
  // read from the state above when the reading list is built.
  std::uint64_t queries_ = 0;
  std::uint64_t query_errors_ = 0;
  std::uint64_t ingests_ = 0;
  std::uint64_t ingests_rejected_ = 0;
  metrics::Log2Histogram query_latency_ns_;  ///< wall clock per what-if
};

}  // namespace istc::service
