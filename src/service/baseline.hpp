#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "util/assert.hpp"
#include "util/time.hpp"

/// \file baseline.hpp
/// SnapshotChain — bounded-staleness incremental re-simulation.
///
/// The what-if daemon keeps one *live* baseline run advanced to the tail
/// frontier, plus a chain of copy-on-write snapshots (forks) taken at a
/// configurable sim-time cadence.  Each snapshot records the ingest
/// sequence number current when it was taken: "accepted jobs [0, seq)
/// were already submitted into this run".
///
/// In-order tail lines extend the live run directly.  An out-of-order
/// line (submit time at or before the live clock) *invalidates* the live
/// run: rewind_to() discards it and every snapshot newer than the line,
/// re-forks from the newest surviving snapshot, and returns its seq — the
/// caller (service::Session) replays accepted jobs [seq, end) in ingest
/// order and re-advances.  Replay in ingest order reproduces the engine's
/// event sequencing exactly, so the rebuilt baseline is bit-identical to
/// a from-scratch run over the full accepted tail (pinned by
/// tests/service/test_staleness_differential.cpp, for TailRun and for
/// SimRun/FleetRun baselines).
///
/// Generic over the repo's fork protocol (core::SimRun, grid::FleetRun,
/// service::TailRun):
///
///   std::unique_ptr<Run> fork();
///   void run_until(SimTime t);
///   SimTime now() const;
///
/// Rewind-target rule: a snapshot is a legal base for a line submitting
/// at S only when its clock is *strictly* before S — or when it is the
/// virgin time-zero snapshot, which has fired no events at all.  Strict
/// inequality matters: a snapshot standing exactly at S has already run
/// its scheduling pass at S, so submitting another S-job there would fire
/// a second pass at S, while a from-scratch replay sees all S-jobs in one
/// pass.  Rewinding past S keeps the pass structure identical.

namespace istc::service {

template <class Run>
class SnapshotChain {
 public:
  /// \param initial the run at time zero (nothing fired yet).
  /// \param interval sim-time cadence between snapshots (> 0).  The
  ///        time-zero snapshot is always kept, so a rewind target exists
  ///        for any submit time.
  SnapshotChain(std::unique_ptr<Run> initial, Seconds interval)
      : interval_(interval) {
    ISTC_EXPECTS(initial != nullptr);
    ISTC_EXPECTS(interval_ > 0);
    live_ = std::move(initial);
    snaps_.push_back(Snapshot{live_->fork(), 0, /*virgin=*/true});
  }

  Run& live() { return *live_; }
  const Run& live() const { return *live_; }

  std::size_t snapshot_count() const { return snaps_.size(); }
  /// The i-th kept snapshot, oldest (the time-zero fork) first.
  const Run& snapshot(std::size_t i) const {
    ISTC_EXPECTS(i < snaps_.size());
    return *snaps_[i].run;
  }

  /// Sequence number the *live* run has been fed up to; the caller bumps
  /// it via note_submitted after feeding jobs into live().
  std::size_t live_seq() const { return live_seq_; }
  void note_submitted(std::size_t seq) { live_seq_ = seq; }

  /// Advance the live run to t, taking a snapshot whenever the clock
  /// crosses the cadence.  Snapshots are forked at real event boundaries
  /// (run_until never overshoots), tagged with the current live_seq.
  void advance_to(SimTime t) {
    while (true) {
      const SimTime next_snap = next_snapshot_time();
      if (next_snap > t) break;
      live_->run_until(next_snap);
      // The clock may stand short of next_snap (no event exactly there);
      // the snapshot is still taken — its *clock* is what rewinds key on.
      snaps_.push_back(Snapshot{live_->fork(), live_seq_, /*virgin=*/false});
      last_snapshot_mark_ = next_snap;
    }
    live_->run_until(t);
  }

  /// Invalidate the live run for an out-of-order submission at time S:
  /// drop every snapshot that has advanced to S or beyond, re-fork the
  /// newest survivor as the new live run, and return its ingest seq.
  /// The caller must replay accepted jobs [seq, end) in ingest order and
  /// then advance_to the old frontier.  The time-zero snapshot always
  /// survives, so this never fails.
  std::size_t rewind_to(SimTime s) {
    while (snaps_.size() > 1 &&
           !(snaps_.back().virgin || snaps_.back().run->now() < s)) {
      snaps_.pop_back();
    }
    ISTC_ASSERT(snaps_.back().virgin || snaps_.back().run->now() < s);
    live_ = snaps_.back().run->fork();
    live_seq_ = snaps_.back().seq;
    last_snapshot_mark_ = snaps_.back().virgin ? 0 : snaps_.back().run->now();
    ++rewinds_;
    return live_seq_;
  }

  std::size_t rewinds() const { return rewinds_; }

 private:
  struct Snapshot {
    std::unique_ptr<Run> run;
    std::size_t seq = 0;  ///< accepted jobs [0, seq) are inside this run
    bool virgin = false;  ///< time-zero fork, no events fired
  };

  SimTime next_snapshot_time() const { return last_snapshot_mark_ + interval_; }

  Seconds interval_;
  std::unique_ptr<Run> live_;
  std::vector<Snapshot> snaps_;
  std::size_t live_seq_ = 0;
  SimTime last_snapshot_mark_ = 0;
  std::size_t rewinds_ = 0;
};

}  // namespace istc::service
