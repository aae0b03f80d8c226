#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/machine.hpp"
#include "trace/summary.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"
#include "util/time.hpp"
#include "workload/job.hpp"

/// \file record.hpp
/// Scheduling outcomes.  A JobRecord is the simulator's analogue of the
/// paper's "job log returned from the BIRMinator simulations": size plus
/// submit, start, and finish times for both native and interstitial jobs.

namespace istc::sched {

/// Why a running job was killed before completion.  Preemption is a
/// scheduling decision aimed only at interstitial jobs; the fault reasons
/// are unplanned failures (fault::FaultInjector) that spare nobody.
enum class KillReason : std::uint8_t {
  kPreempted = 0,     ///< evicted so a blocked native could start
  kMachineCrash = 1,  ///< whole-machine crash (everything running dies)
  kNodeFailure = 2,   ///< partial-capacity node failure
};

struct JobRecord {
  workload::Job job;
  SimTime start = -1;
  SimTime end = -1;

  Seconds wait() const {
    ISTC_EXPECTS(start >= job.submit);
    return start - job.submit;
  }

  /// The paper's expansion factor EF = 1 + wait / runtime.
  double expansion_factor() const {
    return 1.0 + static_cast<double>(wait()) /
                     static_cast<double>(job.runtime);
  }

  double cpu_seconds() const { return job.cpu_seconds(); }
  bool interstitial() const { return job.interstitial(); }
};

/// Result of one simulation run.
struct RunResult {
  cluster::MachineSpec machine;
  /// Native log span (the paper's "times days" window).
  SimTime span = 0;
  /// Time at which the simulation drained completely.
  SimTime sim_end = 0;
  /// Completed jobs in completion order (native and interstitial mixed).
  std::vector<JobRecord> records;
  /// Jobs killed before completion, in kill order: interstitials evicted
  /// by native preemption (extension feature), and natives and
  /// interstitials alike lost to unplanned failures (fault::FaultInjector;
  /// killed natives rerun under fresh ids).  end is the kill time, so
  /// end - start < runtime and cpu-time in [start, end) is the work the
  /// kill cost, before any checkpoint credit.
  std::vector<JobRecord> killed;
  /// What the run counted: the attached trace::Tracer's TraceSummary, with
  /// the engine's counts folded in by take_result (all-zero when no tracer
  /// was attached).  trace::summary_fields() names every row.
  trace::TraceSummary trace;

  /// CPU-seconds the killed jobs had executed when they were killed.
  double wasted_cpu_seconds() const;

  std::size_t native_count() const;
  std::size_t interstitial_count() const;
};

inline std::size_t RunResult::native_count() const {
  std::size_t n = 0;
  for (const auto& r : records) n += r.interstitial() ? 0u : 1u;
  return n;
}

inline std::size_t RunResult::interstitial_count() const {
  return records.size() - native_count();
}

inline double RunResult::wasted_cpu_seconds() const {
  double total = 0;
  for (const auto& r : killed) {
    total += static_cast<double>(r.job.cpus) *
             static_cast<double>(r.end - r.start);
  }
  return total;
}

/// The records step of schedule_hash: fold completed records [from, size)
/// (id, start, end, cpus) into `h`.  FNV-1a is sequential, so folding
/// [0, n) and later [n, m) equals folding [0, m) at once; that is what
/// lets core::SimRun::state_hash carry the state between calls.
template <class Records>
std::uint64_t hash_records(std::uint64_t h, const Records& records,
                           std::size_t from) {
  for (std::size_t i = from; i < records.size(); ++i) {
    const JobRecord& r = records[i];
    h = util::fnv1a_u64(h, static_cast<std::uint64_t>(r.job.id));
    h = util::fnv1a_u64(h, static_cast<std::uint64_t>(r.start));
    h = util::fnv1a_u64(h, static_cast<std::uint64_t>(r.end));
    h = util::fnv1a_u64(h, static_cast<std::uint64_t>(r.job.cpus));
  }
  return h;
}

/// The tail of schedule_hash: fold kills (id, start, end), then
/// `end_time`, into the records state `h`.
template <class Kills>
std::uint64_t hash_kills_and_end(std::uint64_t h, const Kills& killed,
                                 SimTime end_time) {
  for (std::size_t i = 0; i < killed.size(); ++i) {
    const JobRecord& r = killed[i];
    h = util::fnv1a_u64(h, static_cast<std::uint64_t>(r.job.id));
    h = util::fnv1a_u64(h, static_cast<std::uint64_t>(r.start));
    h = util::fnv1a_u64(h, static_cast<std::uint64_t>(r.end));
  }
  return util::fnv1a_u64(h, static_cast<std::uint64_t>(end_time));
}

/// FNV-1a over an observable schedule: completed records, kills, then
/// `end_time`.  Generic over the two containers (anything with size() and
/// operator[]) so a drained RunResult (grid::hash_run) and a live
/// scheduler's logs (core::SimRun::state_hash) share one walk.
template <class Records, class Kills>
std::uint64_t schedule_hash(const Records& records, const Kills& killed,
                            SimTime end_time) {
  return hash_kills_and_end(hash_records(util::kFnvOffset, records, 0),
                            killed, end_time);
}

}  // namespace istc::sched
