#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sched/scheduler.hpp"
#include "util/time.hpp"

/// \file fault.hpp
/// Unplanned failures.  The cluster's DowntimeCalendar models *planned*
/// maintenance the scheduler drains ahead of ("no running job ever
/// overlaps a window"); real machines also crash unannounced.  The
/// FaultInjector adds that layer: a deterministic, seeded timeline of
///
///   - whole-machine crashes — everything running dies and the machine is
///     down for a repair interval, and
///   - partial-capacity node failures — a node-sized slice of CPUs drops
///     out until repaired, killing whatever ran on it.
///
/// Failures flow through sched::BatchScheduler::fail_capacity (so the
/// free-CPU profile plans around the outage exactly like around running
/// jobs).  Killed natives are resubmitted here with their original
/// estimate — the lost work is the price of the crash.  Killed
/// interstitial jobs are the driver's business: its kill hook routes them
/// through ProjectSpec::fault_retry (bounded retries, backoff, optional
/// checkpoint/restart).
///
/// The whole timeline is pre-generated at construction from the seed, so
/// a run with faults is exactly as reproducible as one without.

namespace istc::fault {

/// Failure process parameters.  Inter-arrival times are exponential
/// (memoryless — the classic MTBF model); a zero MTBF disables that
/// failure class, and the default spec is entirely inert, which is what
/// keeps fault-free runs bit-identical to pre-fault builds.
struct FaultSpec {
  std::uint64_t seed = 0xFA1117;
  /// Mean time between whole-machine crashes; 0 = never.
  Seconds crash_mtbf = 0;
  /// Repair interval after a crash (machine fully down).
  Seconds crash_repair = 4 * kSecondsPerHour;
  /// Mean time between single-node failures; 0 = never.
  Seconds node_mtbf = 0;
  /// Repair interval after a node failure.
  Seconds node_repair = 2 * kSecondsPerHour;
  /// CPUs lost per node failure (clamped to the capacity still up).
  int node_cpus = 128;
  /// Failures are generated in [start, stop).
  SimTime start = 0;
  SimTime stop = kTimeInfinity;

  bool enabled() const { return crash_mtbf > 0 || node_mtbf > 0; }
  void check() const;
};

/// Schedules the failure timeline through the engine's typed event core
/// and fires each failure against the scheduler.  Construct after the
/// driver (order only affects event sequence numbers, not times) and keep
/// alive until the run drains.
class FaultInjector {
 public:
  FaultInjector(sched::BatchScheduler& scheduler, FaultSpec spec);

  /// Run-fork clone: attach to `scheduler` (the forked stack) and share
  /// `other`'s immutable timeline.  The forked engine's queue already
  /// holds the not-yet-fired kFaultFire events (each carrying its
  /// timeline index), so the clone schedules nothing — it only registers
  /// itself as the fault hook and carries the resubmission count forward.
  FaultInjector(sched::BatchScheduler& scheduler, const FaultInjector& other);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultSpec& spec() const { return spec_; }
  /// Failures on the pre-generated timeline (fired + still pending).
  std::size_t scheduled_faults() const { return timeline_->size(); }

 private:
  struct FaultEvent {
    SimTime time = 0;
    bool crash = false;  ///< whole-machine crash vs. node failure
  };

  void fire(std::size_t index);

  sched::BatchScheduler& scheduler_;
  FaultSpec spec_;
  /// Immutable once generated; shared between a run and its forks.
  std::shared_ptr<const std::vector<FaultEvent>> timeline_;
  /// Natives resubmitted so far; numbers each resubmission's fresh id.
  /// What the faults cost is counted in the tracer's TraceSummary
  /// (faults_injected, fault_killed_*, fault_cpu_sec_lost, ...).
  workload::JobId resubmits_ = 0;
};

}  // namespace istc::fault
