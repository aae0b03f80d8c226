#pragma once

#include <cstdint>

#include "util/time.hpp"

/// \file event.hpp
/// Typed trace records.  Every observable decision of the simulator — job
/// lifecycle, backfill reservations, the Fig. 1 gate, fair-share
/// recomputes, downtime windows — becomes one fixed-size TraceEvent.
///
/// Events are keyed by (time, seq) exactly like the engine's event queue:
/// `seq` is the tracer's record-order counter, so two runs of the same
/// seeded scenario produce identical event streams and byte-identical
/// exports (tests/trace/test_determinism.cpp enforces this).

namespace istc::trace {

enum class EventKind : std::uint8_t {
  kJobSubmit,             ///< job entered the system (native or interstitial)
  kJobStart,              ///< job allocated CPUs and began running
  kJobFinish,             ///< job completed normally
  kJobKill,               ///< running job killed (preemption or fault)
  kReservationMade,       ///< backfill reservation placed for a blocked job
  kReservationHonored,    ///< reserved job started at/before its reservation
  kReservationViolated,   ///< reserved job started after its reservation
  kGateDecision,          ///< Fig. 1 gate evaluated (open or closed)
  kFairShareRecompute,    ///< per-pass dynamic re-prioritization
  kDowntimeBegin,         ///< scheduled outage window opens
  kDowntimeEnd,           ///< scheduled outage window closes
  kMachineCrash,          ///< unplanned whole-machine crash (fault injection)
  kNodeFailure,           ///< unplanned partial-capacity failure
  kFaultRepair,           ///< failed capacity restored
};

/// Stable lower-case name used by every exporter ("job_start", ...).
const char* kind_name(EventKind kind);

/// One trace record.  Generic fields carry kind-specific meanings, spelled
/// out below, so the record stays a flat preallocatable POD:
///
///   kind                  aux_time                      value
///   ------------------    --------------------------    --------------------
///   kJobSubmit            (unused)                      estimate (s)
///   kJobStart             estimated end time            runtime (s)
///   kJobFinish            start time                    (unused)
///   kJobKill              start time                    sched::KillReason
///   kReservationMade      reserved start time           (unused)
///   kReservationHonored   reserved start time           (unused)
///   kReservationViolated  reserved start time           start - reserved (s)
///   kGateDecision         backfill wall time            chosen k (open) or
///                         (kTimeInfinity: empty queue)  rejected k (closed)
///   kFairShareRecompute   (unused)                      queue length
///   kDowntimeBegin        window end                    (unused)
///   kDowntimeEnd          window start                  (unused)
///   kMachineCrash         repair (up-again) time        jobs killed
///   kNodeFailure          repair (up-again) time        jobs killed
///   kFaultRepair          failure time                  (unused)
///
/// For the fault kinds `cpus` carries the capacity taken down / restored,
/// and kJobKill's value is the sched::KillReason of the kill.
struct TraceEvent {
  SimTime time = 0;         ///< simulation time of the event
  std::uint64_t seq = 0;    ///< record order; (time, seq) is the total key
  EventKind kind = EventKind::kJobSubmit;
  bool interstitial = false;  ///< job class, for job/reservation events
  bool open = false;          ///< kGateDecision: gate verdict
  std::int64_t job = -1;      ///< job id; -1 when not applicable
  std::int32_t cpus = 0;      ///< job width, for job/reservation events
  SimTime aux_time = 0;       ///< kind-specific time (see table above)
  std::int64_t value = 0;     ///< kind-specific scalar (see table above)
};

}  // namespace istc::trace
