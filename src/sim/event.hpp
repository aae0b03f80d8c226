#pragma once

#include <cstdint>
#include <type_traits>

#include "util/time.hpp"

/// \file event.hpp
/// The event core's entry vocabulary: the 24-byte `Event` and its
/// (time, seq) ordering contract.
///
/// Ordering contract: events fire in strictly increasing (time, seq) order,
/// where `seq` is the queue's push counter.  Ties on `time` therefore fire
/// in insertion (FIFO) order, independent of queue internals, which is what
/// makes replays deterministic and lets the tracer mirror the key.
///
/// Every event kind carries a 32-bit argument (a submission index, a
/// job-store slot, an outage id, ...) instead of a captured closure, so an
/// entry is trivially copyable and a mid-run queue is plain data.  The
/// queue itself is the calendar queue of calendar_queue.hpp.

namespace istc::sim {

/// The simulation's event kinds: everything the scheduler stack, the
/// fault injector and the grid port schedule.
enum class EventType : std::uint8_t {
  kJobSubmit,       ///< arg = submission index (JobEventSink::job_submit)
  kJobFinish,       ///< arg = job-store slot (JobEventSink::job_finish)
  kSchedulerWake,   ///< no payload; exists to trigger a quiescent pass
  kSample,          ///< no payload; invokes the engine's sample hook only
  kCapacityRepair,  ///< arg = outage id (JobEventSink::capacity_repair)
  kFaultFire,       ///< arg = fault-timeline index (engine fault hook)
  kGridArrival,     ///< arg = delivery-log index (engine grid hook)
};

inline constexpr int kNumEventTypes = 7;

/// One queue entry.  Trivially copyable and small on purpose: bucket
/// spreads and window sorts move these with plain assignment, and a run
/// fork copies them wholesale.
struct Event {
  SimTime time = 0;
  std::uint64_t seq = 0;
  std::uint32_t arg = 0;  ///< submission index / job slot / outage id / ...
  EventType type = EventType::kSchedulerWake;
};

static_assert(std::is_trivially_copyable_v<Event>,
              "bucket moves and run forks rely on memcpy-equivalent copies");
static_assert(sizeof(Event) <= 24,
              "keep queue entries small: move cost is copy cost");

/// The ordering contract.
inline bool event_before(const Event& a, const Event& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

}  // namespace istc::sim
