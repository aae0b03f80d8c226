#include "trace/tracer.hpp"

#include <algorithm>

namespace istc::trace {

const char* kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kJobSubmit: return "job_submit";
    case EventKind::kJobStart: return "job_start";
    case EventKind::kJobFinish: return "job_finish";
    case EventKind::kJobKill: return "job_kill";
    case EventKind::kReservationMade: return "reservation_made";
    case EventKind::kReservationHonored: return "reservation_honored";
    case EventKind::kReservationViolated: return "reservation_violated";
    case EventKind::kGateDecision: return "gate_decision";
    case EventKind::kFairShareRecompute: return "fairshare_recompute";
    case EventKind::kDowntimeBegin: return "downtime_begin";
    case EventKind::kDowntimeEnd: return "downtime_end";
    case EventKind::kMachineCrash: return "machine_crash";
    case EventKind::kNodeFailure: return "node_failure";
    case EventKind::kFaultRepair: return "fault_repair";
  }
  return "unknown";
}

Tracer::Tracer(TraceMode mode, std::size_t max_events)
    : mode_(mode), max_events_(max_events) {
  if (events_enabled()) {
    chunks_.push_back(std::make_unique<TraceEvent[]>(kChunkEvents));
  }
}

void Tracer::record(TraceEvent event) {
  if (!events_enabled()) return;
  if (size_ >= max_events_) {
    ++dropped_;
    ++next_seq_;  // the key stays dense even across drops
    return;
  }
  const std::size_t chunk = size_ / kChunkEvents;
  if (chunk == chunks_.size()) {
    chunks_.push_back(std::make_unique<TraceEvent[]>(kChunkEvents));
  }
  event.seq = next_seq_++;
  chunks_[chunk][size_ % kChunkEvents] = event;
  ++size_;
}

std::vector<TraceEvent> Tracer::sorted_events() const {
  std::vector<TraceEvent> events;
  events.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) events.push_back((*this)[i]);
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.seq < b.seq;
            });
  return events;
}

void Tracer::clear() {
  size_ = 0;
  next_seq_ = 0;
  dropped_ = 0;
  if (chunks_.size() > 1) chunks_.resize(1);
  counters_ = TraceSummary{};
}

}  // namespace istc::trace
