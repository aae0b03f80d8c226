#include "sim/engine.hpp"

namespace istc::sim {

void Engine::on_quiescent(std::function<void(SimTime)> hook) {
  ISTC_EXPECTS(hook != nullptr);
  hooks_.push_back(std::move(hook));
}

void Engine::dispatch(const Event& e) {
  switch (e.type) {
    case EventType::kJobSubmit:
      sink_->job_submit(e.arg);
      break;
    case EventType::kJobFinish:
      sink_->job_finish(e.arg);
      break;
    case EventType::kSchedulerWake:
      break;  // its entire effect is the quiescent pass that follows
    case EventType::kCapacityRepair:
      sink_->capacity_repair(e.arg);
      break;
    case EventType::kFaultFire:
      fault_hook_(e.arg);
      break;
    case EventType::kGridArrival:
      grid_hook_(e.arg);
      break;
    case EventType::kSample:
      // Never queued: the pending sample is the next_sample_ scalar and
      // fires from drain_current_time (see Engine::schedule_sample).
      break;
  }
}

void Engine::drain_current_time() {
  // Alternate "drain events at now_" with "run hooks" until neither side
  // produces more work at this timestamp.  The guard bounds pathological
  // hook/event ping-pong (a correct model converges in a few rounds).
  constexpr int kMaxRounds = 64;
  int rounds = 0;
  std::uint64_t batch = 0;
  ++stats_.timesteps;
  // Claim the pending sample up front; it fires after the timestep
  // settles, so it observes the post-pass state and its hook can re-arm.
  const bool sample_due = next_sample_ == now_;
  if (sample_due) next_sample_ = kTimeInfinity;
  for (;;) {
    bool fired = false;
    while (!queue_.empty() && queue_.next_time() == now_) {
      ++events_processed_;
      ++batch;
      dispatch(queue_.pop());
      fired = true;
    }
    // Hook transparency: a timestamp reached only by the sample probes
    // state but changes nothing, so the quiescent hooks (the scheduler
    // pass) are skipped and the schedule is bit-identical to an unsampled
    // run.
    if (!fired && rounds == 0 && sample_due) break;
    if (!fired && rounds > 0) break;  // hooks already ran, nothing new
    for (auto& hook : hooks_) hook(now_);
    ++rounds;
    ISTC_ASSERT(rounds < kMaxRounds);
    if (queue_.empty() || queue_.next_time() != now_) break;
  }
  if (sample_due) {
    ++events_processed_;
    ++batch;
    if (sample_hook_) sample_hook_(now_);
  }
  if (batch > stats_.max_timestep_batch) stats_.max_timestep_batch = batch;
  stats_.heap_allocations = queue_.heap_allocations();
}

bool Engine::step() {
  if (queue_empty()) return false;
  now_ = queue_next_time();
  drain_current_time();
  return true;
}

void Engine::run(SimTime until) {
  while (!queue_empty() && queue_next_time() <= until) {
    now_ = queue_next_time();
    drain_current_time();
  }
  if (now_ < until && until != kTimeInfinity) now_ = until;
}

}  // namespace istc::sim
