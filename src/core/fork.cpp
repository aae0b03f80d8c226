#include "core/fork.hpp"

#include <algorithm>

#include "metrics/report.hpp"
#include "sched/presets.hpp"
#include "util/assert.hpp"
#include "workload/presets.hpp"

namespace istc::core {

namespace {

RunSetup scenario_setup(const Scenario& scenario) {
  const cluster::Site site = scenario.site;
  RunSetup setup = site_setup(site);
  setup.policy.preempt_interstitial = scenario.preempt_interstitial;
  if (scenario.backfill) setup.policy.backfill = *scenario.backfill;
  setup.natives = scenario.log_seed == 0
                      ? workload::site_log(site)
                      : workload::site_log(site, scenario.log_seed);
  if (scenario.perfect_estimates) {
    setup.natives = workload::with_perfect_estimates(setup.natives);
  }
  if (scenario.native_time_factor != 1.0 ||
      scenario.native_size_factor != 1.0) {
    setup.natives = workload::with_scaled_jobs(
        setup.natives, scenario.native_time_factor,
        scenario.native_size_factor, setup.spec.cpus);
  }
  setup.local_project = scenario.project;
  setup.faults = scenario.faults;
  return setup;
}

}  // namespace

RunSetup site_setup(cluster::Site site) {
  RunSetup setup;
  setup.spec = cluster::machine_spec(site);
  setup.downtime = cluster::site_downtime(site);
  setup.policy = sched::site_policy(site);
  setup.span = cluster::site_span(site);
  return setup;
}

SimRun::SimRun(RunSetup setup) : span_(setup.span) {
  scheduler_ = std::make_unique<sched::BatchScheduler>(
      engine_,
      cluster::Machine(std::move(setup.spec), std::move(setup.downtime)),
      std::move(setup.policy));
  scheduler_->load(setup.natives);
  if (setup.local_project) {
    add_stream(std::move(*setup.local_project), setup.stream_first_id());
  }
  if (setup.faults.enabled()) add_faults(setup.faults);
}

SimRun::SimRun(const Scenario& scenario) : SimRun(scenario_setup(scenario)) {
  if (scenario.tracer != nullptr) set_tracer(scenario.tracer);
  // Attached last so the sampler's first tick follows every constructor's
  // initial events in sequence order; attach only observes the run.
  if (scenario.metrics != nullptr) {
    scenario.metrics->attach(engine_, *scheduler_, span_);
  }
}

SimRun::SimRun(SimRun& other)
    : span_(other.span_),
      records_hash_(other.records_hash_),
      hashed_records_(other.hashed_records_) {
  // adopt_state checks that no sample is pending.
  engine_.adopt_state(other.engine_);
  scheduler_ =
      std::make_unique<sched::BatchScheduler>(engine_, *other.scheduler_);
  if (other.driver_) driver_.emplace(*scheduler_, *other.driver_);
  if (other.injector_) injector_.emplace(*scheduler_, *other.injector_);
}

std::unique_ptr<SimRun> SimRun::fork() {
  return std::unique_ptr<SimRun>(new SimRun(*this));
}

void SimRun::run_until(SimTime t) {
  while (engine_.next_event_time() <= t) engine_.step();
}

void SimRun::add_stream(ProjectSpec spec, workload::JobId first_id) {
  ISTC_EXPECTS(!driver_);
  spec.start_time = std::max(spec.start_time, engine_.now());
  driver_.emplace(*scheduler_, std::move(spec), first_id);
}

void SimRun::add_faults(fault::FaultSpec spec) {
  ISTC_EXPECTS(!injector_);
  ISTC_EXPECTS(spec.start >= engine_.now());
  spec.stop = std::min(spec.stop, span_);
  injector_.emplace(*scheduler_, spec);
}

sched::RunResult SimRun::finish() {
  engine_.run();
  return scheduler_->take_result(span_);
}

std::uint64_t SimRun::state_hash() {
  const auto& records = scheduler_->completed_records();
  if (records.size() < hashed_records_) {  // finish() took the log
    records_hash_ = util::kFnvOffset;
    hashed_records_ = 0;
  }
  records_hash_ = sched::hash_records(records_hash_, records, hashed_records_);
  hashed_records_ = records.size();
  return sched::hash_kills_and_end(records_hash_, scheduler_->killed_records(),
                                   engine_.now());
}

}  // namespace istc::core
