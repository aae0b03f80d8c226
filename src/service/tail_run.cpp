#include "service/tail_run.hpp"

#include "sched/presets.hpp"

namespace istc::service {

namespace {

core::RunSetup tail_setup(const TailConfig& cfg) {
  core::RunSetup setup;
  setup.spec = cluster::machine_spec(cfg.site);
  setup.downtime = cluster::site_downtime(cfg.site);
  setup.policy = sched::site_policy(cfg.site);
  setup.span = cluster::site_span(cfg.site);
  setup.local_project = cfg.stream;
  setup.first_interstitial_id = kStreamIdBase;
  return setup;
}

}  // namespace

TailRun::TailRun(const TailConfig& cfg) : core::SimRun(tail_setup(cfg)) {}

std::unique_ptr<TailRun> TailRun::fork() {
  return std::unique_ptr<TailRun>(new TailRun(*this));
}

}  // namespace istc::service
