#include "service/tail_run.hpp"

namespace istc::service {

namespace {

core::RunSetup tail_setup(const TailConfig& cfg) {
  core::RunSetup setup = core::site_setup(cfg.site);
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
