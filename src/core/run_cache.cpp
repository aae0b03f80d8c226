#include "core/run_cache.hpp"

#include <cmath>
#include <utility>

#include "core/experiment.hpp"
#include "core/project.hpp"
#include "trace/tracer.hpp"

namespace istc::core {

const sched::RunResult& RunCache::native_baseline(cluster::Site site) {
  std::lock_guard lk(mu_);
  auto it = native_.find(site);
  if (it == native_.end()) {
    ++stats_.misses;
    // Counters-only tracing is cheap (no event records) and gives every
    // cached run a scheduling-cost profile in RunResult::trace.
    trace::Tracer tracer(trace::TraceMode::kCountersOnly);
    Scenario scenario;
    scenario.site = site;
    scenario.tracer = &tracer;
    it = native_.emplace(site, run_scenario(scenario)).first;
  } else {
    ++stats_.hits;
  }
  return it->second;
}

const sched::RunResult& RunCache::continual_run(cluster::Site site,
                                                int cpus_per_job,
                                                Seconds sec_at_1ghz,
                                                double utilization_cap) {
  const ContinualKey key{site, cpus_per_job, sec_at_1ghz,
                         std::lround(utilization_cap * 1000)};
  {
    std::lock_guard lk(mu_);
    const auto it = continual_.find(key);
    if (it != continual_.end()) {
      ++stats_.hits;
      return it->second;
    }
    ++stats_.misses;
  }
  ProjectSpec stream = ProjectSpec::continual_stream(
      cpus_per_job, sec_at_1ghz, cluster::site_span(site));
  stream.utilization_cap = utilization_cap;
  trace::Tracer tracer(trace::TraceMode::kCountersOnly);
  Scenario scenario;
  scenario.site = site;
  scenario.project = stream;
  scenario.tracer = &tracer;
  sched::RunResult result = run_scenario(scenario);
  std::lock_guard lk(mu_);
  return continual_.emplace(key, std::move(result)).first->second;
}

sched::RunResult RunCache::memoized(
    std::uint64_t key, const std::function<sched::RunResult()>& compute) {
  {
    std::lock_guard lk(mu_);
    const auto it = memo_.find(key);
    if (it != memo_.end()) {
      ++stats_.hits;
      return it->second;
    }
    ++stats_.misses;
  }
  sched::RunResult result = compute();
  std::lock_guard lk(mu_);
  return memo_.try_emplace(key, std::move(result)).first->second;
}

void RunCache::clear() {
  std::lock_guard lk(mu_);
  native_.clear();
  continual_.clear();
  memo_.clear();
}

std::size_t RunCache::size() const {
  std::lock_guard lk(mu_);
  return native_.size() + continual_.size() + memo_.size();
}

RunCache::Stats RunCache::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

RunCache& default_run_cache() {
  static RunCache cache;
  return cache;
}

}  // namespace istc::core
