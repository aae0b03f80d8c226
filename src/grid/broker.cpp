#include "grid/broker.hpp"

#include <algorithm>
#include <numeric>

#include "core/driver.hpp"
#include "util/assert.hpp"

namespace istc::grid {

namespace {

/// Re-check cadence while eligible jobs exist but nothing is placeable.
constexpr Seconds kPoll = 10 * kSecondsPerMinute;
/// Delay before a bounced job becomes routable again (prevents tight
/// bounce/re-route cycles against a machine whose gate stays closed).
constexpr Seconds kBounceBackoff = 10 * kSecondsPerMinute;
/// Bounces per job before its work is abandoned.
constexpr int kMaxBounces = 64;

}  // namespace

const char* broker_policy_name(BrokerPolicy policy) {
  switch (policy) {
    case BrokerPolicy::kBestFit:
      return "best-fit";
    case BrokerPolicy::kRoundRobin:
      return "round-robin";
    case BrokerPolicy::kLeastLoaded:
      return "least-loaded";
  }
  return "unknown";
}

std::optional<BrokerPolicy> parse_broker_policy(std::string_view name) {
  if (name == "best-fit") return BrokerPolicy::kBestFit;
  if (name == "round-robin") return BrokerPolicy::kRoundRobin;
  if (name == "least-loaded") return BrokerPolicy::kLeastLoaded;
  return std::nullopt;
}

void GridProjectSpec::check() const {
  ISTC_ASSERT(cpus_per_job > 0);
  ISTC_ASSERT(work_per_cpu > 0);
  ISTC_ASSERT(jobs > 0);
  ISTC_ASSERT(submit_time >= 0);
  ISTC_ASSERT(share > 0);
  ISTC_ASSERT(quota_cpus >= 0);
  ISTC_ASSERT(quota_cpus == 0 || quota_cpus >= cpus_per_job);
  retry.check();
}

void BrokerConfig::check() const {
  ISTC_ASSERT(latency > 0);
}

GridBroker::GridBroker(std::vector<GridProjectSpec> projects, BrokerConfig cfg)
    : specs_(std::move(projects)), cfg_(cfg) {
  cfg_.check();
  for (const auto& p : specs_) p.check();
  projects_.resize(specs_.size());
  ledgers_.resize(specs_.size());
}

bool GridBroker::done() const {
  for (std::size_t p = 0; p < projects_.size(); ++p) {
    if (!projects_[p].materialized) return false;
    if (projects_[p].fresh != 0 || !projects_[p].pending.empty()) return false;
    if (ledgers_[p].inflight_jobs != 0) return false;
  }
  return true;
}

SimTime GridBroker::next_wake(SimTime now) const {
  SimTime t = kTimeInfinity;
  for (std::size_t p = 0; p < projects_.size(); ++p) {
    if (!projects_[p].materialized) {
      t = std::min(t, std::max(specs_[p].submit_time, now + 1));
      continue;
    }
    // Fresh jobs are always eligible: one still waiting means the last
    // route() pass could not place it.
    if (projects_[p].fresh != 0) t = std::min(t, now + kPoll);
    for (const auto& w : projects_[p].pending) {
      // An eligible job still queued means the last route() pass could not
      // place it — re-check on the poll cadence.  An ineligible job has a
      // known wake time.
      t = std::min(t, w.eligible_at <= now ? now + kPoll : w.eligible_at);
    }
  }
  return t;
}

void GridBroker::materialize(SimTime now) {
  for (std::size_t p = 0; p < projects_.size(); ++p) {
    auto& proj = projects_[p];
    if (proj.materialized || specs_[p].submit_time > now) continue;
    proj.materialized = true;
    proj.fresh = specs_[p].jobs;
    proj.first_gid = next_gid_;
    next_gid_ += static_cast<std::uint32_t>(specs_[p].jobs);
    ledgers_[p].materialized += specs_[p].jobs;
  }
}

GridJob GridBroker::fresh_job(std::size_t project) const {
  const Project& proj = projects_[project];
  ISTC_ASSERT(proj.fresh > 0);
  const GridProjectSpec& spec = specs_[project];
  GridJob job;
  job.gid = proj.first_gid + static_cast<std::uint32_t>(spec.jobs - proj.fresh);
  job.project = static_cast<std::uint32_t>(project);
  job.cpus = spec.cpus_per_job;
  job.work_per_cpu = spec.work_per_cpu;
  job.checkpoint = spec.retry.checkpoint_interval;
  return job;
}

void GridBroker::set_project_quota(std::size_t project, int quota_cpus) {
  ISTC_EXPECTS(project < specs_.size());
  ISTC_EXPECTS(quota_cpus >= 0);
  ISTC_EXPECTS(quota_cpus == 0 || quota_cpus >= specs_[project].cpus_per_job);
  specs_[project].quota_cpus = quota_cpus;
}

void GridBroker::requeue(std::uint32_t project, GridJob job,
                         SimTime eligible_at) {
  projects_[project].pending.push_back({job, eligible_at});
}

void GridBroker::ingest(const PortReport& report) {
  const std::uint32_t p = report.job.project;
  ISTC_EXPECTS(p < ledgers_.size());
  auto& led = ledgers_[p];
  ISTC_ASSERT(led.inflight_jobs > 0);
  ISTC_ASSERT(led.inflight_cpus >= report.job.cpus);
  --led.inflight_jobs;
  led.inflight_cpus -= report.job.cpus;
  led.consumed_cpu_sec += report.cpu_sec;
  switch (report.kind) {
    case ReportKind::kCompleted:
      ++led.completed;
      led.harvested_cpu_sec += report.cpu_sec;
      break;
    case ReportKind::kBounced: {
      ++led.bounced;
      GridJob job = report.job;
      ++job.bounces;
      if (job.bounces > kMaxBounces) {
        ++led.abandoned_bounce;
      } else {
        requeue(p, job, report.time + kBounceBackoff);
      }
      break;
    }
    case ReportKind::kKilled: {
      ++led.killed;
      GridJob job = report.job;  // work_per_cpu is already the remainder
      ++job.attempts;
      if (job.attempts > specs_[p].retry.max_retries) {
        ++led.abandoned_retry;
      } else {
        requeue(p, job, report.time + specs_[p].retry.backoff);
      }
      break;
    }
  }
}

int GridBroker::pick_machine(const GridJob& job, SimTime now,
                             const std::vector<GridMachine*>& machines,
                             const std::vector<int>& epoch_routed) {
  const SimTime arrive = now + cfg_.latency;
  int best = -1;
  std::int64_t best_score = 0;
  const std::size_t n = machines.size();
  for (std::size_t k = 0; k < n; ++k) {
    // Round-robin starts its scan at the rotating cursor; the other
    // policies scan in index order (ties resolve to the lowest index).
    const std::size_t i =
        cfg_.policy == BrokerPolicy::kRoundRobin ? (rr_cursor_ + k) % n : k;
    GridMachine* m = machines[i];
    if (!m->accepts_routed()) continue;
    const int avail = m->free_cpus() - epoch_routed[i];
    if (avail < job.cpus) continue;
    const Seconds runtime = m->runtime_for(job.work_per_cpu);
    if (!m->can_run_at(arrive, runtime)) continue;
    // Remote evaluation of the Figure-1 gate: never ship a job to a
    // machine whose native queue would (per estimates) reclaim the CPUs
    // before the job could finish — it would only land and bounce.
    if (!core::queue_gate_open(m->last_pass(), arrive, runtime)) continue;
    std::int64_t score = 0;
    switch (cfg_.policy) {
      case BrokerPolicy::kBestFit:
        // Widest estimated interstice over the job's window, net of CPUs
        // already committed this epoch.
        score = static_cast<std::int64_t>(m->lookahead_min_free(arrive, runtime)) -
                epoch_routed[i];
        break;
      case BrokerPolicy::kLeastLoaded:
        // Largest free fraction; scaled to keep integer comparisons.
        score = static_cast<std::int64_t>(avail) * 1'000'000 / m->capacity();
        break;
      case BrokerPolicy::kRoundRobin:
        rr_cursor_ = (i + 1) % n;
        return static_cast<int>(i);
    }
    if (best < 0 || score > best_score) {
      best = static_cast<int>(i);
      best_score = score;
    }
  }
  return best;
}

void GridBroker::route(SimTime now, const std::vector<GridMachine*>& machines) {
  materialize(now);
  if (delivery_buf_.size() < machines.size()) {
    delivery_buf_.resize(machines.size());
  }
  std::vector<int> epoch_routed(machines.size(), 0);
  int fleet_max_cpus = 0;
  for (const auto* m : machines) {
    if (m->accepts_routed()) fleet_max_cpus = std::max(fleet_max_cpus, m->capacity());
  }
  // Fair-share order: ascending consumed-work-per-share, project index as
  // the tie-break.  Usage only changes at ingest, so the order is stable
  // across the placement rounds of one boundary.
  std::vector<std::size_t> order(projects_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     const double ua =
                         static_cast<double>(ledgers_[a].consumed_cpu_sec) /
                         specs_[a].share;
                     const double ub =
                         static_cast<double>(ledgers_[b].consumed_cpu_sec) /
                         specs_[b].share;
                     return ua < ub;
                   });
  bool progress = true;
  while (progress) {
    progress = false;
    for (const std::size_t p : order) {
      Project& proj = projects_[p];
      auto& pending = proj.pending;
      auto& led = ledgers_[p];
      // First eligible job: a fresh one while any remain, else the first
      // eligible requeued one.  Within a project jobs are interchangeable
      // (retry remainders differ, but any order is fair).
      const bool fresh = proj.fresh != 0;
      auto it = pending.end();
      if (!fresh) {
        it = std::find_if(
            pending.begin(), pending.end(),
            [now](const Pending& w) { return w.eligible_at <= now; });
        if (it == pending.end()) continue;
      }
      const GridJob job = fresh ? fresh_job(p) : it->job;
      // Take the job off its queue once it is placed or abandoned.
      const auto take = [&] {
        if (fresh) {
          --proj.fresh;
        } else {
          pending.erase(it);
        }
      };
      if (job.cpus > fleet_max_cpus) {
        // No routed-accepting machine could ever hold this job.
        ++led.abandoned_unplaceable;
        take();
        progress = true;
        continue;
      }
      const int quota = specs_[p].quota_cpus;
      if (quota > 0 && led.inflight_cpus + job.cpus > quota) continue;
      const int m = pick_machine(job, now, machines, epoch_routed);
      if (m < 0) continue;
      const int free_now = machines[static_cast<std::size_t>(m)]->free_cpus() -
                           epoch_routed[static_cast<std::size_t>(m)];
      ISTC_ASSERT(free_now >= job.cpus);
      delivery_buf_[static_cast<std::size_t>(m)].push_back(job);
      epoch_routed[static_cast<std::size_t>(m)] += job.cpus;
      ++led.routed;
      ++led.inflight_jobs;
      led.inflight_cpus += job.cpus;
      led.peak_inflight_cpus = std::max(led.peak_inflight_cpus, led.inflight_cpus);
      ISTC_ASSERT(quota == 0 || led.inflight_cpus <= quota);
      take();
      progress = true;
    }
  }
  // Flush one packed batch per machine.  All of a boundary's deliveries
  // land at the same instant, and within a machine the span preserves
  // placement order, so batching is observably identical to the per-job
  // deliveries it replaces — minus ~batch-size timed events.
  for (std::size_t i = 0; i < machines.size(); ++i) {
    auto& batch = delivery_buf_[i];
    if (batch.empty()) continue;
    machines[i]->deliver_batch(now + cfg_.latency, batch);
    batch.clear();
  }
}

}  // namespace istc::grid
