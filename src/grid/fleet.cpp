#include "grid/fleet.hpp"

#include <algorithm>

#include "cluster/presets.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/presets.hpp"

namespace istc::grid {

std::uint64_t hash_run(const sched::RunResult& run) {
  return sched::schedule_hash(run.records, run.killed, run.sim_end);
}

double jain_fairness(const std::vector<double>& xs) {
  if (xs.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(xs.size()) * sum_sq);
}

std::size_t FleetResult::dispatches() const {
  std::size_t routed = 0;
  for (const auto& led : ledgers) routed += led.routed;
  return routed;
}

FleetRun::FleetRun(std::vector<MachineSetup> setups,
                   std::vector<GridProjectSpec> projects,
                   const FleetConfig& cfg)
    : cfg_(cfg), broker_(std::move(projects), cfg.broker) {
  ISTC_EXPECTS(!setups.empty());
  owned_.reserve(setups.size());
  for (auto& s : setups) {
    owned_.push_back(std::make_unique<GridMachine>(std::move(s)));
  }
  for (auto& m : owned_) machines_.push_back(m.get());
  const std::size_t threads =
      cfg_.threads > 0 ? cfg_.threads : default_thread_count();
  if (threads > 1 && machines_.size() > 1) pool_.emplace(threads);
}

FleetRun::FleetRun(FleetRun& other)
    : cfg_(other.cfg_),
      broker_(other.broker_),  // queues + ledgers + dispatch log, all values
      now_(other.now_),
      epochs_(other.epochs_) {
  owned_.reserve(other.owned_.size());
  // Machines fork serially: each fork freezes its parent's shared log
  // prefixes, and the forks themselves are only advanced later (by
  // finish(), possibly on a SweepRunner's pool).
  for (auto& m : other.owned_) owned_.push_back(m->fork());
  for (auto& m : owned_) machines_.push_back(m.get());
  const std::size_t threads =
      cfg_.threads > 0 ? cfg_.threads : default_thread_count();
  if (threads > 1 && machines_.size() > 1) pool_.emplace(threads);
}

std::unique_ptr<FleetRun> FleetRun::fork() {
  return std::unique_ptr<FleetRun>(new FleetRun(*this));
}

SimTime FleetRun::next_boundary() const {
  SimTime next = broker_.next_wake(now_);
  for (const auto* m : machines_) {
    // Any queued report is deliverable at the next instant; bounce
    // deadlines and exact grid-job completions are known futures.
    next = std::min(next, m->next_report_time(now_ + 1));
  }
  if (cfg_.heartbeat > 0) {
    bool live = false;
    for (const auto* m : machines_) {
      live = live || m->next_event_time() < kTimeInfinity;
    }
    if (live) next = std::min(next, now_ + cfg_.heartbeat);
  }
  return next;
}

void FleetRun::each_machine(const std::function<void(std::size_t)>& fn) {
  obs::traced_for(pool_ ? &*pool_ : nullptr, machines_.size(),
                  "fleet.machine", fn);
}

void FleetRun::run_until(SimTime t) {
  for (;;) {
    const SimTime next = next_boundary();
    if (next >= kTimeInfinity || next > t) break;
    ISTC_ASSERT(next > now_);
    obs::ScopedSpan epoch_span("fleet.epoch",
                               static_cast<std::int64_t>(epochs_));
    // Advance phase: shards are independent up to `next` — nothing routed
    // at this boundary can land before next + latency (conservative
    // lookahead), so this fans out without any cross-shard ordering.
    {
      obs::ScopedSpan span("fleet.advance");
      each_machine([&](std::size_t i) { machines_[i]->advance(next); });
    }
    now_ = next;
    ++epochs_;
    // Boundary phase (serial, machine order, then broker): deterministic
    // regardless of how the advance phase was threaded.
    {
      obs::ScopedSpan span("fleet.boundary");
      for (auto* m : machines_) {
        report_buf_.clear();
        m->collect_reports(now_, report_buf_);
        for (const auto& report : report_buf_) broker_.ingest(report);
      }
      broker_.route(now_, machines_);
    }
  }
}

FleetResult FleetRun::finish() {
  run_until(kTimeInfinity);
  ISTC_ASSERT(broker_.done());
  // Native drain: all grid work is accounted, the rest of each machine's
  // timeline is purely local.
  each_machine([&](std::size_t i) { machines_[i]->drain(); });
  for (auto* m : machines_) {
    ISTC_ASSERT(m->collect_reports(kTimeInfinity).empty());
  }

  FleetResult out;
  out.epochs = epochs_;
  out.hash = util::kFnvOffset;
  for (auto* m : machines_) {
    FleetMachineOutcome mo;
    mo.name = m->name();
    mo.port = m->port_stats();
    mo.run = m->take_result();
    mo.hash = hash_run(mo.run);
    out.hash = util::fnv1a_u64(out.hash, mo.hash);
    out.sim_end = std::max(out.sim_end, mo.run.sim_end);
    out.machines.push_back(std::move(mo));
  }
  out.projects = broker_.project_specs();
  out.ledgers = broker_.ledgers();
  std::vector<double> per_share;
  for (std::size_t p = 0; p < out.projects.size(); ++p) {
    per_share.push_back(static_cast<double>(out.ledgers[p].harvested_cpu_sec) /
                        out.projects[p].share);
  }
  out.fairness = jain_fairness(per_share);
  return out;
}

FleetResult run_fleet(std::vector<MachineSetup> setups,
                      std::vector<GridProjectSpec> projects,
                      const FleetConfig& cfg) {
  FleetRun run(std::move(setups), std::move(projects), cfg);
  return run.finish();
}

sched::RunResult run_native_only(MachineSetup setup) {
  setup.local_project.reset();
  GridMachine machine(std::move(setup));
  machine.drain();
  return machine.take_result();
}

MachineSetup site_machine_setup(cluster::Site site) {
  MachineSetup s;
  static_cast<core::RunSetup&>(s) = core::site_setup(site);
  s.name = s.spec.name;
  s.natives = workload::site_log(site);
  return s;
}

MachineSetup synthetic_machine_setup(int index) {
  MachineSetup s = site_machine_setup(cluster::Site::kRoss);
  s.spec.name = "Synthetic-" + std::to_string(index);
  s.spec.site = "synthetic";
  s.name = s.spec.name;
  s.natives = workload::site_log(cluster::Site::kRoss,
                                 0x517D0000ull + static_cast<std::uint64_t>(index));
  return s;
}

std::optional<std::vector<MachineSetup>> parse_fleet_list(
    const std::string& csv) {
  std::vector<MachineSetup> fleet;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = std::min(csv.find(',', pos), csv.size());
    const std::string tok = csv.substr(pos, comma - pos);
    pos = comma + 1;
    if (tok.empty()) continue;
    if (const auto site = cluster::parse_site(tok)) {
      fleet.push_back(site_machine_setup(*site));
    } else if (tok.rfind("synth", 0) == 0) {
      int index = 0;
      const std::string digits = tok.substr(5);
      if (digits.empty()) return std::nullopt;
      for (const char c : digits) {
        if (c < '0' || c > '9') return std::nullopt;
        index = index * 10 + (c - '0');
      }
      fleet.push_back(synthetic_machine_setup(index));
    } else {
      return std::nullopt;
    }
  }
  if (fleet.empty()) return std::nullopt;
  return fleet;
}

std::vector<MachineSetup> default_fleet() {
  std::vector<MachineSetup> fleet;
  fleet.push_back(site_machine_setup(cluster::Site::kRoss));
  fleet.push_back(site_machine_setup(cluster::Site::kBlueMountain));
  fleet.push_back(site_machine_setup(cluster::Site::kBluePacific));
  fleet.push_back(synthetic_machine_setup(1));
  return fleet;
}

std::vector<GridProjectSpec> sweep_projects(std::size_t nprojects,
                                            std::size_t jobs_each,
                                            int fleet_cpus, double quota_frac,
                                            std::uint64_t seed) {
  ISTC_EXPECTS(nprojects > 0);
  ISTC_EXPECTS(jobs_each > 0);
  Rng rng(seed);
  static constexpr int kWidths[] = {8, 16, 32, 64};
  std::vector<GridProjectSpec> projects;
  for (std::size_t p = 0; p < nprojects; ++p) {
    GridProjectSpec spec;
    spec.name = "P";
    spec.name += std::to_string(p);
    spec.cpus_per_job = kWidths[rng.below(4)];
    // 60 s .. 20 min @ 1 GHz, the paper's interstitial-job scale.
    spec.work_per_cpu =
        static_cast<double>(60 + 60 * rng.below(20)) * cluster::kGiga;
    spec.jobs = jobs_each;
    spec.share = 1.0 + static_cast<double>(rng.below(3));
    if (quota_frac > 0) {
      const int quota =
          static_cast<int>(quota_frac * static_cast<double>(fleet_cpus));
      spec.quota_cpus = std::max(quota, spec.cpus_per_job);
    }
    spec.retry.max_retries = 3;
    spec.retry.backoff = 5 * kSecondsPerMinute;
    spec.retry.checkpoint_interval = 30 * kSecondsPerMinute;
    projects.push_back(std::move(spec));
  }
  return projects;
}

}  // namespace istc::grid
