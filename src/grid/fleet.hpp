#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/presets.hpp"
#include "grid/broker.hpp"
#include "grid/machine.hpp"
#include "util/thread_pool.hpp"

/// \file fleet.hpp
/// run_fleet — the conservatively synchronized federated simulation.
///
/// Epoch loop: the next boundary is the earliest time anything crosses a
/// link — a broker wake (project arrival, retry eligibility, poll tick) or
/// a machine report (grid-job completion, bounce deadline, queued kill).
/// Every machine with events in (T_prev, T] advances *independently* to T
/// (no message can reach it earlier than T + latency, the classic
/// lower-bound-timestamp argument with the link latency as lookahead), so
/// the advance step fans out over the thread pool.  The boundary step —
/// collect reports in machine order, ingest, route — is serial.  Machine
/// state therefore evolves identically at any thread count, and the fleet
/// hash is bit-stable from 1 to N shard threads (pinned by tests and by
/// bench/fleet_broker's exit-code gate).

namespace istc::grid {

struct FleetConfig {
  BrokerConfig broker;
  /// Extra boundary cadence (0 = boundaries only when messages demand
  /// them).  Exists to prove slicing is invisible: a sliced single-machine
  /// run must reproduce the unsliced golden hash.
  Seconds heartbeat = 0;
  /// Shard threads; 0 = util::default_thread_count().
  std::size_t threads = 0;
};

struct FleetMachineOutcome {
  std::string name;
  sched::RunResult run;
  GridMachine::PortStats port;
  std::uint64_t hash = 0;  ///< hash_run(run), the per-shard determinism pin
};

struct FleetResult {
  std::vector<FleetMachineOutcome> machines;
  std::vector<GridProjectSpec> projects;
  std::vector<ProjectLedger> ledgers;
  std::size_t epochs = 0;
  SimTime sim_end = 0;      ///< max over machines
  std::uint64_t hash = 0;   ///< machine hashes folded in machine order
  double fairness = 1.0;    ///< Jain's index over harvested work per share

  /// Jobs the broker placed, re-routes included: the ledgers' routed sum.
  std::size_t dispatches() const;
};

/// sched::schedule_hash over a drained run — records (id, start, end,
/// cpus), kills (id, start, end), sim_end — the exact recipe of the
/// determinism test pins, exported so grid tests and the bench gate can
/// compare against the existing goldens.
std::uint64_t hash_run(const sched::RunResult& run);

/// Jain's fairness index (sum x)^2 / (n * sum x^2); 1.0 for n == 0 or
/// all-zero.
double jain_fairness(const std::vector<double>& xs);

/// FleetRun — a whole federated fleet as a forkable run object.
///
/// Owns the machines, the broker, and the epoch-loop clock, exposing the
/// same protocol as core::SimRun — run_until / fork / finish — so a
/// core::SweepRunner<FleetRun> can sweep broker policies or quotas by
/// simulating the shared fleet prefix once and forking the *entire fleet*
/// (every shard plus the broker's ledgers) per parameter point.
///
/// run_until advances whole epochs: it processes every boundary <= t and
/// stops with the fleet standing at the last one, which is exactly where a
/// fork is legal (all machines quiescent between events, the broker
/// between route() calls).  Knob setters applied to a fork before finish()
/// take effect from that boundary on.
class FleetRun {
 public:
  FleetRun(std::vector<MachineSetup> setups,
           std::vector<GridProjectSpec> projects, const FleetConfig& cfg = {});

  FleetRun(const FleetRun&) = delete;
  FleetRun& operator=(const FleetRun&) = delete;

  /// Process every boundary with time <= t (machines fork serially inside,
  /// then advance on the pool when cfg.threads allows).
  void run_until(SimTime t);

  /// Copy-on-write snapshot of the whole fleet at the current boundary:
  /// every machine forked (sharing logs with its parent), the broker's
  /// queues and ledgers copied.  `this` is mutated only to freeze shared
  /// log prefixes.
  std::unique_ptr<FleetRun> fork();

  /// Run to completion (all grid work accounted, natives drained) and
  /// collect the result.
  FleetResult finish();

  // Sweep knobs, forwarded to the broker (apply to a fork at its boundary).
  void set_policy(BrokerPolicy policy) { broker_.set_policy(policy); }
  void set_project_quota(std::size_t project, int quota_cpus) {
    broker_.set_project_quota(project, quota_cpus);
  }

  SimTime now() const { return now_; }
  std::size_t epochs() const { return epochs_; }
  const GridBroker& broker() const { return broker_; }
  std::size_t machine_count() const { return owned_.size(); }
  const GridMachine& machine(std::size_t i) const { return *owned_[i]; }

 private:
  /// Fork constructor (use fork()).
  explicit FleetRun(FleetRun& other);

  /// Earliest time anything crosses a link (kTimeInfinity when done).
  SimTime next_boundary() const;
  void each_machine(const std::function<void(std::size_t)>& fn);

  FleetConfig cfg_;
  GridBroker broker_;
  std::vector<std::unique_ptr<GridMachine>> owned_;
  std::vector<GridMachine*> machines_;  ///< raw view for the broker
  std::optional<ThreadPool> pool_;
  SimTime now_ = 0;
  std::size_t epochs_ = 0;
  /// Report buffer reused across machines and epochs (steady-state
  /// boundaries perform no per-report allocation).
  std::vector<PortReport> report_buf_;
};

FleetResult run_fleet(std::vector<MachineSetup> setups,
                      std::vector<GridProjectSpec> projects,
                      const FleetConfig& cfg = {});

/// Native-only reference run of one machine (no interstitial stream at
/// all) — the native-impact baseline for the fleet tables.
sched::RunResult run_native_only(MachineSetup setup);

// -- presets ----------------------------------------------------------------

/// The canonical per-site machine: Table-1 spec, site downtime calendar,
/// site queueing policy, and the site's calibrated native log.
MachineSetup site_machine_setup(cluster::Site site);

/// A synthetic Ross-class variant: same spec/policy/downtime, reseeded
/// native log (same statistics, different realization), named
/// "Synthetic-<index>".
MachineSetup synthetic_machine_setup(int index);

/// Parse a fleet list like "ross,bluemtn,bluepac,synth1".  Accepted
/// tokens: ross, bluemtn (bluemountain), bluepac (bluepacific), synthN.
/// Returns nullopt on any unknown token.
std::optional<std::vector<MachineSetup>> parse_fleet_list(
    const std::string& csv);

/// The default fleet: all three paper machines plus one synthetic variant.
std::vector<MachineSetup> default_fleet();

/// A deterministic competing-project sweep: `nprojects` projects of
/// `jobs_each` machine-neutral jobs with varied widths/sizes/shares drawn
/// from `seed`, each quota-capped to `quota_frac` of `fleet_cpus` (0
/// disables quotas).
std::vector<GridProjectSpec> sweep_projects(std::size_t nprojects,
                                            std::size_t jobs_each,
                                            int fleet_cpus, double quota_frac,
                                            std::uint64_t seed);

}  // namespace istc::grid
