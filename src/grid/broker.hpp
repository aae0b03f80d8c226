#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/project.hpp"
#include "grid/machine.hpp"

/// \file broker.hpp
/// GridBroker — the fleet-level interstitial dispatcher.
///
/// The broker ingests one large parameter-sweep stream: many competing
/// projects, each a bag of identical machine-neutral jobs, with per-project
/// quotas (max CPUs in flight fleet-wide) and fleet-level fair share
/// (projects are served in ascending consumed-work-per-share order).  At
/// every routing epoch it places eligible jobs on machines per the selected
/// policy and delivers them one link latency in the future; machines answer
/// with completion / kill / bounce reports that update the ledgers.
///
/// The broker runs only inside the serial boundary step of the fleet loop,
/// so none of this is thread-aware — determinism follows from the fleet
/// loop's ordering guarantees (fleet.hpp).

namespace istc::grid {

enum class BrokerPolicy : std::uint8_t {
  /// Route to the machine with the widest estimated interstice over the
  /// job's runtime window (free-CPU profile lookahead at arrival time).
  kBestFit,
  /// Rotate over candidate machines (the fairness-to-machines baseline).
  kRoundRobin,
  /// Route to the machine with the largest instantaneous free fraction.
  kLeastLoaded,
};

const char* broker_policy_name(BrokerPolicy policy);
std::optional<BrokerPolicy> parse_broker_policy(std::string_view name);

/// One competing project in the sweep stream.
struct GridProjectSpec {
  std::string name;
  int cpus_per_job = 32;
  /// Work per CPU in cycles ("120 s @ 1 GHz" = 120e9).
  cluster::Cycles work_per_cpu = 120.0 * cluster::kGiga;
  std::size_t jobs = 0;  ///< sweep size; must be > 0 (no continual mode)
  /// All of the project's jobs enter the broker queue here at once — the
  /// paper-scale "parameter sweep dropped on the fleet" shape.
  SimTime submit_time = 0;
  /// Fleet fair-share weight; consumed CPU-seconds are normalized by this.
  double share = 1.0;
  /// Max CPUs the project may hold in flight fleet-wide; 0 = unlimited.
  int quota_cpus = 0;
  /// Retry policy for fault-killed jobs (backoff / bounded retries /
  /// checkpoint remainder), applied broker-side on kill reports.
  core::FaultRetryPolicy retry;

  void check() const;
};

struct BrokerConfig {
  BrokerPolicy policy = BrokerPolicy::kBestFit;
  /// Link latency: a job routed at boundary T lands at T + latency, and a
  /// report generated at T is seen at the next boundary > T.  This is the
  /// conservative-sync lookahead, so it must be positive.
  Seconds latency = 30;

  void check() const;
};

/// Per-project accounting, updated at materialization, dispatch, and
/// report ingestion.  Conservation invariant (pinned by tests): at any
/// boundary, materialized == completed + abandoned() + in flight + queued.
struct ProjectLedger {
  std::size_t materialized = 0;
  std::size_t routed = 0;  ///< dispatches, re-routes included
  std::size_t completed = 0;
  std::size_t bounced = 0;  ///< bounce events (job lives on unless abandoned)
  std::size_t killed = 0;   ///< kill events (ditto)
  std::size_t abandoned_bounce = 0;
  std::size_t abandoned_retry = 0;
  std::size_t abandoned_unplaceable = 0;
  std::size_t inflight_jobs = 0;
  int inflight_cpus = 0;
  int peak_inflight_cpus = 0;
  /// CPU-seconds consumed fleet-wide (completions + killed partials) —
  /// the fair-share usage basis.
  std::uint64_t consumed_cpu_sec = 0;
  /// CPU-seconds of *completed* jobs only — the harvest.
  std::uint64_t harvested_cpu_sec = 0;

  std::size_t abandoned() const {
    return abandoned_bounce + abandoned_retry + abandoned_unplaceable;
  }
};

class GridBroker {
 public:
  GridBroker(std::vector<GridProjectSpec> projects, BrokerConfig cfg);

  const BrokerConfig& config() const { return cfg_; }
  const std::vector<GridProjectSpec>& project_specs() const { return specs_; }
  const std::vector<ProjectLedger>& ledgers() const { return ledgers_; }

  /// All jobs accounted: every project materialized, nothing queued,
  /// nothing in flight.
  bool done() const;

  /// Next boundary the broker itself needs (> now): the earliest pending
  /// project submit time, retry/bounce eligibility times, or a poll tick
  /// while eligible jobs sit unplaceable.  kTimeInfinity when idle.
  SimTime next_wake(SimTime now) const;

  /// Apply one machine report (boundary step, in machine order).
  void ingest(const PortReport& report);

  /// Route every placeable job: projects in fair-share order, one job per
  /// project per round until no project can place.  Placements are
  /// buffered and flushed as one deliver_batch(now + latency, ...) per
  /// machine — a million-job epoch costs one timed event per machine.
  void route(SimTime now, const std::vector<GridMachine*>& machines);

  // -- sweep support ------------------------------------------------------
  // Knob setters for fork-tree sweeps (core/sweep.hpp): a forked fleet
  // applies its point's policy/quota at the fork boundary, so every point
  // shares the prefix simulated under the base configuration.  Both knobs
  // are consulted only inside route()/ingest(), so setting them between
  // boundaries is exactly equivalent to having constructed the broker with
  // them from that boundary on.

  /// Swap the routing policy.
  void set_policy(BrokerPolicy policy) { cfg_.policy = policy; }

  /// Swap a project's fleet-wide in-flight CPU quota (0 = unlimited).
  /// Shrinking below the current in-flight count only pauses new routing
  /// until reports drain the excess.
  void set_project_quota(std::size_t project, int quota_cpus);

 private:
  struct Pending {
    GridJob job;
    SimTime eligible_at = 0;
  };
  /// A materialized project's never-routed jobs are a count, not queue
  /// entries: they are interchangeable, always eligible, and routed first,
  /// in gid order from first_gid.  `pending` holds only requeued (bounced
  /// or killed) jobs, which route() reaches once the fresh prefix is gone.
  struct Project {
    std::deque<Pending> pending;
    bool materialized = false;
    std::size_t fresh = 0;
    std::uint32_t first_gid = 0;
  };

  void materialize(SimTime now);
  /// The project's next never-routed job (its gid is first_gid plus the
  /// number already taken); requires fresh > 0.
  GridJob fresh_job(std::size_t project) const;
  void requeue(std::uint32_t project, GridJob job, SimTime eligible_at);
  /// Candidate machine per policy, or -1.  `epoch_routed` holds CPUs
  /// already committed this boundary and is how two same-epoch dispatches
  /// never oversubscribe a machine's current free pool.
  int pick_machine(const GridJob& job, SimTime now,
                   const std::vector<GridMachine*>& machines,
                   const std::vector<int>& epoch_routed);

  std::vector<GridProjectSpec> specs_;
  BrokerConfig cfg_;
  std::vector<Project> projects_;
  std::vector<ProjectLedger> ledgers_;
  std::uint32_t next_gid_ = 0;
  std::size_t rr_cursor_ = 0;
  /// Per-machine placement buffers, reused across boundaries (empty
  /// between route() calls; only capacity persists).
  std::vector<std::vector<GridJob>> delivery_buf_;
};

}  // namespace istc::grid
