#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/sweep.hpp"
#include "grid/fleet.hpp"
#include "util/thread_pool.hpp"

/// \file fleet_broker.cpp
/// Fleet-scale federated simulation driver: a global broker routes a
/// competing-project parameter sweep across the paper's three machines
/// plus a synthetic Ross-class variant (DESIGN.md, "Grid / federated
/// simulation").  Prints harvest, native-impact and fairness tables, and
/// enforces two exit-code gates:
///
///   1. determinism — the fleet hash must be bit-identical at 1, 2 and 8
///      shard threads (always enforced);
///   2. speedup — with >= 4 hardware threads, 4 shard threads must beat 1
///      by ISTC_GRID_SPEEDUP_MIN (default 2.0x) on a shard-heavy fleet
///      (skipped, not failed, on narrower hosts such as 1-core CI).

namespace {

using namespace istc;
using bench::artifact_path;

constexpr std::uint64_t kSweepSeed = 0x6121D;

struct SweepConfig {
  std::size_t nprojects;
  std::size_t jobs_each;
  double quota_frac;
};

std::unique_ptr<grid::FleetRun> make_fleet_run(const SweepConfig& sweep,
                                               grid::BrokerPolicy policy,
                                               std::size_t threads) {
  auto fleet = grid::default_fleet();
  int fleet_cpus = 0;
  for (const auto& m : fleet) fleet_cpus += m.spec.cpus;
  auto projects = grid::sweep_projects(sweep.nprojects, sweep.jobs_each,
                                       fleet_cpus, sweep.quota_frac,
                                       kSweepSeed);
  grid::FleetConfig cfg;
  cfg.broker.policy = policy;
  cfg.threads = threads;
  return std::make_unique<grid::FleetRun>(std::move(fleet),
                                          std::move(projects), cfg);
}

grid::FleetResult run_default_fleet(const SweepConfig& sweep,
                                    grid::BrokerPolicy policy,
                                    std::size_t threads) {
  return make_fleet_run(sweep, policy, threads)->finish();
}

double wall_of(std::size_t threads, std::size_t machines,
               std::size_t jobs_each) {
  std::vector<grid::MachineSetup> fleet;
  for (std::size_t i = 0; i < machines; ++i)
    fleet.push_back(grid::synthetic_machine_setup(static_cast<int>(i) + 1));
  int fleet_cpus = 0;
  for (const auto& m : fleet) fleet_cpus += m.spec.cpus;
  auto projects =
      grid::sweep_projects(4, jobs_each, fleet_cpus, 0.0, kSweepSeed);
  grid::FleetConfig cfg;
  cfg.threads = threads;
  const auto t0 = std::chrono::steady_clock::now();
  (void)grid::run_fleet(std::move(fleet), std::move(projects), cfg);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

int main() {
  bench::print_preamble(
      "fleet_broker",
      "Fleet-scale harvest: global broker over Ross + Blue Mountain +\n"
      "Blue Pacific + 1 synthetic, competing projects under fair-share");

  const bool quick = bench::quick();
  const SweepConfig sweep{6, quick ? std::size_t{60} : std::size_t{250},
                          0.25};

  // -- determinism gate: bit-identical fleet hash at 1, 2, 8 shard threads.
  const auto r1 = run_default_fleet(sweep, grid::BrokerPolicy::kBestFit, 1);
  const auto r2 = run_default_fleet(sweep, grid::BrokerPolicy::kBestFit, 2);
  const auto r8 = run_default_fleet(sweep, grid::BrokerPolicy::kBestFit, 8);
  const bool hash_equal = r1.hash == r2.hash && r1.hash == r8.hash;
  std::printf("fleet hash @1/2/8 shard threads: %s / %s / %s  [%s]\n\n",
              hex64(r1.hash).c_str(), hex64(r2.hash).c_str(),
              hex64(r8.hash).c_str(), hash_equal ? "EQUAL" : "MISMATCH");

  // -- harvest / native-impact table (vs. per-machine native-only runs).
  const auto baselines = [] {
    std::vector<sched::RunResult> out;
    for (auto& setup : grid::default_fleet())
      out.push_back(grid::run_native_only(std::move(setup)));
    return out;
  }();

  Table harvest("Fleet harvest and native impact (best-fit broker)");
  harvest.headers({"machine", "cpus", "grid done", "bounced", "killed",
                   "overall util", "native util", "native-only util",
                   "native delta"});
  double worst_native_delta = 0.0;
  for (std::size_t i = 0; i < r1.machines.size(); ++i) {
    const auto& m = r1.machines[i];
    const double nu = bench::native_util_of(m.run);
    const double nu0 = bench::native_util_of(baselines[i]);
    const double delta = nu - nu0;
    if (delta < worst_native_delta) worst_native_delta = delta;
    harvest.row({m.name, Table::integer(m.run.machine.cpus),
                 Table::integer(static_cast<long long>(m.port.completed)),
                 Table::integer(static_cast<long long>(m.port.bounced)),
                 Table::integer(static_cast<long long>(m.port.killed)),
                 Table::num(bench::overall_util(m.run), 3),
                 Table::num(nu, 3), Table::num(nu0, 3),
                 Table::num(delta, 4)});
  }
  harvest.print();

  double harvested_cpu_h = 0.0;
  for (const auto& led : r1.ledgers)
    harvested_cpu_h += static_cast<double>(led.harvested_cpu_sec) / 3600.0;
  std::printf("\nharvested %.1f cpu-h across %zu dispatches in %zu epochs\n\n",
              harvested_cpu_h, r1.dispatches(), r1.epochs);

  // -- fairness table across broker policies: a SweepRunner<FleetRun>
  // scratch sweep (a whole-run policy comparison has no shared prefix —
  // routing diverges from the first boundary).  Each fleet runs its shards
  // serially (cfg.threads = 1) while the sweep advances the three policy
  // points in parallel; the best-fit point must reproduce r1's hash, which
  // pins the FleetRun path against run_fleet.
  const grid::BrokerPolicy policies[] = {grid::BrokerPolicy::kBestFit,
                                         grid::BrokerPolicy::kRoundRobin,
                                         grid::BrokerPolicy::kLeastLoaded};
  core::SweepRunner<grid::FleetRun> policy_sweep(
      std::size(policies),
      [&](std::size_t i) { return make_fleet_run(sweep, policies[i], 1); });
  const auto policy_results = policy_sweep.run_scratch(
      0, [](grid::FleetRun& run, std::size_t) { return run.finish(); });
  const bool sweep_hash_equal = policy_results[0].hash == r1.hash;
  if (!sweep_hash_equal) {
    std::printf("SWEEP MISMATCH: best-fit via SweepRunner %s vs run_fleet "
                "%s\n",
                hex64(policy_results[0].hash).c_str(), hex64(r1.hash).c_str());
  }

  Table fair("Broker policy comparison");
  fair.headers({"policy", "dispatches", "completed", "abandoned",
                "fairness (Jain)"});
  std::vector<std::pair<std::string, double>> fairness_json;
  for (std::size_t i = 0; i < policy_results.size(); ++i) {
    const grid::FleetResult& res = policy_results[i];
    std::size_t completed = 0, abandoned = 0;
    for (const auto& led : res.ledgers) {
      completed += led.completed;
      abandoned += led.abandoned();
    }
    fair.row({grid::broker_policy_name(policies[i]),
              Table::integer(static_cast<long long>(res.dispatches())),
              Table::integer(static_cast<long long>(completed)),
              Table::integer(static_cast<long long>(abandoned)),
              Table::num(res.fairness, 3)});
    fairness_json.emplace_back(grid::broker_policy_name(policies[i]),
                               res.fairness);
  }
  fair.print();

  // -- speedup gate (skipped on hosts without >= 4 hardware threads).
  const unsigned hw = std::thread::hardware_concurrency();
  const double speedup_min = bench::env_number("ISTC_GRID_SPEEDUP_MIN", 2.0);
  double speedup = 0.0;
  bool speedup_skipped = true;
  bool speedup_ok = true;
  if (hw >= 4) {
    speedup_skipped = false;
    const std::size_t machines = 8;
    const std::size_t jobs = quick ? 120 : 400;
    (void)wall_of(1, machines, jobs);  // warm caches/logs
    const double serial = wall_of(1, machines, jobs);
    const double sharded = wall_of(4, machines, jobs);
    speedup = sharded > 0.0 ? serial / sharded : 0.0;
    speedup_ok = speedup >= speedup_min;
    std::printf("\nshard speedup (8 synthetic machines, 4 vs 1 threads): "
                "%.2fx (serial %.2fs, sharded %.2fs, min %.2fx)  [%s]\n",
                speedup, serial, sharded, speedup_min,
                speedup_ok ? "PASS" : "FAIL");
  } else {
    std::printf("\nshard speedup gate skipped: hardware_concurrency=%u < 4\n",
                hw);
  }

  // -- artifact.
  const std::string path = artifact_path("BENCH_grid.json");
  {
    std::ofstream out(path, std::ios::binary);
    out << "{\n";
    out << "  \"schema\": \"istc.bench_grid.v1\",\n";
    out << "  \"fleet_hash\": \"" << hex64(r1.hash) << "\",\n";
    out << "  \"hash_equal_threads_1_2_8\": "
        << (hash_equal ? "true" : "false") << ",\n";
    out << "  \"epochs\": " << r1.epochs << ",\n";
    out << "  \"dispatches\": " << r1.dispatches() << ",\n";
    out << "  \"harvested_cpu_h\": " << harvested_cpu_h << ",\n";
    out << "  \"worst_native_util_delta\": " << worst_native_delta << ",\n";
    out << "  \"fairness\": {";
    for (std::size_t i = 0; i < fairness_json.size(); ++i)
      out << (i ? ", " : "") << "\"" << fairness_json[i].first
          << "\": " << fairness_json[i].second;
    out << "},\n";
    out << "  \"speedup\": {\"measured\": " << speedup
        << ", \"threshold\": " << speedup_min << ", \"skipped\": "
        << (speedup_skipped ? "true" : "false") << "},\n";
    out << "  \"gates\": {\"determinism\": \""
        << (hash_equal && sweep_hash_equal ? "pass" : "fail")
        << "\", \"speedup\": \""
        << (speedup_skipped ? "skip" : (speedup_ok ? "pass" : "fail"))
        << "\"}\n";
    out << "}\n";
  }
  std::printf("\nwrote %s\n", path.c_str());

  if (!hash_equal) {
    std::fprintf(stderr,
                 "FAIL: fleet hash differs across shard thread counts\n");
    return 1;
  }
  if (!sweep_hash_equal) {
    std::fprintf(stderr,
                 "FAIL: SweepRunner<FleetRun> best-fit hash differs from "
                 "run_fleet\n");
    return 1;
  }
  if (!speedup_ok) {
    std::fprintf(stderr, "FAIL: shard speedup %.2fx below %.2fx floor\n",
                 speedup, speedup_min);
    return 1;
  }
  std::printf("fleet_broker gates: PASS\n");
  return 0;
}
