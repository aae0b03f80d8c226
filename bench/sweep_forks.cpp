// Fork-tree sweep engine gates (core/sweep.hpp) — the tentpole bench.
//
// Three sections, each an exit-code gate, all summarized in
// BENCH_sweep.json for CI trend tracking:
//
//   1. cap sweep (core::SimRun) — Table 8 (limited)'s utilization caps,
//      windowed: applied from 7/8 of the span on, as a verified fork tree.
//      Every point equal to its from-scratch twin (bench::same_run), a
//      >= 2x end-to-end speedup (1.3x quick; ISTC_FORK_SPEEDUP_MIN
//      overrides), and fork results equal at 1, 2 and 8 sweep threads.
//      (table9_limited prints the paper's whole-run caps.)
//   2. fleet policy x quota sweep (grid::FleetRun) — a whole brokered
//      fleet forked per parameter point at a mid-run boundary: routing
//      policy and per-project quotas applied from the fork point on,
//      verified against scratch runs, >= 1.5x speedup (1.2x quick;
//      ISTC_FLEET_SPEEDUP_MIN overrides), and thread-count determinism.
//   3. million-job stream — a 1M-job (100k quick) four-project stream
//      through four Ross-class machines, exercising the batched
//      delivery/report path: one packed span per (machine, boundary)
//      instead of one timed event per job.  Fleet hash must be identical
//      at 1, 2 and 8 shard threads and every job accounted for.
//
// Speedup arms run at one sweep thread so the ratio measures prefix
// reuse, not host parallelism; thread-count gates rerun the forked arm at
// 2 and 8 threads and require identical hashes, not identical wall.

#include <chrono>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/fork.hpp"
#include "core/sweep.hpp"
#include "grid/fleet.hpp"

namespace {

using namespace istc;

bool same_fleet(const grid::FleetResult& a, const grid::FleetResult& b) {
  if (a.hash != b.hash || a.epochs != b.epochs || a.sim_end != b.sim_end ||
      a.ledgers.size() != b.ledgers.size()) {
    return false;
  }
  for (std::size_t p = 0; p < a.ledgers.size(); ++p) {
    const auto& la = a.ledgers[p];
    const auto& lb = b.ledgers[p];
    if (la.routed != lb.routed || la.completed != lb.completed ||
        la.abandoned() != lb.abandoned() ||
        la.harvested_cpu_sec != lb.harvested_cpu_sec ||
        la.consumed_cpu_sec != lb.consumed_cpu_sec) {
      return false;
    }
  }
  return true;
}

struct GateResult {
  double speedup = 0.0;
  double threshold = 0.0;
  bool equal = false;         ///< forked == scratch, every point
  bool threads_equal = false; ///< identical hashes at 1/2/8 sweep threads
  double forked_wall_s = 0.0;
  double scratch_wall_s = 0.0;
  bool pass() const {
    return equal && threads_equal &&
           (threshold <= 0 || speedup >= threshold);
  }
};

// -- 1. cap sweep on SimRun -------------------------------------------------

GateResult cap_sweep() {
  const double caps[] = {0.90, 0.95, 0.98, 1.0};
  constexpr std::size_t kPoints = std::size(caps);
  const SimTime span = cluster::site_span(cluster::Site::kBlueMountain);
  const SimTime t0 = span / 8 * 7;

  const auto make = [](std::size_t) {
    return std::make_unique<core::SimRun>(bench::bluemtn_scenario(32, 120));
  };
  const auto finish = [&caps](core::SimRun& run, std::size_t i) {
    if (caps[i] < 1.0) run.driver()->set_utilization_cap(caps[i]);
    return run.finish();
  };

  core::SweepRunner<core::SimRun> sweep(kPoints, make);
  sweep.set_threads(1);
  const auto verified = sweep.run_verified(t0, finish, bench::same_run);

  GateResult g;
  g.speedup = verified.speedup();
  g.threshold = bench::env_number("ISTC_FORK_SPEEDUP_MIN",
                                  bench::quick() ? 1.3 : 2.0);
  g.equal = verified.equal;
  g.forked_wall_s = verified.forked_wall_s;
  g.scratch_wall_s = verified.scratch_wall_s;

  g.threads_equal = true;
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    sweep.set_threads(threads);
    const auto rerun = sweep.run_forked(t0, finish);
    for (std::size_t i = 0; i < kPoints; ++i) {
      if (!bench::same_run(rerun[i], verified.forked[i])) {
        std::printf("CAP SWEEP MISMATCH at %zu threads, point %zu\n",
                    threads, i);
        g.threads_equal = false;
      }
    }
  }

  std::printf(
      "cap sweep (4 caps, fork at 7/8 span): forked %.2fs vs scratch %.2fs "
      "(%.2fx, need >=%.2fx)  equal=%s  threads(1/2/8)=%s\n",
      g.forked_wall_s, g.scratch_wall_s, g.speedup, g.threshold,
      g.equal ? "yes" : "NO", g.threads_equal ? "equal" : "MISMATCH");
  return g;
}

// -- 2. fleet policy x quota sweep on FleetRun ------------------------------

GateResult fleet_sweep() {
  const bool quick = bench::quick();
  // The fork point sits at the Ross span: four projects arrive before it
  // (their routing is prefix work shared by all nine points, along with
  // both Ross-class machines' entire native logs), and the last two arrive
  // after it — routed from scratch under each point's policy and quota on
  // the machines still in service (Blue Mountain / Blue Pacific).
  const SimTime ross_span = cluster::site_span(cluster::Site::kRoss);
  const SimTime t0 = ross_span;

  const auto make = [&](std::size_t) {
    auto fleet = grid::default_fleet();
    int fleet_cpus = 0;
    for (const auto& m : fleet) fleet_cpus += m.spec.cpus;
    auto projects = grid::sweep_projects(6, quick ? 40 : 150, fleet_cpus,
                                         0.0, 0x517EE9);
    for (std::size_t p = 0; p < 4; ++p) {
      projects[p].submit_time = static_cast<SimTime>(p) * ross_span / 4;
    }
    projects[4].submit_time = ross_span + ross_span / 8;
    projects[5].submit_time = ross_span + ross_span / 4;
    grid::FleetConfig cfg;
    cfg.threads = 1;  // shards serial; the sweep parallelizes points
    return std::make_unique<grid::FleetRun>(std::move(fleet),
                                            std::move(projects), cfg);
  };

  const grid::BrokerPolicy policies[] = {grid::BrokerPolicy::kBestFit,
                                         grid::BrokerPolicy::kRoundRobin,
                                         grid::BrokerPolicy::kLeastLoaded};
  const int quota_div[] = {0, 16, 32};  // fleet_cpus / div; 0 = unlimited
  constexpr std::size_t kPoints = std::size(policies) * std::size(quota_div);

  const auto finish = [&](grid::FleetRun& run, std::size_t i) {
    run.set_policy(policies[i % std::size(policies)]);
    const int div = quota_div[i / std::size(policies)];
    if (div > 0) {
      int fleet_cpus = 0;
      for (std::size_t m = 0; m < run.machine_count(); ++m) {
        fleet_cpus += run.machine(m).capacity();
      }
      const std::size_t nprojects = run.broker().project_specs().size();
      for (std::size_t p = 0; p < nprojects; ++p) {
        run.set_project_quota(p, fleet_cpus / div);
      }
    }
    return run.finish();
  };

  core::SweepRunner<grid::FleetRun> sweep(kPoints, make);
  sweep.set_threads(1);
  const auto verified = sweep.run_verified(t0, finish, same_fleet);

  GateResult g;
  g.speedup = verified.speedup();
  g.threshold = bench::env_number("ISTC_FLEET_SPEEDUP_MIN", quick ? 1.2 : 1.5);
  g.equal = verified.equal;
  g.forked_wall_s = verified.forked_wall_s;
  g.scratch_wall_s = verified.scratch_wall_s;

  g.threads_equal = true;
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    sweep.set_threads(threads);
    const auto rerun = sweep.run_forked(t0, finish);
    for (std::size_t i = 0; i < kPoints; ++i) {
      if (!same_fleet(rerun[i], verified.forked[i])) {
        std::printf("FLEET SWEEP MISMATCH at %zu threads, point %zu\n",
                    threads, i);
        g.threads_equal = false;
      }
    }
  }

  Table t("policy x quota at the fork boundary (forked arm)");
  t.headers({"policy", "quota", "dispatches", "completed", "abandoned",
             "fairness (Jain)", "fleet hash"});
  for (std::size_t i = 0; i < kPoints; ++i) {
    const grid::FleetResult& res = verified.forked[i];
    std::size_t completed = 0, abandoned = 0;
    for (const auto& led : res.ledgers) {
      completed += led.completed;
      abandoned += led.abandoned();
    }
    char hash_hex[24];
    std::snprintf(hash_hex, sizeof hash_hex, "%016llx",
                  static_cast<unsigned long long>(res.hash));
    const int div = quota_div[i / std::size(policies)];
    t.row({grid::broker_policy_name(policies[i % std::size(policies)]),
           div == 0 ? "-" : ("fleet/" + Table::integer(div)),
           Table::integer(static_cast<long long>(res.dispatches())),
           Table::integer(static_cast<long long>(completed)),
           Table::integer(static_cast<long long>(abandoned)),
           Table::num(res.fairness, 3), hash_hex});
  }
  t.print();

  std::printf(
      "fleet sweep (9 points, fork at Ross span): forked %.2fs vs scratch "
      "%.2fs (%.2fx, need >=%.2fx)  equal=%s  threads(1/2/8)=%s\n",
      g.forked_wall_s, g.scratch_wall_s, g.speedup, g.threshold,
      g.equal ? "yes" : "NO", g.threads_equal ? "equal" : "MISMATCH");
  return g;
}

// -- 3. million-job batched stream ------------------------------------------

struct StreamResult {
  std::size_t jobs = 0;
  std::size_t delivered = 0;
  std::size_t batches = 0;
  std::size_t completed = 0;
  std::size_t abandoned = 0;
  std::size_t epochs = 0;
  std::uint64_t hash = 0;
  double wall_s = 0.0;
  bool hash_equal = false;
  bool accounted = false;
  bool pass() const { return hash_equal && accounted; }
};

StreamResult million_stream() {
  const bool quick = bench::quick();
  const std::size_t jobs_each = quick ? 25'000 : 250'000;
  constexpr std::size_t kProjects = 4;
  const int widths[kProjects] = {1, 2, 4, 8};

  const auto run_at = [&](std::size_t threads, std::size_t* batches_out,
                          std::size_t* delivered_out) {
    std::vector<grid::MachineSetup> fleet;
    for (int i = 0; i < 4; ++i) {
      fleet.push_back(grid::synthetic_machine_setup(i + 10));
    }
    std::vector<grid::GridProjectSpec> projects;
    for (std::size_t p = 0; p < kProjects; ++p) {
      grid::GridProjectSpec spec;
      spec.name = "S";
      spec.name += std::to_string(p);
      spec.cpus_per_job = widths[p];
      spec.work_per_cpu = 5.0 * cluster::kGiga;  // ~8.5 s on a Ross clock
      spec.jobs = jobs_each;
      projects.push_back(std::move(spec));
    }
    grid::FleetConfig cfg;
    cfg.threads = threads;
    grid::FleetRun run(std::move(fleet), std::move(projects), cfg);
    grid::FleetResult res = run.finish();
    if (batches_out != nullptr || delivered_out != nullptr) {
      std::size_t batches = 0, delivered = 0;
      for (std::size_t m = 0; m < run.machine_count(); ++m) {
        batches += run.machine(m).delivery_batches();
        delivered += run.machine(m).port_stats().delivered;
      }
      if (batches_out != nullptr) *batches_out = batches;
      if (delivered_out != nullptr) *delivered_out = delivered;
    }
    return res;
  };

  StreamResult s;
  s.jobs = jobs_each * kProjects;
  const auto wall_t0 = std::chrono::steady_clock::now();
  const grid::FleetResult r1 = run_at(1, &s.batches, &s.delivered);
  s.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           wall_t0)
                 .count();
  const grid::FleetResult r2 = run_at(2, nullptr, nullptr);
  const grid::FleetResult r8 = run_at(8, nullptr, nullptr);

  s.hash = r1.hash;
  s.hash_equal = r1.hash == r2.hash && r1.hash == r8.hash;
  s.epochs = r1.epochs;
  for (const auto& led : r1.ledgers) {
    s.completed += led.completed;
    s.abandoned += led.abandoned();
  }
  s.accounted = s.completed + s.abandoned == s.jobs;

  std::printf(
      "million-job stream: %zu jobs, %zu delivered in %zu batches "
      "(%.0f jobs/batch), %zu epochs, %zu completed, %zu abandoned, "
      "%.1fs @1 thread\n"
      "fleet hash @1/2/8 shard threads: %016llx  [%s]  accounted=%s\n",
      s.jobs, s.delivered, s.batches,
      s.batches > 0 ? static_cast<double>(s.delivered) /
                          static_cast<double>(s.batches)
                    : 0.0,
      s.epochs, s.completed, s.abandoned, s.wall_s,
      static_cast<unsigned long long>(s.hash),
      s.hash_equal ? "EQUAL" : "MISMATCH", s.accounted ? "yes" : "NO");
  return s;
}

}  // namespace

int main() {
  bench::print_preamble(
      "sweep_forks",
      "Fork-tree sweep engine gates: verified cap sweep (SimRun), fleet\n"
      "policy x quota sweep (FleetRun), and the million-job batched stream");

  std::printf("-- 1. utilization-cap fork sweep (Blue Mountain) --\n");
  const GateResult cap = cap_sweep();
  std::printf("\n-- 2. fleet policy x quota fork sweep (default fleet) --\n");
  const GateResult fleet = fleet_sweep();
  std::printf("\n-- 3. million-job batched delivery stream --\n");
  const StreamResult stream = million_stream();

  const std::string path = bench::artifact_path("BENCH_sweep.json");
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    const auto gate_json = [f](const char* name, const GateResult& g) {
      std::fprintf(f,
                   "  \"%s\": {\"speedup\": %.3f, \"threshold\": %.2f, "
                   "\"forked_wall_s\": %.3f, \"scratch_wall_s\": %.3f, "
                   "\"equal\": %s, \"threads_equal\": %s, \"gate\": "
                   "\"%s\"},\n",
                   name, g.speedup, g.threshold, g.forked_wall_s,
                   g.scratch_wall_s, g.equal ? "true" : "false",
                   g.threads_equal ? "true" : "false",
                   g.pass() ? "pass" : "fail");
    };
    std::fprintf(f, "{\n  \"schema\": \"istc.bench_sweep.v1\",\n");
    gate_json("cap_sweep", cap);
    gate_json("fleet_sweep", fleet);
    std::fprintf(
        f,
        "  \"million_stream\": {\"jobs\": %zu, \"delivered\": %zu, "
        "\"batches\": %zu, \"epochs\": %zu, \"completed\": %zu, "
        "\"abandoned\": %zu, \"wall_s\": %.3f, \"hash\": \"%016llx\", "
        "\"hash_equal_threads_1_2_8\": %s, \"gate\": \"%s\"}\n}\n",
        stream.jobs, stream.delivered, stream.batches, stream.epochs,
        stream.completed, stream.abandoned, stream.wall_s,
        static_cast<unsigned long long>(stream.hash),
        stream.hash_equal ? "true" : "false",
        stream.pass() ? "pass" : "fail");
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
  }

  const bool pass = cap.pass() && fleet.pass() && stream.pass();
  std::printf("sweep_forks gates: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
