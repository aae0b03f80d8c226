// What-if admission-control service gates (src/service) — the daemon's
// bench.  A Session is preloaded with a synthetic Ross tail (including
// out-of-order stragglers, so the snapshot/rewind path is part of the
// baseline under test), then:
//
//   1. purity gate — 8 concurrent client threads replay a deterministic
//      query set against the live baseline (forked mode).  Every reply
//      must be byte-identical to the same query answered serially in
//      scratch mode (from-scratch re-simulation, single thread): the
//      fork-sweep fast path may never change an answer, and concurrency
//      may never change an answer.
//   2. latency gate — p99 per-query wall time across those 8 concurrent
//      clients must come in under a budget (ISTC_WHATIF_P99_MS overrides;
//      quick mode relaxes the default).
//
// Both gates drive the exit code; the numbers land in BENCH_whatif.json
// for CI trend tracking.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "obs/obs.hpp"
#include "service/json.hpp"
#include "service/session.hpp"

namespace {

using namespace istc;

std::string swf_line(SimTime submit, Seconds runtime, int cpus,
                     Seconds estimate) {
  return "1 " + std::to_string(submit) + " 0 " + std::to_string(runtime) +
         " " + std::to_string(cpus) + " -1 -1 " + std::to_string(cpus) + " " +
         std::to_string(estimate) + " -1 1 3 2 -1 -1 -1 -1 -1";
}

void preload_tail(service::Session& session, int jobs) {
  int fed = 0;
  for (int i = 0; i < jobs; ++i) {
    const std::string line =
        swf_line(100 + 45 * i, 240 + 60 * (i % 9), 8 + 16 * (i % 8), 1200);
    const std::string reply = session.handle_line(
        "{\"op\":\"ingest\",\"line\":\"" + service::json_escape(line) + "\"}");
    if (reply.find("\"accepted\":true") != std::string::npos) ++fed;
    // Every ~50 lines a straggler lands behind the frontier, forcing a
    // rewind: the bench baseline exercises the staleness machinery, not
    // just the append-only fast path.
    if (i > 0 && i % 50 == 0) {
      const std::string late = swf_line(45 * i / 2, 300, 32, 600);
      const std::string r2 = session.handle_line(
          "{\"op\":\"ingest\",\"line\":\"" + service::json_escape(late) +
          "\"}");
      if (r2.find("\"accepted\":true") != std::string::npos) ++fed;
    }
  }
  std::printf("preloaded %d tail lines (%zu rewinds, %zu snapshots)\n", fed,
              session.rewinds(), session.snapshot_count());
}

/// The deterministic query set, as open JSON prefixes ("...}" appended
/// per mode).  Mixed shapes: single/multi point, native/interstitial,
/// narrow/wide.
std::vector<std::string> query_prefixes(bool quick) {
  std::vector<std::string> qs = {
      "{\"op\":\"whatif\",\"jobs\":2,\"cpus\":32,\"runtime_s\":600,"
      "\"horizon_s\":14400",
      "{\"op\":\"whatif\",\"jobs\":6,\"cpus\":16,\"runtime_s\":300,"
      "\"horizon_s\":14400,\"points_s\":[0,3600]",
      "{\"op\":\"whatif\",\"jobs\":1,\"cpus\":256,\"runtime_s\":900,"
      "\"horizon_s\":21600",
      "{\"op\":\"whatif\",\"class\":\"interstitial\",\"jobs\":8,\"cpus\":8,"
      "\"runtime_s\":204,\"horizon_s\":28800",
      "{\"op\":\"whatif\",\"jobs\":4,\"cpus\":64,\"runtime_s\":450,"
      "\"horizon_s\":14400,\"points_s\":[0,1800,7200]",
      "{\"op\":\"whatif\",\"jobs\":3,\"cpus\":128,\"runtime_s\":600,"
      "\"horizon_s\":21600",
  };
  if (quick) qs.resize(4);
  return qs;
}

struct BenchResult {
  std::size_t queries = 0;
  int threads = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double budget_ms = 0.0;
  double throughput_qps = 0.0;
  bool purity_equal = false;
  // Observability overhead gate: the same serial query sweep with the
  // span recorder and its per-name profile off vs fully on.
  double obs_off_ms = 0.0;
  double obs_on_ms = 0.0;
  double obs_overhead = 0.0;      ///< on/off - 1 (best-of-reps)
  double obs_overhead_max = 0.0;  ///< gate (ISTC_OBS_OVERHEAD_MAX)
  bool obs_pure = false;          ///< replies byte-identical with obs on
  bool pass() const {
    return purity_equal && p99_ms <= budget_ms && obs_pure &&
           obs_overhead <= obs_overhead_max;
  }
};

BenchResult run_gates() {
  const bool quick = bench::quick();
  BenchResult b;
  b.threads = 8;
  b.budget_ms = bench::env_number("ISTC_WHATIF_P99_MS", quick ? 400.0 : 250.0);

  service::SessionConfig cfg;
  cfg.site = cluster::Site::kRoss;
  cfg.snapshot_interval = 2 * kSecondsPerHour;
  service::Session session(cfg);
  preload_tail(session, quick ? 120 : 400);

  const auto prefixes = query_prefixes(quick);

  // Reference arm: serial, from-scratch re-simulation per query.
  std::vector<std::string> scratch;
  const auto scratch_t0 = std::chrono::steady_clock::now();
  for (const auto& p : prefixes) {
    scratch.push_back(session.handle_line(p + ",\"mode\":\"scratch\"}"));
  }
  const double scratch_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    scratch_t0)
          .count();

  // Measured arm: 8 concurrent clients, forked mode, per-query latency.
  const int rounds = quick ? 3 : 8;
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(b.threads));
  std::vector<int> mismatches(static_cast<std::size_t>(b.threads), 0);
  const auto wall_t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int t = 0; t < b.threads; ++t) {
    clients.emplace_back([&, t] {
      const auto ti = static_cast<std::size_t>(t);
      for (int r = 0; r < rounds; ++r) {
        for (std::size_t i = 0; i < prefixes.size(); ++i) {
          // Deterministic per-thread walk so interleavings differ.
          const std::size_t pick =
              (i + ti * 3 + static_cast<std::size_t>(r)) % prefixes.size();
          const auto q_t0 = std::chrono::steady_clock::now();
          const std::string reply = session.handle_line(prefixes[pick] + "}");
          lat[ti].push_back(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - q_t0)
                                .count());
          if (reply != scratch[pick]) ++mismatches[ti];
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_t0)
                            .count();

  std::vector<double> all;
  for (const auto& per_thread : lat) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all.begin(), all.end());
  b.queries = all.size();
  b.p50_ms = all[all.size() / 2];
  b.p99_ms = all[(all.size() * 99 + 99) / 100 - 1];
  b.throughput_qps = wall_s > 0 ? static_cast<double>(all.size()) / wall_s : 0;

  int total_mismatches = 0;
  for (const int m : mismatches) total_mismatches += m;
  b.purity_equal = total_mismatches == 0;

  // Observability overhead gate.  Each timed arm first ingests one fresh
  // in-order tail line: the epoch bump invalidates the per-epoch reply
  // memoization, so both arms time real speculative simulation (fork +
  // sweep + verdict), not cache hits — the representative serving cost.
  // Off/on arms interleave rep-by-rep so slow drift in machine load hits
  // both equally, and best-of-reps (min) tames scheduler noise in CI.
  // Purity sub-gate: re-asking obs-off at the obs-on arm's epoch must
  // return byte-identical replies (observability never touches answers).
  // Quick mode runs inside ctest on whatever loaded box the suite gets
  // (possibly a single shared core, where a ms-scale wall-time ratio
  // measures the OS scheduler, not this code) — its default budget is a
  // catastrophic-regression backstop only.  The tight 3% bar is the full
  // run's, on the dedicated perf-smoke runner.
  b.obs_overhead_max =
      bench::env_number("ISTC_OBS_OVERHEAD_MAX", quick ? 1.00 : 0.03);
  const int ab_reps = quick ? 9 : 15;
  const int ab_cycles = quick ? 24 : 12;
  int obs_mismatches = 0;
  SimTime ab_submit = session.frontier() + 600;
  const auto bump_epoch = [&] {
    const std::string line = swf_line(ab_submit, 300, 8, 1200);
    ab_submit += 60;
    session.handle_line("{\"op\":\"ingest\",\"line\":\"" +
                        service::json_escape(line) + "\"}");
  };
  std::vector<std::string> ab_replies(prefixes.size());
  const auto timed_sweep_ms = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < prefixes.size(); ++i) {
      ab_replies[i] = session.handle_line(prefixes[i] + "}");
    }
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  // Only the query sweeps are timed: the epoch bump between sweeps keeps
  // the queries cold (the first ask per epoch recomputes the memoized
  // reference arm), but ingest itself stays outside the clock — its cost
  // is lumpy (cadence snapshots fork the whole run every
  // snapshot_interval) and would swamp the A/B with unrelated noise.
  // Off/on alternate per cycle, so each pair of measurements sits ~1 ms
  // apart and slow drift in machine load hits both arms equally;
  // best-of-reps (min) then discards reps hit by background stalls.
  b.obs_off_ms = std::numeric_limits<double>::infinity();
  b.obs_on_ms = std::numeric_limits<double>::infinity();
  std::vector<double> rep_ratios;
  for (int r = 0; r < ab_reps; ++r) {
    double off_ms = 0.0;
    double on_ms = 0.0;
    for (int cycle = 0; cycle < ab_cycles; ++cycle) {
      bump_epoch();
      obs::set_enabled(false);
      off_ms += timed_sweep_ms();
      bump_epoch();
      obs::set_enabled(true);
      on_ms += timed_sweep_ms();
      obs::set_enabled(false);
    }
    b.obs_off_ms = std::min(b.obs_off_ms, off_ms);
    b.obs_on_ms = std::min(b.obs_on_ms, on_ms);
    if (off_ms > 0) rep_ratios.push_back(on_ms / off_ms);
    // Purity: obs-off at the obs-on arm's final epoch must reproduce the
    // obs-on replies byte-for-byte.
    for (std::size_t i = 0; i < prefixes.size(); ++i) {
      if (session.handle_line(prefixes[i] + "}") != ab_replies[i]) {
        ++obs_mismatches;
      }
    }
  }
  obs::reset();
  b.obs_pure = obs_mismatches == 0;
  // The gated estimate is the MEDIAN of per-rep on/off ratios: each rep's
  // arms interleave cycle-by-cycle, so a background stall inflates both
  // sides of that rep's ratio, and the median discards the reps a stall
  // lands in anyway.  Min-vs-min would compare arms from different load
  // phases and swing wildly on a busy box.
  std::sort(rep_ratios.begin(), rep_ratios.end());
  b.obs_overhead = rep_ratios.empty()
                       ? 0.0
                       : rep_ratios[rep_ratios.size() / 2] - 1.0;

  const std::string purity_cell =
      b.purity_equal ? "BYTE-IDENTICAL"
                     : std::to_string(total_mismatches) + " MISMATCHES";
  std::printf(
      "%zu queries over %d clients x %d rounds: p50 %.2f ms, p99 %.2f ms "
      "(budget %.0f ms), %.1f q/s\n"
      "scratch reference: %zu queries in %.2f s\n"
      "concurrent forked replies vs serial scratch replies: %s\n"
      "obs overhead: %.2f ms off -> %.2f ms on = %+.1f%% "
      "(budget %.0f%%), obs-on replies %s\n",
      b.queries, b.threads, rounds, b.p50_ms, b.p99_ms, b.budget_ms,
      b.throughput_qps, prefixes.size(), scratch_s, purity_cell.c_str(),
      b.obs_off_ms, b.obs_on_ms, 100.0 * b.obs_overhead,
      100.0 * b.obs_overhead_max,
      b.obs_pure ? "BYTE-IDENTICAL" : "DIVERGED");
  bench::print_pool_stats("after gates");
  return b;
}

}  // namespace

int main() {
  bench::print_preamble(
      "whatif_service",
      "What-if admission-control service gates: 8-client concurrent query\n"
      "purity (forked == scratch, byte-identical) and p99 latency budget");

  const BenchResult b = run_gates();

  const std::string path = bench::artifact_path("BENCH_whatif.json");
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(
        f,
        "{\n  \"schema\": \"istc.bench_whatif.v1\",\n"
        "  \"queries\": %zu,\n  \"threads\": %d,\n"
        "  \"p50_ms\": %.3f,\n  \"p99_ms\": %.3f,\n"
        "  \"budget_ms\": %.1f,\n  \"throughput_qps\": %.1f,\n"
        "  \"purity_equal\": %s,\n"
        "  \"obs_off_ms\": %.3f,\n  \"obs_on_ms\": %.3f,\n"
        "  \"obs_overhead\": %.4f,\n  \"obs_overhead_max\": %.4f,\n"
        "  \"obs_pure\": %s,\n  \"gate\": \"%s\"\n}\n",
        b.queries, b.threads, b.p50_ms, b.p99_ms, b.budget_ms,
        b.throughput_qps, b.purity_equal ? "true" : "false", b.obs_off_ms,
        b.obs_on_ms, b.obs_overhead, b.obs_overhead_max,
        b.obs_pure ? "true" : "false", b.pass() ? "pass" : "fail");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }

  if (!b.pass()) {
    const char* why = !b.purity_equal
                          ? "concurrent replies diverged from scratch"
                          : !b.obs_pure
                                ? "obs-on replies diverged from scratch"
                                : b.p99_ms > b.budget_ms
                                      ? "p99 latency over budget"
                                      : "observability overhead over budget";
    std::printf("GATE FAILED: %s\n", why);
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}
