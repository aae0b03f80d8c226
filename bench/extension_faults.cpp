// Extension beyond the paper: unplanned failures — and the run-fork sweep.
//
// The paper's outage model is entirely *planned* — the scheduler drains
// ahead of calendar windows and no running job ever overlaps one.  Real
// machines also crash unannounced, and the cheapest place to absorb those
// kills is the interstitial stream: its jobs are small, restartable, and
// nobody waits on them.  This driver sweeps failure rate (machine-crash
// MTBF, plus node failures at twice that rate) x checkpoint interval on
// the Blue Mountain continual scenario, with failures confined to the
// back stretch of the log (the last quarter), and reports the headline
// result: the harvested utilization lift degrades gracefully as failures
// get more frequent, while native utilization stays pinned to what a
// native-only machine achieves under the *same* fault timeline.
//
// Because every variant shares the identical fault-free prefix (the first
// three quarters of the log), the sweep runs on core::SimRun forks: one
// prefix simulation per scenario family (with-stream / native-only), then
// one cheap fork per variant.  A from-scratch arm re-simulates every
// variant from t=0 and must match the forked arm bit for bit — that
// equality, plus the measured end-to-end speedup, is this driver's exit
// gate alongside the native-pinned check.

#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

#include "common.hpp"
#include "core/fork.hpp"
#include "trace/tracer.hpp"

namespace {

using namespace istc;

/// One sweep cell: an MTBF (0 = fault-free) x checkpoint cadence.
struct Variant {
  const char* name = "";
  Seconds mtbf = 0;
  Seconds checkpoint = 0;
};

struct VariantResult {
  Variant variant;
  sched::RunResult run;
  trace::TraceSummary counters;
};

fault::FaultSpec faults_for(Seconds crash_mtbf, SimTime start) {
  fault::FaultSpec spec;
  if (crash_mtbf <= 0) return spec;
  spec.crash_mtbf = crash_mtbf;
  spec.crash_repair = 4 * kSecondsPerHour;
  // Node-sized failures arrive twice as often as full crashes.
  spec.node_mtbf = crash_mtbf / 2;
  spec.node_repair = 2 * kSecondsPerHour;
  spec.node_cpus = 256;
  spec.start = start;  // stop is clamped to the site span by the run
  return spec;
}

core::Scenario base_scenario(bool with_stream) {
  core::Scenario sc;
  sc.site = cluster::Site::kBlueMountain;
  if (with_stream) {
    // The long continual stream (Table 6's 4500 s @ 1 GHz, ~4.8 h on Blue
    // Mountain): long enough that a 30-minute checkpoint cadence genuinely
    // divides a job, which is what makes the checkpoint axis meaningful.
    auto stream = core::ProjectSpec::continual_stream(
        32, 4500, cluster::site_span(sc.site));
    stream.fault_retry.max_retries = 5;
    stream.fault_retry.backoff = 10 * kSecondsPerMinute;
    sc.project = stream;
  }
  return sc;
}

/// Configure a run standing at the fork point t0 for `v` and drain it:
/// install the checkpoint cadence, inject the variant's fault process, and
/// attach a counters-only tracer covering the fault window.  Shared by
/// both arms so they diverge in *how they reached t0* and nothing else.
VariantResult finish_variant(core::SimRun& run, const Variant& v,
                             trace::Tracer& tracer) {
  if (core::InterstitialDriver* driver = run.driver()) {
    core::FaultRetryPolicy retry = driver->spec().fault_retry;
    retry.checkpoint_interval = v.checkpoint;
    driver->set_fault_retry(retry);
  }
  if (v.mtbf > 0) run.add_faults(faults_for(v.mtbf, run.now()));
  run.set_tracer(&tracer);
  VariantResult r;
  r.variant = v;
  r.run = run.finish();
  r.counters = tracer.counters();
  return r;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  bench::print_preamble(
      "Extension — unplanned failures (Blue Mountain, 32CPU x ~4.8h)",
      "Harvest lift vs crash MTBF x checkpoint interval via run forks; "
      "natives stay pinned.");

  const bool quick = bench::quick();
  const SimTime span = cluster::site_span(cluster::Site::kBlueMountain);
  // Failures are confined to the back stretch; everything before t0 is the
  // shared fault-free prefix the forks reuse.
  const SimTime t0 = span / 4 * 3;

  std::vector<Variant> variants;
  variants.push_back({"fault-free", 0, 0});
  struct Setting {
    const char* name;
    Seconds mtbf;
  };
  const std::vector<Setting> mtbfs =
      quick ? std::vector<Setting>{{"mtbf 1 week", kSecondsPerWeek}}
            : std::vector<Setting>{{"mtbf 4 weeks", 4 * kSecondsPerWeek},
                                   {"mtbf 1 week", kSecondsPerWeek},
                                   {"mtbf 2 days", 2 * kSecondsPerDay}};
  for (const Setting& s : mtbfs) {
    variants.push_back({s.name, s.mtbf, 0});
    variants.push_back({s.name, s.mtbf, 30 * kSecondsPerMinute});
  }
  // The native-only references: checkpointing is a property of the stream,
  // so one native variant per MTBF suffices.
  std::vector<Variant> native_variants;
  native_variants.push_back({"fault-free", 0, 0});
  for (const Setting& s : mtbfs) native_variants.push_back({s.name, s.mtbf, 0});

  // --- Arm A: shared prefix once per scenario family, one fork per
  // variant.  The prefix simulates [0, t0] exactly once.
  const auto forked_t0 = std::chrono::steady_clock::now();
  std::vector<VariantResult> forked, forked_native;
  {
    core::SimRun prefix(base_scenario(true));
    prefix.run_until(t0);
    for (const Variant& v : variants) {
      trace::Tracer tracer(trace::TraceMode::kCountersOnly);
      std::unique_ptr<core::SimRun> fork = prefix.fork();
      forked.push_back(finish_variant(*fork, v, tracer));
    }
  }
  {
    core::SimRun prefix(base_scenario(false));
    prefix.run_until(t0);
    for (const Variant& v : native_variants) {
      trace::Tracer tracer(trace::TraceMode::kCountersOnly);
      std::unique_ptr<core::SimRun> fork = prefix.fork();
      forked_native.push_back(finish_variant(*fork, v, tracer));
    }
  }
  const double forked_wall = seconds_since(forked_t0);

  // --- Arm B: every variant re-simulated from t=0 (the pre-fork world).
  // Identical fault construction at t0, so the results must be
  // bit-identical — and the wall-clock difference is pure prefix reuse.
  const auto scratch_t0 = std::chrono::steady_clock::now();
  std::vector<VariantResult> scratch, scratch_native;
  for (const Variant& v : variants) {
    trace::Tracer tracer(trace::TraceMode::kCountersOnly);
    core::SimRun run(base_scenario(true));
    run.run_until(t0);
    scratch.push_back(finish_variant(run, v, tracer));
  }
  for (const Variant& v : native_variants) {
    trace::Tracer tracer(trace::TraceMode::kCountersOnly);
    core::SimRun run(base_scenario(false));
    run.run_until(t0);
    scratch_native.push_back(finish_variant(run, v, tracer));
  }
  const double scratch_wall = seconds_since(scratch_t0);

  // --- Fork determinism gate: forked == from-scratch, every variant.
  bool forks_exact = true;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    if (!bench::same_run(forked[i].run, scratch[i].run) ||
        forked[i].counters.faults_injected !=
            scratch[i].counters.faults_injected) {
      std::printf("FORK MISMATCH: %s ckpt=%lld\n", variants[i].name,
                  static_cast<long long>(variants[i].checkpoint));
      forks_exact = false;
    }
  }
  for (std::size_t i = 0; i < native_variants.size(); ++i) {
    if (!bench::same_run(forked_native[i].run, scratch_native[i].run)) {
      std::printf("FORK MISMATCH (native-only): %s\n", native_variants[i].name);
      forks_exact = false;
    }
  }

  // Native-only utilization per MTBF — the fair "pinned" reference: faults
  // cost everyone capacity; the question is what harvesting *adds*.
  const auto native_ref = [&](Seconds mtbf) {
    for (const VariantResult& r : forked_native) {
      if (r.variant.mtbf == mtbf) return bench::native_util_of(r.run);
    }
    return 0.0;
  };

  Table t;
  t.headers({"scenario", "ckpt", "faults", "killed n/i", "lost cpu-h",
             "recovered", "overall util", "native util", "d-native"});
  bool native_pinned = true;
  for (const VariantResult& c : forked) {
    const auto& s = c.counters;
    const double nat = bench::native_util_of(c.run);
    // One-sided check — natives may only come out *ahead* (interstitial
    // jobs, being the youngest running work, absorb partial-capacity kills
    // that would otherwise land on natives); that is a win, not drift.
    const double dnat = nat - native_ref(c.variant.mtbf);
    native_pinned = native_pinned && dnat >= -0.005;
    t.row({c.variant.name, c.variant.checkpoint > 0 ? "30m" : "-",
           Table::integer(static_cast<long long>(s.faults_injected)),
           Table::integer(static_cast<long long>(s.fault_killed_native)) +
               "/" +
               Table::integer(
                   static_cast<long long>(s.fault_killed_interstitial)),
           Table::num(static_cast<double>(s.fault_cpu_sec_lost) / 3600.0, 0),
           Table::num(static_cast<double>(s.fault_cpu_sec_recovered) / 3600.0,
                      0),
           Table::num(bench::overall_util(c.run), 3), Table::num(nat, 3),
           Table::num(dnat, 4)});
  }
  t.print();

  // --- Speedup gate: prefix sharing must actually pay.  The forked arm
  // simulates each shared prefix once (two prefixes) plus one fault
  // window per variant; the scratch arm re-simulates everything.
  const double speedup = forked_wall > 0 ? scratch_wall / forked_wall : 0;
  const double min_speedup =
      bench::env_number("ISTC_FORK_SPEEDUP_MIN", quick ? 1.3 : 2.0);
  const bool fast_enough = min_speedup <= 0 || speedup >= min_speedup;

  std::printf(
      "\nReading: failures land in the back quarter of the log ([%.0f h,\n"
      "%.0f h)); every variant shares the fault-free prefix before that.\n"
      "d-native compares each row against a native-only run under the\n"
      "*same* fault timeline.  Faults cost the machine capacity no matter\n"
      "what, so the fair question is whether harvesting adds native damage\n"
      "on top — it does not: no row drops more than 0.5 points below its\n"
      "reference, and rows can come out ahead because interstitials (the\n"
      "youngest running work) absorb partial-capacity kills that would\n"
      "otherwise land on natives.  Checkpointing claws back much of the\n"
      "interstitial loss: only work since the last 30-minute checkpoint is\n"
      "redone.\n"
      "native pinned within 0.5 points at every setting: %s\n"
      "fork results bit-identical to from-scratch runs:  %s\n"
      "sweep wall time: forked %.2fs vs from-scratch %.2fs (%.2fx, need "
      ">=%.2fx)\n",
      static_cast<double>(t0) / 3600.0, static_cast<double>(span) / 3600.0,
      native_pinned ? "yes" : "NO", forks_exact ? "yes" : "NO", forked_wall,
      scratch_wall, speedup, min_speedup);

  // Gate artifact so CI can track the degradation curve and the fork
  // speedup across commits.
  const bool pass = native_pinned && forks_exact && fast_enough;
  const std::string path = bench::artifact_path("BENCH_faults.json");
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n  \"schema\": \"istc.bench_faults.v1\",\n"
                 "  \"variants\": [\n");
    for (std::size_t i = 0; i < forked.size(); ++i) {
      const VariantResult& c = forked[i];
      const auto& s = c.counters;
      std::fprintf(
          f,
          "    {\"name\": \"%s/ckpt_%lld\", \"mtbf_s\": %lld, "
          "\"checkpoint_s\": %lld, \"faults_injected\": %llu, "
          "\"overall_util\": %.6f, \"native_util\": %.6f, "
          "\"native_util_reference\": %.6f, \"cpu_h_lost\": %.2f, "
          "\"cpu_h_recovered\": %.2f, \"retries\": %llu, "
          "\"retries_exhausted\": %llu}%s\n",
          c.variant.name, static_cast<long long>(c.variant.checkpoint),
          static_cast<long long>(c.variant.mtbf),
          static_cast<long long>(c.variant.checkpoint),
          static_cast<unsigned long long>(s.faults_injected),
          bench::overall_util(c.run), bench::native_util_of(c.run),
          native_ref(c.variant.mtbf),
          static_cast<double>(s.fault_cpu_sec_lost) / 3600.0,
          static_cast<double>(s.fault_cpu_sec_recovered) / 3600.0,
          static_cast<unsigned long long>(s.fault_retries),
          static_cast<unsigned long long>(s.fault_retries_exhausted),
          i + 1 < forked.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"native_pinned\": %s,\n  \"forks_exact\": %s,\n"
                 "  \"fork_sweep\": {\"forked_wall_s\": %.3f, "
                 "\"scratch_wall_s\": %.3f, \"speedup\": %.3f, "
                 "\"threshold\": %.2f},\n  \"gate\": \"%s\"\n}\n",
                 native_pinned ? "true" : "false",
                 forks_exact ? "true" : "false", forked_wall, scratch_wall,
                 speedup, min_speedup, pass ? "pass" : "fail");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }
  return pass ? 0 : 1;
}
