// Replay a real (or exported) job trace in Standard Workload Format and
// measure its interstitial potential: how many spare cycles exist, and
// what a continual interstitial stream would harvest.
//
// Usage:
//   log_replay [trace.swf [cpus [clock_ghz]]]
//
// With no arguments the example exports the calibrated Blue Mountain
// synthetic log to SWF, reads it back (exercising the same path a real
// trace takes) and replays it.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/fork.hpp"
#include "metrics/utilization.hpp"
#include "metrics/waits.hpp"
#include "sched/presets.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "util/table.hpp"
#include "workload/presets.hpp"
#include "workload/swf.hpp"

namespace {

istc::sched::RunResult replay(const istc::workload::JobLog& log,
                              const istc::cluster::MachineSpec& machine,
                              istc::SimTime span, bool with_interstitial,
                              istc::trace::Tracer* tracer = nullptr) {
  using namespace istc;
  core::RunSetup setup;
  setup.spec = machine;
  // A generic EASY + user-fair-share policy for foreign traces.
  setup.policy.name = "EASY + equal-user fair share";
  setup.natives = log;
  setup.span = span;
  if (with_interstitial) {
    setup.local_project = core::ProjectSpec::continual_stream(8, 120, span);
  }
  core::SimRun run(std::move(setup));
  if (tracer != nullptr) run.set_tracer(tracer);
  return run.finish();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace istc;

  workload::JobLog log;
  cluster::MachineSpec machine;
  if (argc >= 2) {
    machine.name = "user trace machine";
    machine.cpus = argc >= 3 ? std::atoi(argv[2]) : 1024;
    machine.clock_ghz = argc >= 4 ? std::atof(argv[3]) : 1.0;
    std::printf("Reading SWF trace %s (machine: %d CPUs @ %.3f GHz)\n",
                argv[1], machine.cpus, machine.clock_ghz);
    log = workload::read_swf_file(argv[1]);
  } else {
    // Round-trip the synthetic Blue Mountain log through SWF.
    machine = cluster::machine_spec(cluster::Site::kBlueMountain);
    const auto path = std::string("bluemtn_synth.swf");
    workload::write_swf_file(path, workload::site_log(cluster::Site::kBlueMountain),
                             "synthetic Blue Mountain log (calibrated to "
                             "CLUSTER'03 Table 1)");
    std::printf("No trace given; exported and re-reading %s\n", path.c_str());
    log = workload::read_swf_file(path);
  }
  if (log.empty()) {
    std::fprintf(stderr, "trace contains no usable jobs\n");
    return 1;
  }
  const SimTime span = log.last_submit() + 1;
  std::printf("%zu jobs spanning %.1f days\n\n", log.size(), to_days(span));

  const auto native = replay(log, machine, span, false);
  trace::Tracer tracer(trace::TraceMode::kFull, 4u << 20);
  const auto with_i = replay(log, machine, span, true, &tracer);

  const double u0 = metrics::average_utilization(native.records, machine.cpus,
                                                 0, span);
  const double u1 = metrics::average_utilization(with_i.records, machine.cpus,
                                                 0, span);
  const auto w0 = metrics::wait_stats(native.records);
  const auto w1 = metrics::wait_stats(with_i.records);

  Table t("interstitial potential of this trace (8-CPU, 120 s @ 1 GHz jobs)");
  t.headers({"metric", "native only", "with interstitial"});
  t.row({"utilization", Table::num(u0, 3), Table::num(u1, 3)});
  t.row({"interstitial jobs", "0",
         Table::integer(static_cast<long long>(with_i.interstitial_count()))});
  t.row({"native median wait (s)", Table::num(w0.median_wait_s, 0),
         Table::num(w1.median_wait_s, 0)});
  t.print();

  std::printf("\nSpare cycles harvested: %.1f%% of the machine.\n",
              100.0 * (u1 - u0));

  // Export the interstitial replay's event trace for visual inspection:
  // load log_replay_trace.json in chrome://tracing (or ui.perfetto.dev)
  // to see jobs on CPU-block tracks and every Fig. 1 gate decision.
  const std::string trace_path = "log_replay_trace.json";
  trace::write_chrome_trace_file(
      trace_path, tracer,
      {.machine_name = machine.name, .total_cpus = machine.cpus});
  std::printf("Wrote %s (%zu events) - open it in chrome://tracing\n",
              trace_path.c_str(), tracer.size());
  if (tracer.dropped() > 0) {
    std::printf("(buffer cap reached: %zu later events dropped)\n",
                tracer.dropped());
  }
  return 0;
}
