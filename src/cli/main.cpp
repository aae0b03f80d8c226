// The `istc` command-line tool: the library's facilities behind one
// binary, for users who want answers rather than code.
//
//   istc report  --site <ross|bluemtn|bluepac>
//   istc harvest --site <...> --cpus 32 --sec1ghz 120 [--cap 0.9]
//                [--gate queue|head|always]
//   istc plan    --site <...> --petacycles 7.7 [--max-delay-s 600]
//                [--max-breakage 1.05]
//   istc replay  --swf trace.swf [--cpus 1024] [--clock 1.0]
//                [--icpus 8] [--isec1ghz 120]

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "cluster/presets.hpp"
#include "core/advisor.hpp"
#include "core/experiment.hpp"
#include "core/fork.hpp"
#include "grid/fleet.hpp"
#include "grid/report.hpp"
#include "metrics/report.hpp"
#include "metrics/utilization.hpp"
#include "metrics/waits.hpp"
#include "obs/obs.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "service/session.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workload/presets.hpp"
#include "workload/swf.hpp"

namespace {

using namespace istc;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  istc report  --site <ross|bluemtn|bluepac>\n"
      "  istc harvest --site <...> [--cpus 32] [--sec1ghz 120]\n"
      "               [--cap 0.95] [--gate queue|head|always]\n"
      "               [--fault-mtbf-h 0] [--fault-repair-h 4]\n"
      "               [--fault-node-mtbf-h 0] [--fault-node-repair-h 2]\n"
      "               [--fault-node-cpus 128] [--fault-seed N]\n"
      "               [--retry-max 3] [--retry-backoff-s 300]\n"
      "               [--checkpoint-s 0]\n"
      "               [--sample-interval-s 0] [--report run.json]\n"
      "               [--series-csv series.csv]\n"
      "  istc plan    --site <...> --petacycles 7.7 [--max-delay-s 900]\n"
      "               [--max-breakage 1.10]\n"
      "  istc replay  --swf trace.swf [--cpus 1024] [--clock 1.0]\n"
      "               [--icpus 8] [--isec1ghz 120]\n"
      "  istc grid    [--grid-machines ross,bluemtn,bluepac,synth1]\n"
      "               [--broker-policy best-fit|round-robin|least-loaded]\n"
      "               [--project-quota 0.25] [--grid-projects 6]\n"
      "               [--grid-jobs 300] [--grid-latency-s 30]\n"
      "               [--grid-seed N] [--report fleet.json]\n"
      "  istc serve   --site <...> (--socket /path.sock | --port N)\n"
      "               [--stream-cpus 32 --stream-sec1ghz 120]\n"
      "               [--snapshot-interval-s 21600] [--preload trace.swf]\n"
      "               [--obs] [--obs-trace spans.json]\n"
      "  istc ask     (--socket /path.sock | --port N) ['<json request>'...]\n"
      "               (no request operands: reads request lines from stdin)\n"
      "  istc top     (--socket /path.sock | --port N) [--interval-s 2]\n"
      "               [--count N]  (refreshing daemon dashboard; --count 1\n"
      "               prints one snapshot and exits)\n"
      "\n"
      "global: --threads N pins the worker-pool width (0 = hardware)\n"
      "harvest and replay accept trace exports (see README, Inspecting a\n"
      "run): --trace out.jsonl --trace-chrome out.json --trace-csv out.csv\n");
  return 2;
}

void print_run_summary(const char* title, const sched::RunResult& run) {
  const auto w = metrics::wait_stats(run.records);
  const auto wl =
      metrics::wait_stats(metrics::largest_native(run.records, 0.05));
  KeyValueBlock kv(title);
  kv.add("machine", run.machine.name + " (" +
                        std::to_string(run.machine.cpus) + " CPUs)");
  kv.add("log span", format_duration(run.span));
  kv.add("native jobs", Table::integer(
                            static_cast<long long>(run.native_count())));
  kv.add("interstitial jobs",
         Table::integer(static_cast<long long>(run.interstitial_count())));
  kv.add("overall utilization",
         metrics::average_utilization(run.records, run.machine.cpus, 0,
                                      run.span),
         3);
  kv.add("native utilization",
         metrics::average_utilization(run.records, run.machine.cpus, 0,
                                      run.span,
                                      metrics::JobFilter::kNativeOnly),
         3);
  kv.add("native median wait", format_duration(
                                   static_cast<Seconds>(w.median_wait_s)));
  kv.add("native mean wait",
         format_duration(static_cast<Seconds>(w.avg_wait_s)));
  kv.add("largest-5% median wait",
         format_duration(static_cast<Seconds>(wl.median_wait_s)));
  kv.print();
}

/// Shared --trace / --trace-chrome / --trace-csv handling.  Returns an
/// engaged tracer when any export was requested: one that records events
/// for the event exports, counters only when the counter CSV is all.
std::optional<trace::Tracer> make_tracer(const ArgParser& args) {
  if (args.get("trace") || args.get("trace-chrome")) {
    return std::make_optional<trace::Tracer>(trace::TraceMode::kFull);
  }
  if (args.get("trace-csv")) {
    return std::make_optional<trace::Tracer>(trace::TraceMode::kCountersOnly);
  }
  return std::nullopt;
}

void export_traces(const ArgParser& args, const trace::Tracer& tracer,
                   const cluster::MachineSpec& machine) {
  const auto write = [](const char* what, const std::string& path,
                        auto&& writer) {
    if (path.empty()) return;
    try {
      writer(path);
      std::printf("wrote %s trace to %s\n", what, path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "trace export failed: %s\n", e.what());
    }
  };
  write("JSONL", args.get_or("trace", ""), [&](const std::string& p) {
    trace::write_jsonl_file(p, tracer);
  });
  write("chrome://tracing", args.get_or("trace-chrome", ""),
        [&](const std::string& p) {
          trace::write_chrome_trace_file(
              p, tracer, {.machine_name = machine.name,
                          .total_cpus = machine.cpus});
        });
  write("counter CSV", args.get_or("trace-csv", ""),
        [&](const std::string& p) {
          trace::write_counters_csv(p, tracer.summary());
        });
  trace::print_counters("trace counters", tracer.summary());
  if (tracer.dropped() > 0) {
    std::fprintf(stderr,
                 "warning: %llu events past the buffer cap were dropped\n",
                 static_cast<unsigned long long>(tracer.dropped()));
  }
}

int cmd_report(const ArgParser& args) {
  const auto site = cluster::parse_site(args.get_or("site", ""));
  if (!site) return usage();
  print_run_summary("native-only baseline", core::native_baseline(*site));
  return 0;
}

int cmd_harvest(const ArgParser& args) {
  const auto site = cluster::parse_site(args.get_or("site", ""));
  if (!site) return usage();
  const auto cpus = static_cast<int>(args.get_int_or("cpus", 32));
  const auto sec = static_cast<Seconds>(args.get_int_or("sec1ghz", 120));
  const double cap = args.get_num_or("cap", 1.0);
  const std::string gate_s = args.get_or("gate", "queue");
  core::GatePolicy gate = core::GatePolicy::kQueueProtective;
  if (gate_s == "head") gate = core::GatePolicy::kHeadOnly;
  else if (gate_s == "always") gate = core::GatePolicy::kAlways;
  else if (gate_s != "queue") return usage();

  core::Scenario sc;
  sc.site = *site;
  auto stream =
      core::ProjectSpec::continual_stream(cpus, sec, cluster::site_span(*site));
  stream.utilization_cap = cap;
  stream.gate = gate;
  stream.fault_retry.max_retries =
      static_cast<int>(args.get_int_or("retry-max", 3));
  stream.fault_retry.backoff =
      static_cast<Seconds>(args.get_int_or("retry-backoff-s", 300));
  stream.fault_retry.checkpoint_interval =
      static_cast<Seconds>(args.get_int_or("checkpoint-s", 0));
  sc.project = stream;
  // Unplanned failures (istc fault subsystem); both MTBFs default to 0,
  // i.e. off, which keeps the run bit-identical to fault-free builds.
  sc.faults.crash_mtbf =
      static_cast<Seconds>(args.get_int_or("fault-mtbf-h", 0)) * 3600;
  sc.faults.crash_repair =
      static_cast<Seconds>(args.get_int_or("fault-repair-h", 4)) * 3600;
  sc.faults.node_mtbf =
      static_cast<Seconds>(args.get_int_or("fault-node-mtbf-h", 0)) * 3600;
  sc.faults.node_repair =
      static_cast<Seconds>(args.get_int_or("fault-node-repair-h", 2)) * 3600;
  sc.faults.node_cpus = static_cast<int>(args.get_int_or("fault-node-cpus", 128));
  sc.faults.seed = static_cast<std::uint64_t>(
      args.get_int_or("fault-seed", 0xFA1117));
  std::optional<trace::Tracer> tracer = make_tracer(args);
  // Telemetry flags (see README, Telemetry): a report renders the
  // TraceSummary counters, so requesting one without any trace export
  // still attaches a counters-only tracer (cheap: no event records).
  const auto sample_s =
      static_cast<Seconds>(args.get_int_or("sample-interval-s", 0));
  const std::string report_path = args.get_or("report", "");
  const std::string series_path = args.get_or("series-csv", "");
  if (!tracer && !report_path.empty()) {
    tracer.emplace(trace::TraceMode::kCountersOnly);
  }
  if (tracer) sc.tracer = &*tracer;
  metrics::SamplerConfig sampler_cfg;
  sampler_cfg.interval = sample_s;
  metrics::RunMetrics run_metrics(sampler_cfg);
  if (!report_path.empty() || !series_path.empty() || sample_s > 0) {
    sc.metrics = &run_metrics;
  }
  const auto run = core::run_scenario(sc);
  if (tracer) export_traces(args, *tracer, run.machine);
  if (sc.metrics != nullptr) {
    const auto write = [](const char* what, const std::string& path,
                          auto&& writer) {
      if (path.empty()) return;
      try {
        writer(path);
        std::printf("wrote %s to %s\n", what, path.c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s export failed: %s\n", what, e.what());
      }
    };
    write("run report", report_path, [&](const std::string& p) {
      metrics::write_run_report_file(p, run, run_metrics);
    });
    write("series CSV", series_path, [&](const std::string& p) {
      metrics::write_series_csv(p, run_metrics);
    });
  }
  print_run_summary("continual interstitial harvest", run);
  std::printf("\nbaseline for comparison:\n\n");
  print_run_summary("native-only baseline", core::native_baseline(*site));
  return 0;
}

int cmd_plan(const ArgParser& args) {
  const auto site = cluster::parse_site(args.get_or("site", ""));
  if (!site) return usage();
  const double pc = args.get_num_or("petacycles", 0.0);
  if (pc <= 0) {
    std::fprintf(stderr, "plan requires --petacycles > 0\n");
    return 2;
  }
  core::AdvisorInputs in;
  in.machine = cluster::machine_spec(*site);
  in.native_utilization = core::native_utilization(*site);
  in.project_cycles = pc * cluster::kPeta;
  in.max_native_delay =
      static_cast<Seconds>(args.get_int_or("max-delay-s", 900));
  in.max_breakage = args.get_num_or("max-breakage", 1.10);
  in.downtime = cluster::site_downtime(*site);
  in.horizon = cluster::site_span(*site);
  const auto rec = core::advise(in);

  KeyValueBlock kv("recommended interstitial project");
  kv.add("machine", in.machine.name);
  kv.add("native utilization", in.native_utilization, 3);
  kv.add("CPUs per job", Table::integer(rec.cpus_per_job));
  kv.add("job runtime", format_duration(rec.job_runtime));
  kv.add("job size", std::to_string(rec.work_sec_at_1ghz) + " s @ 1 GHz");
  kv.add("jobs", Table::integer(static_cast<long long>(rec.jobs)));
  kv.add("breakage (space)", rec.breakage, 3);
  kv.add("breakage (time)", rec.time_breakage, 3);
  kv.add("predicted makespan",
         Table::num(rec.predicted_makespan_h, 1) + " h");
  kv.print();
  for (const auto& n : rec.notes) std::printf("note: %s\n", n.c_str());
  return 0;
}

int cmd_replay(const ArgParser& args) {
  const std::string path = args.get_or("swf", "");
  if (path.empty()) return usage();
  cluster::MachineSpec machine;
  machine.name = "trace machine";
  machine.cpus = static_cast<int>(args.get_int_or("cpus", 1024));
  machine.clock_ghz = args.get_num_or("clock", 1.0);
  const auto icpus = static_cast<int>(args.get_int_or("icpus", 8));
  const auto isec = static_cast<Seconds>(args.get_int_or("isec1ghz", 120));

  const auto log = workload::read_swf_file(path);
  if (log.empty()) {
    std::fprintf(stderr, "trace contains no usable jobs\n");
    return 1;
  }
  const SimTime span = log.last_submit() + 1;

  // Trace exports capture the with-interstitial replay (the run whose gate
  // decisions one typically wants to inspect).
  std::optional<trace::Tracer> tracer = make_tracer(args);

  auto simulate = [&](bool interstitial) {
    core::RunSetup setup;
    setup.spec = machine;
    setup.natives = log;
    setup.span = span;
    if (interstitial) {
      setup.local_project =
          core::ProjectSpec::continual_stream(icpus, isec, span);
    }
    core::SimRun run(std::move(setup));
    if (interstitial && tracer) run.set_tracer(&*tracer);
    return run.finish();
  };
  print_run_summary("trace replay (native only)", simulate(false));
  std::printf("\n");
  print_run_summary("trace replay (with interstitial)", simulate(true));
  if (tracer) export_traces(args, *tracer, machine);
  return 0;
}

int cmd_grid(const ArgParser& args) {
  const std::string list =
      args.get_or("grid-machines", "ross,bluemtn,bluepac,synth1");
  auto fleet = grid::parse_fleet_list(list);
  if (!fleet) {
    std::fprintf(stderr, "unknown machine in --grid-machines '%s'\n",
                 list.c_str());
    return usage();
  }
  const auto policy =
      grid::parse_broker_policy(args.get_or("broker-policy", "best-fit"));
  if (!policy) return usage();
  const double quota_frac = args.get_num_or("project-quota", 0.25);
  const auto nprojects =
      static_cast<std::size_t>(args.get_int_or("grid-projects", 6));
  const auto jobs_each =
      static_cast<std::size_t>(args.get_int_or("grid-jobs", 300));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_or("grid-seed", 0x6121D));

  int fleet_cpus = 0;
  for (const auto& m : *fleet) fleet_cpus += m.spec.cpus;
  auto projects =
      grid::sweep_projects(nprojects, jobs_each, fleet_cpus, quota_frac, seed);

  grid::FleetConfig cfg;
  cfg.broker.policy = *policy;
  cfg.broker.latency =
      static_cast<Seconds>(args.get_int_or("grid-latency-s", 30));
  cfg.threads = static_cast<std::size_t>(args.get_int_or("threads", 0));
  const auto result = grid::run_fleet(std::move(*fleet), std::move(projects), cfg);

  std::printf("fleet: %zu machines, %d CPUs, broker %s, %zu threads\n",
              result.machines.size(), fleet_cpus, grid::broker_policy_name(*policy),
              cfg.threads > 0 ? cfg.threads : default_thread_count());
  std::printf("epochs %zu, dispatches %zu, fleet hash %016llx\n\n",
              result.epochs, result.dispatches(),
              static_cast<unsigned long long>(result.hash));
  Table machines("Fleet machines");
  machines.headers({"machine", "cpus", "native", "grid done", "bounced",
                    "killed", "util"});
  for (const auto& m : result.machines) {
    machines.row(
        {m.name, Table::integer(m.run.machine.cpus),
         Table::integer(static_cast<long long>(m.run.native_count())),
         Table::integer(static_cast<long long>(m.port.completed)),
         Table::integer(static_cast<long long>(m.port.bounced)),
         Table::integer(static_cast<long long>(m.port.killed)),
         Table::num(metrics::average_utilization(m.run.records,
                                                 m.run.machine.cpus, 0,
                                                 m.run.span),
                    3)});
  }
  machines.print();
  std::printf("\n");
  Table proj("Projects");
  proj.headers({"project", "cpus/job", "jobs", "done", "abandoned", "share",
                "quota", "harvest cpu-h"});
  for (std::size_t p = 0; p < result.projects.size(); ++p) {
    const auto& spec = result.projects[p];
    const auto& led = result.ledgers[p];
    proj.row({spec.name, Table::integer(spec.cpus_per_job),
              Table::integer(static_cast<long long>(spec.jobs)),
              Table::integer(static_cast<long long>(led.completed)),
              Table::integer(static_cast<long long>(led.abandoned())),
              Table::num(spec.share, 1), Table::integer(spec.quota_cpus),
              Table::num(static_cast<double>(led.harvested_cpu_sec) / 3600.0,
                         1)});
  }
  proj.print();
  std::printf("\nfleet fairness (Jain, harvested/share): %.3f\n",
              result.fairness);
  const std::string report_path = args.get_or("report", "");
  if (!report_path.empty()) {
    try {
      grid::write_fleet_report_file(report_path, result);
      std::printf("wrote fleet report to %s\n", report_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fleet report export failed: %s\n", e.what());
    }
  }
  return 0;
}

// -- serve / ask: the what-if admission-control service ----------------------

std::string make_ingest_request(const std::string& line) {
  return "{\"op\":\"ingest\",\"line\":\"" + service::json_escape(line) + "\"}";
}

std::optional<service::Endpoint> parse_endpoint(const ArgParser& args) {
  service::Endpoint ep;
  ep.unix_path = args.get_or("socket", "");
  ep.tcp_port = static_cast<int>(args.get_int_or("port", 0));
  if (ep.unix_path.empty() && ep.tcp_port <= 0) return std::nullopt;
  return ep;
}

int cmd_serve(const ArgParser& args) {
  const auto site = cluster::parse_site(args.get_or("site", ""));
  if (!site) return usage();
  const auto endpoint = parse_endpoint(args);
  if (!endpoint) return usage();

  // Wall-clock observability: --obs turns on the span recorder and its
  // per-name profile (feeding the stats verb and /metrics); --obs-trace PATH
  // additionally exports the span rings as chrome://tracing JSON on
  // shutdown.  Neither changes any reply byte (the purity tests run with
  // observability fully enabled).
  const std::string obs_trace = args.get_or("obs-trace", "");
  if (args.has("obs") || !obs_trace.empty()) obs::set_enabled(true);

  service::SessionConfig cfg;
  cfg.site = *site;
  cfg.snapshot_interval =
      static_cast<Seconds>(args.get_int_or("snapshot-interval-s", 21600));
  const auto stream_cpus = args.get_int_or("stream-cpus", 0);
  if (stream_cpus > 0) {
    cfg.stream = core::ProjectSpec::continual_stream(
        static_cast<int>(stream_cpus),
        static_cast<Seconds>(args.get_int_or("stream-sec1ghz", 120)),
        kTimeInfinity);
  }
  service::Session session(cfg);

  const std::string preload = args.get_or("preload", "");
  if (!preload.empty()) {
    std::ifstream in(preload);
    if (!in) {
      std::fprintf(stderr, "serve: cannot open %s\n", preload.c_str());
      return 1;
    }
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
      session.handle_line(make_ingest_request(line));
      ++lines;
    }
    std::printf("istc serve: preloaded %zu lines, %zu jobs accepted\n", lines,
                session.accepted_jobs());
  }

  try {
    service::Server server(session, *endpoint);
    if (!endpoint->unix_path.empty()) {
      std::printf("istc serve: listening on %s\n",
                  endpoint->unix_path.c_str());
    } else {
      std::printf("istc serve: listening on 127.0.0.1:%d\n",
                  endpoint->tcp_port);
    }
    std::fflush(stdout);
    server.serve();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve: %s\n", e.what());
    return 1;
  }
  std::printf("istc serve: shutdown after epoch %llu\n",
              static_cast<unsigned long long>(session.epoch()));
  if (!obs_trace.empty()) {
    // Exported after serve() returned: every connection thread is joined,
    // so the rings are quiesced (the recorder's export contract).
    try {
      obs::write_chrome_spans_file(obs_trace);
      const auto rec = obs::recorder_stats();
      std::printf("wrote %llu spans to %s (%llu dropped)\n",
                  static_cast<unsigned long long>(rec.recorded - rec.dropped),
                  obs_trace.c_str(),
                  static_cast<unsigned long long>(rec.dropped));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "span export failed: %s\n", e.what());
    }
  }
  return 0;
}

int cmd_ask(const ArgParser& args) {
  const auto endpoint = parse_endpoint(args);
  if (!endpoint) return usage();
  std::vector<std::string> requests(args.positionals().begin() + 1,
                                    args.positionals().end());
  if (requests.empty()) {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!line.empty()) requests.push_back(line);
    }
  }
  if (requests.empty()) return usage();
  try {
    const auto replies = service::ask(*endpoint, requests);
    for (const auto& r : replies) std::printf("%s\n", r.c_str());
    // A transport that dropped replies is an error even if some arrived.
    return replies.size() == requests.size() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ask: %s\n", e.what());
    return 1;
  }
}

// -- top: the refreshing daemon dashboard ------------------------------------

std::string scalar_text(const service::Value& v) {
  char buf[32];
  switch (v.kind) {
    case service::Value::Kind::kBool:
      return v.boolean ? "true" : "false";
    case service::Value::Kind::kString:
      return v.string;
    case service::Value::Kind::kNumber:
      if (v.number == std::floor(v.number) && std::fabs(v.number) < 1e15) {
        std::snprintf(buf, sizeof buf, "%.0f", v.number);
      } else {
        std::snprintf(buf, sizeof buf, "%.6g", v.number);
      }
      return buf;
    default:
      return "-";
  }
}

/// One dashboard line: a title column, then "key value" pairs wrapped
/// under it.
void print_pairs(const std::string& title, const service::Value& object) {
  constexpr std::size_t kTitle = 18;
  constexpr std::size_t kWidth = 100;
  std::string line = title;
  line.resize(kTitle, ' ');
  std::size_t used = kTitle;
  for (const auto& [key, v] : object.object) {
    if (v.is_object() || v.is_array()) continue;
    const std::string pair = key + " " + scalar_text(v);
    if (used > kTitle && used + 2 + pair.size() > kWidth) {
      line += "\n" + std::string(kTitle, ' ');
      used = kTitle;
    } else if (used > kTitle) {
      line += "  ";
      used += 2;
    }
    line += pair;
    used += pair.size();
  }
  std::printf("%s\n", line.c_str());
}

/// Render one stats reply as a dashboard frame without naming a field:
/// the top-level scalars, one line per nested object, and a table per
/// array of objects (its string columns first).  Members come in key
/// order, as the parser stores them.
void render_stats(const service::Value& v) {
  print_pairs("istc top", v);
  for (const auto& [key, member] : v.object) {
    if (member.is_object()) print_pairs(key, member);
  }
  for (const auto& [key, member] : v.object) {
    if (!member.is_array() || member.array.empty() ||
        !member.array.front().is_object()) {
      continue;
    }
    std::vector<std::string> columns;
    for (const bool text : {true, false}) {
      for (const auto& [col, cell] : member.array.front().object) {
        if (cell.is_string() == text) columns.push_back(col);
      }
    }
    std::printf("\n%s\n", key.c_str());
    for (std::size_t c = 0; c < columns.size(); ++c) {
      std::printf(c == 0 ? "%-18s" : " %12s", columns[c].c_str());
    }
    std::printf("\n");
    for (const service::Value& row : member.array) {
      for (std::size_t c = 0; c < columns.size(); ++c) {
        const service::Value* cell = row.find(columns[c]);
        const std::string text = cell != nullptr ? scalar_text(*cell) : "-";
        std::printf(c == 0 ? "%-18s" : " %12s", text.c_str());
      }
      std::printf("\n");
    }
  }
}

int cmd_top(const ArgParser& args) {
  const auto endpoint = parse_endpoint(args);
  if (!endpoint) return usage();
  const double interval = args.get_num_or("interval-s", 2.0);
  const long long frames = args.get_int_or("count", 0);  // 0 = until ^C
  long long shown = 0;
  while (true) {
    std::vector<std::string> replies;
    try {
      replies = service::ask(*endpoint, {"{\"op\":\"stats\"}"});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "top: %s\n", e.what());
      return 1;
    }
    if (replies.empty()) {
      std::fprintf(stderr, "top: daemon sent no reply\n");
      return 1;
    }
    const service::ParseResult parsed = service::parse(replies[0]);
    if (!parsed.ok() || !parsed.value.is_object() ||
        parsed.value.find("error") != nullptr) {
      std::fprintf(stderr, "top: bad stats reply: %s\n", replies[0].c_str());
      return 1;
    }
    if (shown > 0) std::printf("\x1b[H\x1b[J");  // home + clear-below
    render_stats(parsed.value);
    std::fflush(stdout);
    ++shown;
    if (frames > 0 && shown >= frames) break;
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const std::string cmd = args.command();

  // Global: pin the worker-pool width before any command builds a pool.
  const auto threads = args.get_int_or("threads", 0);
  if (threads > 0) set_default_thread_count(static_cast<std::size_t>(threads));

  int rc;
  if (cmd == "report") rc = cmd_report(args);
  else if (cmd == "harvest" && args.has("grid")) rc = cmd_grid(args);
  else if (cmd == "harvest") rc = cmd_harvest(args);
  else if (cmd == "plan") rc = cmd_plan(args);
  else if (cmd == "replay") rc = cmd_replay(args);
  else if (cmd == "grid") rc = cmd_grid(args);
  else if (cmd == "serve") rc = cmd_serve(args);
  else if (cmd == "ask") rc = cmd_ask(args);
  else if (cmd == "top") rc = cmd_top(args);
  else return usage();

  for (const auto& e : args.errors()) {
    std::fprintf(stderr, "warning: %s\n", e.c_str());
  }
  for (const auto& f : args.unconsumed()) {
    std::fprintf(stderr, "warning: unknown flag --%s\n", f.c_str());
  }
  return rc;
}
