#include "trace/export.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace istc::trace {
namespace {

std::string read_all(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TraceEvent job_event(EventKind kind, SimTime t, std::int64_t job, int cpus,
                     bool interstitial, SimTime aux = 0,
                     std::int64_t value = 0) {
  TraceEvent e;
  e.time = t;
  e.kind = kind;
  e.job = job;
  e.cpus = cpus;
  e.interstitial = interstitial;
  e.aux_time = aux;
  e.value = value;
  return e;
}

TEST(JsonlExport, FixedFieldOrderPerKind) {
  Tracer tracer;
  tracer.record(
      job_event(EventKind::kJobSubmit, 0, 7, 4, false, 0, /*estimate=*/50));
  tracer.record(job_event(EventKind::kJobStart, 0, 7, 4, false,
                          /*est_end=*/50, /*runtime=*/30));
  TraceEvent gate;
  gate.time = 10;
  gate.kind = EventKind::kGateDecision;
  gate.open = true;
  gate.aux_time = kTimeInfinity;  // empty queue: wall time serializes null
  gate.value = 3;
  tracer.record(gate);
  tracer.record(job_event(EventKind::kJobFinish, 30, 7, 4, false,
                          /*start=*/0));

  std::ostringstream out;
  write_jsonl(out, tracer);
  EXPECT_EQ(out.str(),
            "{\"t\":0,\"seq\":0,\"kind\":\"job_submit\",\"job\":7,"
            "\"class\":\"native\",\"cpus\":4,\"estimate\":50}\n"
            "{\"t\":0,\"seq\":1,\"kind\":\"job_start\",\"job\":7,"
            "\"class\":\"native\",\"cpus\":4,\"runtime\":30,\"est_end\":50}\n"
            "{\"t\":10,\"seq\":2,\"kind\":\"gate_decision\",\"open\":true,"
            "\"wall_time\":null,\"k\":3}\n"
            "{\"t\":30,\"seq\":3,\"kind\":\"job_finish\",\"job\":7,"
            "\"class\":\"native\",\"cpus\":4,\"start\":0}\n");
}

TEST(JsonlExport, GateDecisionWithFiniteWallTime) {
  Tracer tracer;
  TraceEvent gate;
  gate.time = 5;
  gate.kind = EventKind::kGateDecision;
  gate.open = false;
  gate.aux_time = 900;
  gate.value = 2;
  tracer.record(gate);
  std::ostringstream out;
  write_jsonl(out, tracer);
  EXPECT_EQ(out.str(),
            "{\"t\":5,\"seq\":0,\"kind\":\"gate_decision\",\"open\":false,"
            "\"wall_time\":900,\"k\":2}\n");
}

TEST(ChromeExport, JobsLandOnFirstFitCpuBlockTracks) {
  Tracer tracer;
  // Two 4-CPU jobs overlap: blocks 0 and 4.  A third job after the first
  // finishes reuses block 0.
  tracer.record(job_event(EventKind::kJobStart, 0, 1, 4, false, 100, 100));
  tracer.record(job_event(EventKind::kJobStart, 0, 2, 4, true, 100, 100));
  tracer.record(job_event(EventKind::kJobFinish, 100, 1, 4, false, 0));
  tracer.record(job_event(EventKind::kJobStart, 100, 3, 4, false, 200, 100));
  tracer.record(job_event(EventKind::kJobFinish, 200, 2, 4, true, 0));
  tracer.record(job_event(EventKind::kJobFinish, 200, 3, 4, false, 100));

  std::ostringstream out;
  write_chrome_trace(out, tracer, {.machine_name = "m", .total_cpus = 8});
  const std::string s = out.str();

  EXPECT_NE(s.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(s.find("{\"name\":\"job 1\",\"cat\":\"native\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":0,\"ts\":0,\"dur\":100000000,"
                   "\"args\":{\"cpus\":4,\"job\":1}}"),
            std::string::npos);
  EXPECT_NE(s.find("{\"name\":\"job 2\",\"cat\":\"interstitial\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":4,"),
            std::string::npos);
  // Job 3 reuses the block job 1 released.
  EXPECT_NE(s.find("{\"name\":\"job 3\",\"cat\":\"native\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":0,\"ts\":100000000,"),
            std::string::npos);
  // Braces balance (cheap well-formedness check).
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
            std::count(s.begin(), s.end(), '}'));
  EXPECT_EQ(std::count(s.begin(), s.end(), '['),
            std::count(s.begin(), s.end(), ']'));
}

TEST(ChromeExport, GateAndDowntimeRender) {
  Tracer tracer;
  TraceEvent down;
  down.time = 50;
  down.kind = EventKind::kDowntimeBegin;
  down.aux_time = 80;
  tracer.record(down);
  TraceEvent gate;
  gate.time = 10;
  gate.kind = EventKind::kGateDecision;
  gate.open = false;
  gate.aux_time = 40;
  gate.value = 5;
  tracer.record(gate);

  std::ostringstream out;
  write_chrome_trace(out, tracer, {.machine_name = "m", .total_cpus = 8});
  const std::string s = out.str();
  EXPECT_NE(s.find("\"name\":\"gate closed k=5\""), std::string::npos);
  EXPECT_NE(s.find("\"name\":\"downtime\""), std::string::npos);
  EXPECT_NE(s.find("\"dur\":30000000"), std::string::npos);
}

TEST(ChromeExport, RunningJobsAtTraceEndStillRender) {
  Tracer tracer;
  tracer.record(job_event(EventKind::kJobStart, 0, 9, 2, false, 500, 500));
  tracer.record(job_event(EventKind::kJobStart, 300, 10, 2, false, 800, 500));
  std::ostringstream out;
  write_chrome_trace(out, tracer, {.machine_name = "m", .total_cpus = 8});
  EXPECT_NE(out.str().find("\"job\":9"), std::string::npos);
  EXPECT_NE(out.str().find("\"job\":10"), std::string::npos);
}

TEST(CountersCsv, HeaderAndRowRoundTrip) {
  const std::string path = ::testing::TempDir() + "/istc_trace_counters.csv";
  TraceSummary s;
  s.engine_events_drained = 12;
  s.sched_passes = 3;
  s.sched_pass_us_total = 450;
  s.interstitial_rejected_by_gate = 7;
  write_counters_csv(path, s);
  const std::string text = read_all(path);
  std::remove(path.c_str());
  EXPECT_NE(text.find("events_recorded,"), std::string::npos);
  EXPECT_NE(text.find("interstitial_rejected_by_gate"), std::string::npos);
  // events_recorded and events_dropped are literal-0 rows.
  EXPECT_NE(text.find("\n0,0,12,0,3,"), std::string::npos);
}

TEST(CountersCsv, EngineEventCoreColumnsRoundTrip) {
  const std::string path = ::testing::TempDir() + "/istc_engine_counters.csv";
  TraceSummary s;
  s.engine_peak_queue_depth = 321;
  s.engine_max_timestep_batch = 17;
  s.engine_events_job_submit = 150;
  s.engine_events_job_finish = 140;
  s.engine_events_wake = 88;
  s.engine_heap_allocations = 2;
  write_counters_csv(path, s);
  const std::string text = read_all(path);
  std::remove(path.c_str());
  for (const char* col :
       {"engine_peak_queue_depth", "engine_max_timestep_batch",
        "engine_events_callback", "engine_events_job_submit",
        "engine_events_job_finish", "engine_events_wake",
        "engine_heap_allocations"}) {
    EXPECT_NE(text.find(col), std::string::npos) << col;
  }
  // The gauge values land in the row in header order; the callback column
  // is a literal 0 (the engine has no generic-callback event).
  EXPECT_NE(text.find("321,17,0,150,140,88,2"), std::string::npos);
}

}  // namespace
}  // namespace istc::trace
