#include "metrics/export.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "metrics/report.hpp"
#include "workload/swf.hpp"

namespace istc::metrics {
namespace {

sched::JobRecord rec(workload::JobId id, SimTime submit, SimTime start,
                     Seconds run, int cpus, bool interstitial = false) {
  sched::JobRecord r;
  r.job.id = id;
  r.job.submit = submit;
  r.job.cpus = cpus;
  r.job.runtime = run;
  r.job.estimate = run * 2;
  r.job.user = 3;
  r.job.group = 1;
  r.job.klass = interstitial ? workload::JobClass::kInterstitial
                             : workload::JobClass::kNative;
  r.start = start;
  r.end = start + run;
  return r;
}

TEST(Export, SwfRecordsFieldsAndQueueTag) {
  const std::vector<sched::JobRecord> rs{
      rec(0, 100, 150, 60, 8),
      rec(1, 200, 200, 30, 4, /*interstitial=*/true),
  };
  std::ostringstream out;
  write_swf_records(out, rs, "result trace");
  std::istringstream lines(out.str());
  std::string l;
  std::getline(lines, l);
  EXPECT_EQ(l, "; result trace");
  std::getline(lines, l);
  // seq submit wait run procs ... estimate ... queue field = 1 (native)
  EXPECT_EQ(l.substr(0, 15), "1 100 50 60 8 -");
  EXPECT_NE(l.find(" 120 "), std::string::npos);  // estimate
  std::getline(lines, l);
  EXPECT_EQ(l.substr(0, 12), "2 200 0 30 4");
  // queue column (15th field) is 2 for interstitial.
  std::istringstream fields(l);
  std::string f;
  for (int i = 0; i < 15; ++i) fields >> f;
  EXPECT_EQ(f, "2");
}

TEST(Export, SwfRecordsRoundTripThroughReader) {
  const std::vector<sched::JobRecord> rs{rec(0, 10, 40, 60, 8),
                                         rec(1, 20, 25, 30, 4)};
  std::ostringstream out;
  write_swf_records(out, rs);
  std::istringstream in(out.str());
  workload::SwfReadOptions opts;
  opts.rebase_time = false;
  const auto log = workload::read_swf(in, opts);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].submit, 10);
  EXPECT_EQ(log[0].runtime, 60);
  EXPECT_EQ(log[0].estimate, 120);
  EXPECT_EQ(log[0].cpus, 8);
  EXPECT_EQ(log[0].user, 3);
}

class ExportFileTest : public ::testing::Test {
 protected:
  // One file per test: ctest may run the tests as parallel processes.
  std::string path_ =
      ::testing::TempDir() + "/istc_export_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".out";
  void TearDown() override { std::remove(path_.c_str()); }
  std::string read_all() {
    std::ifstream in(path_);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }
};

TEST_F(ExportFileTest, SwfFileWritten) {
  const std::vector<sched::JobRecord> rs{rec(0, 0, 5, 10, 2)};
  write_swf_records_file(path_, rs, "hdr");
  const auto content = read_all();
  EXPECT_NE(content.find("; hdr"), std::string::npos);
  EXPECT_NE(content.find("1 0 5 10 2"), std::string::npos);
}

TEST(Export, MissingDirectoryThrows) {
  const std::vector<sched::JobRecord> rs;
  EXPECT_THROW(write_swf_records_file("/no/such/dir/x.swf", rs),
               std::runtime_error);
}

TEST(RunReport, MachineNameIsJsonEscaped) {
  // A name with a quote, a backslash, a tab and a newline must come out as
  // JSON escapes in both places the report names the machine (the v1
  // "machine" section and the v2 "machines" list), never as raw bytes.
  sched::RunResult run;
  run.machine = {.name = "a\"b\\c\td\n", .site = "", .queue_system = "",
                 .cpus = 4, .clock_ghz = 1.0};
  run.span = 100;
  RunMetrics metrics;
  std::ostringstream out;
  write_run_report(out, run, metrics, {.include_wall_clock = false});
  const std::string doc = out.str();
  const std::string escaped = R"("name": "a\"b\\c\td\n")";
  std::size_t hits = 0;
  for (std::size_t at = doc.find(escaped); at != std::string::npos;
       at = doc.find(escaped, at + 1)) {
    ++hits;
  }
  EXPECT_EQ(hits, 2u) << doc;
  EXPECT_EQ(doc.find('\t'), std::string::npos) << doc;
}

}  // namespace
}  // namespace istc::metrics
