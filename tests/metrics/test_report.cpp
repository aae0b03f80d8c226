#include "metrics/report.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace istc::metrics {
namespace {

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
