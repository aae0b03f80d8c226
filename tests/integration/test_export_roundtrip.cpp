// End-to-end export path: a native log written as SWF, read back through
// the trace reader, and replayed as a foreign log.

#include <gtest/gtest.h>

#include <sstream>

#include "cluster/presets.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "workload/presets.hpp"
#include "workload/swf.hpp"

namespace istc {
namespace {

using cluster::Site;

TEST(ExportRoundTrip, ExportedNativeLogReplaysDeterministically) {
  // Export the canonical Blue Pacific *input* log, read it back, and
  // replay both through identical schedulers: byte-for-byte equal results.
  const auto original = workload::site_log(Site::kBluePacific);
  std::ostringstream out;
  workload::write_swf(out, original);
  std::istringstream in(out.str());
  workload::SwfReadOptions opts;
  opts.rebase_time = false;
  const auto reread = workload::read_swf(in, opts);
  ASSERT_EQ(reread.size(), original.size());

  auto replay = [](const workload::JobLog& log) {
    sim::Engine engine;
    sched::PolicySpec policy;  // generic policy: user/group ids round-trip
    sched::BatchScheduler scheduler(
        engine, cluster::make_machine(Site::kBluePacific), policy);
    scheduler.load(log);
    engine.run();
    return scheduler.take_result(cluster::site_span(Site::kBluePacific));
  };
  const auto a = replay(original);
  const auto b = replay(reread);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); i += 211) {
    EXPECT_EQ(a.records[i].start, b.records[i].start);
    EXPECT_EQ(a.records[i].end, b.records[i].end);
    EXPECT_EQ(a.records[i].job.id, b.records[i].job.id);
  }
}

}  // namespace
}  // namespace istc
