// Causal span recorder (src/obs): nesting, cross-thread propagation,
// ring wrap accounting, ring reuse across threads, Chrome-trace export
// validity, and disabled inertness.  Every test quiesces its writer
// threads before exporting (the recorder's contract) and leaves
// observability disabled + reset so suites compose.

#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <thread>
#include <vector>

#include "service/json.hpp"

namespace istc::obs {
namespace {

/// RAII guard: every test runs obs-enabled inside and leaves the global
/// recorder disabled and empty for whoever runs next.
struct ObsFixture : ::testing::Test {
  void SetUp() override {
    reset();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    reset();
  }
};

using ObsSpans = ObsFixture;

/// Export the quiesced rings and parse the Chrome JSON back.
service::Value exported() {
  std::ostringstream out;
  write_chrome_spans(out);
  const service::ParseResult parsed = service::parse(out.str());
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_TRUE(parsed.value.is_array());
  return parsed.value;
}

/// First "X" (complete) event with the given name, or nullptr.
const service::Value* find_event(const service::Value& doc,
                                 const std::string& name) {
  for (const service::Value& e : doc.array) {
    if (e.str_or("ph", "") == "X" && e.str_or("name", "") == name) return &e;
  }
  return nullptr;
}

TEST(ObsDisabled, SpansAreInertWhenDisabled) {
  set_enabled(false);
  reset();
  const std::uint64_t before = recorder_stats().recorded;
  {
    ScopedSpan span("should.not.record");
    // A disabled span must not establish a causal context either.
    EXPECT_EQ(current_context().trace, 0u);
    EXPECT_EQ(current_context().span, 0u);
  }
  EXPECT_EQ(recorder_stats().recorded, before);
}

TEST_F(ObsSpans, RootSpanOpensATraceAndRestoresIdleContext) {
  EXPECT_EQ(current_context().trace, 0u);
  {
    ScopedSpan span("root");
    const TraceContext ctx = current_context();
    EXPECT_NE(ctx.trace, 0u);
    EXPECT_NE(ctx.span, 0u);
    EXPECT_EQ(ctx.span, span.context().span);
  }
  EXPECT_EQ(current_context().trace, 0u);
  EXPECT_EQ(recorder_stats().recorded, 1u);
}

TEST_F(ObsSpans, NestedSpansParentUnderTheSameTrace) {
  TraceContext outer_ctx;
  {
    ScopedSpan outer("outer");
    outer_ctx = outer.context();
    ScopedSpan inner("inner");
    EXPECT_EQ(current_context().trace, outer_ctx.trace);
    EXPECT_NE(current_context().span, outer_ctx.span);
  }
  const service::Value doc = exported();
  const service::Value* inner = find_event(doc, "inner");
  const service::Value* outer = find_event(doc, "outer");
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(outer, nullptr);
  const service::Value* iargs = inner->find("args");
  const service::Value* oargs = outer->find("args");
  ASSERT_NE(iargs, nullptr);
  ASSERT_NE(oargs, nullptr);
  EXPECT_EQ(iargs->num_or("trace", -1), oargs->num_or("trace", -2));
  EXPECT_EQ(iargs->num_or("parent", -1), oargs->num_or("span", -2));
  EXPECT_EQ(oargs->num_or("parent", -1), 0.0);  // root
  // The child closes before (and nests within) the parent.
  EXPECT_LE(outer->num_or("ts", 1e18), inner->num_or("ts", -1));
  EXPECT_GE(outer->num_or("dur", -1), inner->num_or("dur", 1e18));
}

TEST_F(ObsSpans, SiblingTracesGetDistinctTraceIds) {
  std::uint64_t t1 = 0;
  std::uint64_t t2 = 0;
  {
    ScopedSpan a("first.root");
    t1 = a.context().trace;
  }
  {
    ScopedSpan b("second.root");
    t2 = b.context().trace;
  }
  EXPECT_NE(t1, 0u);
  EXPECT_NE(t2, 0u);
  EXPECT_NE(t1, t2);
}

TEST_F(ObsSpans, ContextBridgesAcrossThreads) {
  TraceContext root_ctx;
  {
    ScopedSpan root("query.root");
    root_ctx = root.context();
    std::thread worker([&root_ctx] {
      ScopedContext adopt(root_ctx);
      ScopedSpan child("worker.child");
      EXPECT_EQ(current_context().trace, root_ctx.trace);
    });
    worker.join();
  }
  const RecorderStats s = recorder_stats();
  EXPECT_EQ(s.recorded, 2u);
  // The joined worker handed its ring back and main adopted it.
  EXPECT_EQ(s.threads, 1u);
  const service::Value doc = exported();
  const service::Value* child = find_event(doc, "worker.child");
  ASSERT_NE(child, nullptr);
  const service::Value* args = child->find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->num_or("trace", -1),
            static_cast<double>(root_ctx.trace));
  EXPECT_EQ(args->num_or("parent", -1),
            static_cast<double>(root_ctx.span));
}

TEST_F(ObsSpans, RingWrapCountsDropsAndKeepsNewest) {
  constexpr int kSpans = static_cast<int>(kRingCapacity) + 12;
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan span("wrap.me", i);
  }
  const RecorderStats s = recorder_stats();
  EXPECT_EQ(s.recorded, static_cast<std::uint64_t>(kSpans));
  EXPECT_EQ(s.dropped, 12u);
  // Export holds exactly the newest capacity-many spans: args 12 and up.
  const service::Value doc = exported();
  int events = 0;
  double min_arg = 1e18;
  for (const service::Value& e : doc.array) {
    if (e.str_or("ph", "") != "X") continue;
    ++events;
    if (const service::Value* args = e.find("args")) {
      min_arg = std::min(min_arg, args->num_or("arg", 1e18));
    }
  }
  EXPECT_EQ(events, static_cast<int>(kRingCapacity));
  EXPECT_EQ(min_arg, 12.0);
}

TEST_F(ObsSpans, ExitedThreadsHandTheirRingBack) {
  constexpr int kThreads = 100;
  for (int t = 0; t < kThreads; ++t) {
    std::thread([t] { ScopedSpan span("short.lived", t); }).join();
  }
  const RecorderStats s = recorder_stats();
  EXPECT_LE(s.threads, 2u);
  EXPECT_EQ(s.recorded, static_cast<std::uint64_t>(kThreads));
  // A handed-back ring stays in the export list: every span survives.
  const service::Value doc = exported();
  EXPECT_EQ(std::count_if(doc.array.begin(), doc.array.end(),
                          [](const service::Value& e) {
                            return e.str_or("ph", "") == "X";
                          }),
            kThreads);
}

TEST_F(ObsSpans, ExportEmitsProcessAndThreadMetadata) {
  {
    ScopedSpan span("one");
  }
  const service::Value doc = exported();
  bool process_meta = false;
  bool thread_meta = false;
  for (const service::Value& e : doc.array) {
    if (e.str_or("ph", "") != "M") continue;
    if (e.str_or("name", "") == "process_name") process_meta = true;
    if (e.str_or("name", "") == "thread_name") thread_meta = true;
  }
  EXPECT_TRUE(process_meta);
  EXPECT_TRUE(thread_meta);
}

TEST_F(ObsSpans, ResetClearsSpansAndProfiles) {
  {
    ScopedSpan span("gone");
  }
  EXPECT_GT(recorder_stats().recorded, 0u);
  EXPECT_FALSE(profile_snapshot().empty());
  reset();
  EXPECT_EQ(recorder_stats().recorded, 0u);
  EXPECT_EQ(recorder_stats().dropped, 0u);
  EXPECT_TRUE(profile_snapshot().empty());
  const service::Value doc = exported();
  for (const service::Value& e : doc.array) {
    EXPECT_NE(e.str_or("ph", ""), "X");
  }
}

}  // namespace
}  // namespace istc::obs
