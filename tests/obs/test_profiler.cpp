// The span profile (obs::profile_snapshot): closing spans attribute to
// their name, rows merge across rings, reset drops them, disabled spans
// add none, sub-microsecond spans still show time, and live reads race no
// span writer; and a what-if daemon lists the labels its dashboards read
// while its ring count stays bounded.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "service/json.hpp"
#include "service/session.hpp"
#include "util/thread_pool.hpp"

namespace istc::obs {
namespace {

struct ProfilerFixture : ::testing::Test {
  void SetUp() override {
    reset();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    reset();
  }
};

using Profiler = ProfilerFixture;

TEST(ProfilerDisabled, ObserveIsANoopWhenDisabled) {
  set_enabled(false);
  reset();
  {
    ScopedSpan span("sweep.fork");
  }
  EXPECT_TRUE(profile_snapshot().empty());
}

TEST_F(Profiler, ObservationsAttributeToTheirStage) {
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span("sweep.arm");
  }
  {
    ScopedSpan span("ingest.rewind");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  const auto profile = profile_snapshot();
  ASSERT_EQ(profile.size(), 2u);
  // Rows come out ordered by label; a label is the span name with '.'
  // replaced by '_'.
  EXPECT_EQ(profile[0].label, "ingest_rewind");
  EXPECT_EQ(profile[0].ns.total(), 1u);
  EXPECT_GE(profile[0].ns.sum(), 2'000'000u);
  // One span: every quantile reads its duration.
  EXPECT_EQ(profile[0].ns.quantile(0.50),
            static_cast<double>(profile[0].ns.sum()));
  EXPECT_EQ(profile[1].label, "sweep_arm");
  EXPECT_EQ(profile[1].ns.total(), 3u);
  EXPECT_GE(profile[1].ns.quantile(0.99), profile[1].ns.quantile(0.50));
}

TEST_F(Profiler, SnapshotMergesAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kEach = 250;
  // The same name behind a second pointer merges into the same row.
  static const char kSameName[] = "fleet.advance";
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < kEach; ++i) {
        ScopedSpan span(t % 2 == 0 ? "fleet.advance" : kSameName);
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto profile = profile_snapshot();
  ASSERT_EQ(profile.size(), 1u);
  EXPECT_EQ(profile[0].label, "fleet_advance");
  EXPECT_EQ(profile[0].ns.total(),
            static_cast<std::uint64_t>(kThreads * kEach));
}

TEST_F(Profiler, ResetProfilesDropsAllObservations) {
  {
    ScopedSpan span("sweep.fork");
  }
  EXPECT_FALSE(profile_snapshot().empty());
  reset();
  EXPECT_TRUE(profile_snapshot().empty());
  // And the profile keeps working after a reset.
  {
    ScopedSpan span("sweep.fork");
  }
  const auto profile = profile_snapshot();
  ASSERT_EQ(profile.size(), 1u);
  EXPECT_EQ(profile[0].ns.total(), 1u);
}

/// The value of the `/metrics` sample `series` (its name and labels, as
/// printed); -1 if absent.
double metric_sample(const std::string& text, const std::string& series) {
  const std::size_t at = text.find("\n" + series + " ");
  if (at == std::string::npos) return -1.0;
  return std::stod(text.substr(at + series.size() + 2));
}

/// Spans shorter than a microsecond still add to their stage: the profile
/// keeps nanoseconds, and only the summary writer shows microseconds.
TEST_F(Profiler, EmptySpansShowTimeInStatsAndMetrics) {
  constexpr int kSpans = 8;
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan span("sweep.prefix");
  }
  service::SessionConfig cfg;
  cfg.site = cluster::Site::kRoss;
  service::Session session(cfg);
  const service::ParseResult stats =
      service::parse(session.handle_line("{\"op\":\"stats\"}"));
  ASSERT_TRUE(stats.ok()) << stats.error;
  const service::Value* prof = stats.value.find("profile");
  ASSERT_NE(prof, nullptr);
  const service::Value* row = nullptr;
  for (const service::Value& r : prof->array) {
    if (r.str_or("stage", "") == "sweep_prefix") row = &r;
  }
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->num_or("count", 0), kSpans);
  EXPECT_GT(row->num_or("total_us", 0), 0.0);
  EXPECT_GT(row->num_or("p50_us", 0), 0.0);

  const std::string text = session.prometheus_text();
  const std::string stage = "stage=\"sweep_prefix\"";
  EXPECT_GT(metric_sample(text, "istc_obs_stage_us_sum{" + stage + "}"), 0.0);
  EXPECT_GT(metric_sample(text, "istc_obs_stage_us{" + stage +
                                    ",quantile=\"0.5\"}"),
            0.0);
}

std::string ingest(SimTime submit) {
  const std::string line = "1 " + std::to_string(submit) +
                           " 0 600 16 -1 -1 16 900 -1 1 3 2 -1 -1 -1 -1 -1";
  return "{\"op\":\"ingest\",\"line\":\"" + line + "\"}";
}

/// The labels perfbench and the CI smoke read from a daemon, and the ring
/// bound: one ring for the test thread plus one per sweep-pool worker,
/// however many per-query pools come and go.
TEST(ObsDaemonProfile, StatsListDaemonLabelsWithBoundedRings) {
  constexpr std::size_t kWorkers = 4;
  constexpr int kQueries = 20;
  reset();
  set_enabled(true);
  set_default_thread_count(kWorkers);

  service::SessionConfig cfg;
  cfg.site = cluster::Site::kRoss;
  cfg.snapshot_interval = 1000;
  service::Session session(cfg);
  const std::vector<SimTime> submits = {100, 1300, 2500, 3700, 700};
  for (const SimTime at : submits) {
    const std::string reply = session.handle_line(ingest(at));
    EXPECT_EQ(reply.find("\"error\""), std::string::npos) << reply;
  }
  for (int q = 0; q < kQueries; ++q) {
    const std::string reply = session.handle_line(
        "{\"op\":\"whatif\",\"jobs\":2,\"cpus\":16,\"runtime_s\":300,"
        "\"horizon_s\":3600,\"points_s\":[0,600,1200,1800]}");
    EXPECT_EQ(reply.find("\"error\""), std::string::npos) << reply;
  }
  const service::ParseResult stats =
      service::parse(session.handle_line("{\"op\":\"stats\"}"));
  set_default_thread_count(0);
  set_enabled(false);
  reset();

  ASSERT_TRUE(stats.ok()) << stats.error;
  const service::Value* o = stats.value.find("obs");
  ASSERT_NE(o, nullptr);
  EXPECT_LE(o->num_or("span_threads", 1e9), 1.0 + kWorkers);
  const service::Value* prof = stats.value.find("profile");
  ASSERT_NE(prof, nullptr);
  const auto count = [prof](const std::string& label) {
    for (const service::Value& row : prof->array) {
      if (row.str_or("stage", "") == label) return row.num_or("count", 0);
    }
    return -1.0;
  };
  EXPECT_EQ(count("ingest_apply"), static_cast<double>(submits.size()));
  EXPECT_GE(count("ingest_rewind"), 1.0);
  EXPECT_EQ(count("query_capture"), kQueries);
  EXPECT_EQ(count("query_verdict"), kQueries);
  EXPECT_EQ(count("sweep_arm"), 4.0 * kQueries);
  EXPECT_GT(count("sweep_prefix"), 0.0);
  EXPECT_GT(count("sweep_fork"), 0.0);
}

/// Live reads race no span writer: what-ifs close spans on several client
/// threads and their sweep pools while another thread loops the stats
/// verb and the /metrics body, both of which read every ring's profile.
/// ThreadSanitizer builds fail here if a profile is read without
/// synchronisation.
TEST_F(Profiler, LiveStatsAndMetricsReadsRaceNoSpanWriter) {
  constexpr int kClients = 3;
  constexpr int kQueries = 4;
  set_default_thread_count(2);
  service::SessionConfig cfg;
  cfg.site = cluster::Site::kRoss;
  cfg.snapshot_interval = 1000;
  service::Session session(cfg);
  for (const SimTime at : {100, 1300, 2500}) session.handle_line(ingest(at));

  std::atomic<bool> done{false};
  std::thread reader([&] {
    do {
      EXPECT_TRUE(service::parse(session.handle_line("{\"op\":\"stats\"}"))
                      .ok());
      EXPECT_NE(session.prometheus_text().find("istc_obs_stage_us"),
                std::string::npos);
    } while (!done.load());
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&session] {
      for (int q = 0; q < kQueries; ++q) {
        const std::string reply = session.handle_line(
            "{\"op\":\"whatif\",\"jobs\":2,\"cpus\":16,\"runtime_s\":300,"
            "\"horizon_s\":3600,\"points_s\":[0,600]}");
        EXPECT_EQ(reply.find("\"error\""), std::string::npos) << reply;
      }
    });
  }
  for (auto& c : clients) c.join();
  done.store(true);
  reader.join();
  set_default_thread_count(0);

  // With the writers joined, the profile holds every query.
  const service::ParseResult stats =
      service::parse(session.handle_line("{\"op\":\"stats\"}"));
  ASSERT_TRUE(stats.ok()) << stats.error;
  const service::Value* prof = stats.value.find("profile");
  ASSERT_NE(prof, nullptr);
  double whatifs = 0;
  for (const service::Value& row : prof->array) {
    if (row.str_or("stage", "") == "query_whatif") {
      whatifs = row.num_or("count", 0);
    }
  }
  EXPECT_EQ(whatifs, kClients * kQueries);
}

}  // namespace
}  // namespace istc::obs
