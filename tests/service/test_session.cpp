#include "service/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "obs/obs.hpp"
#include "service/json.hpp"

namespace istc::service {
namespace {

std::string swf_line(SimTime submit, Seconds runtime, int cpus,
                     Seconds estimate) {
  return "1 " + std::to_string(submit) + " 0 " + std::to_string(runtime) +
         " " + std::to_string(cpus) + " -1 -1 " + std::to_string(cpus) + " " +
         std::to_string(estimate) + " -1 1 3 2 -1 -1 -1 -1 -1";
}

std::string ingest_request(const std::string& line) {
  return "{\"op\":\"ingest\",\"line\":\"" + json_escape(line) + "\"}";
}

SessionConfig ross_config() {
  SessionConfig cfg;
  cfg.site = cluster::Site::kRoss;
  cfg.snapshot_interval = 1000;
  return cfg;
}

/// Parse a reply and fail the test if it is not valid protocol JSON.
Value reply_of(Session& session, const std::string& request) {
  const std::string reply = session.handle_line(request);
  const ParseResult parsed = parse(reply);
  EXPECT_TRUE(parsed.ok()) << reply;
  EXPECT_EQ(parsed.value.str_or("schema", ""), kWhatIfSchema) << reply;
  return parsed.value;
}

TEST(Session, StatusReportsBaseline) {
  Session session(ross_config());
  const Value v = reply_of(session, "{\"op\":\"status\"}");
  EXPECT_EQ(v.str_or("op", ""), "status");
  EXPECT_EQ(v.str_or("site", ""), "Ross");
  EXPECT_DOUBLE_EQ(v.num_or("epoch", -1), 0);
  EXPECT_DOUBLE_EQ(v.num_or("accepted_jobs", -1), 0);
  EXPECT_FALSE(v.bool_or("stream", true));
}

TEST(Session, IngestAcceptsAndBumpsEpoch) {
  Session session(ross_config());
  const Value v = reply_of(session, ingest_request(swf_line(100, 300, 8, 600)));
  EXPECT_TRUE(v.bool_or("accepted", false));
  EXPECT_DOUBLE_EQ(v.num_or("epoch", -1), 1);
  EXPECT_DOUBLE_EQ(v.num_or("id", -1), 0);
  EXPECT_DOUBLE_EQ(v.num_or("frontier_s", -1), 100);
  EXPECT_EQ(session.epoch(), 1u);
  EXPECT_EQ(session.accepted_jobs(), 1u);
}

TEST(Session, NoOpIngestsLeaveEpochAlone) {
  Session session(ross_config());
  reply_of(session, ingest_request(swf_line(100, 300, 8, 600)));

  const Value blank = reply_of(session, ingest_request("   "));
  EXPECT_FALSE(blank.bool_or("accepted", true));
  EXPECT_EQ(blank.str_or("reason", ""), "blank");

  const Value comment = reply_of(session, ingest_request("; header"));
  EXPECT_EQ(comment.str_or("reason", ""), "blank");

  // Failed/cancelled trace entries are filtered, not errors.
  const Value filtered =
      reply_of(session, ingest_request("2 150 0 -1 8 -1 -1 8 240 -1 0 1 1"));
  EXPECT_EQ(filtered.str_or("reason", ""), "filtered");

  EXPECT_EQ(session.epoch(), 1u);
}

TEST(Session, MalformedIngestLinesAreStructuredErrors) {
  Session session(ross_config());
  const Value truncated = reply_of(session, ingest_request("1 2 3"));
  ASSERT_NE(truncated.find("error"), nullptr);
  EXPECT_EQ(truncated.find("error")->str_or("code", ""), "bad_line");

  const Value garbage = reply_of(session, ingest_request("not a record"));
  ASSERT_NE(garbage.find("error"), nullptr);
  EXPECT_EQ(garbage.find("error")->str_or("code", ""), "bad_line");
  EXPECT_EQ(session.epoch(), 0u);
}

TEST(Session, OversizedIngestIsInfeasible) {
  Session session(ross_config());
  const Value v =
      reply_of(session, ingest_request(swf_line(100, 300, 100000, 600)));
  ASSERT_NE(v.find("error"), nullptr);
  EXPECT_EQ(v.find("error")->str_or("code", ""), "infeasible");
  EXPECT_EQ(session.epoch(), 0u);
}

TEST(Session, MalformedJsonIsAStructuredError) {
  Session session(ross_config());
  const Value v = reply_of(session, "{\"op\":\"status\"");
  ASSERT_NE(v.find("error"), nullptr);
  EXPECT_EQ(v.find("error")->str_or("code", ""), "bad_json");
}

TEST(Session, WhatIfValidationErrors) {
  Session session(ross_config());
  const auto code_of = [&](const std::string& req) {
    const Value v = reply_of(session, req);
    const Value* err = v.find("error");
    return err == nullptr ? std::string("none") : err->str_or("code", "");
  };
  EXPECT_EQ(code_of("{\"op\":\"teleport\"}"), "bad_request");
  EXPECT_EQ(code_of("{\"op\":\"whatif\",\"jobs\":0}"), "bad_shape");
  EXPECT_EQ(code_of("{\"op\":\"whatif\",\"jobs\":2.5}"), "bad_shape");
  EXPECT_EQ(code_of("{\"op\":\"whatif\",\"cpus\":1000000}"), "infeasible");
  EXPECT_EQ(code_of("{\"op\":\"whatif\",\"class\":\"magic\"}"), "bad_request");
  EXPECT_EQ(code_of("{\"op\":\"whatif\",\"points_s\":[]}"), "bad_shape");
  EXPECT_EQ(code_of("{\"op\":\"whatif\",\"points_s\":[-5]}"), "bad_shape");
  EXPECT_EQ(code_of("{\"op\":\"whatif\",\"runtime_s\":0}"), "bad_shape");
}

TEST(Session, WhatIfNativeVerdict) {
  Session session(ross_config());
  for (int i = 0; i < 10; ++i) {
    reply_of(session,
             ingest_request(swf_line(100 + 50 * i, 400, 16 + 16 * (i % 3),
                                     800)));
  }
  const Value v = reply_of(
      session,
      "{\"op\":\"whatif\",\"project\":\"demo\",\"jobs\":4,\"cpus\":32,"
      "\"runtime_s\":600,\"horizon_s\":7200}");
  EXPECT_EQ(v.str_or("op", ""), "whatif");
  EXPECT_EQ(v.str_or("project", ""), "demo");
  EXPECT_EQ(v.str_or("class", ""), "native");
  EXPECT_DOUBLE_EQ(v.num_or("epoch", -1), 10);
  const Value* points = v.find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->array.size(), 1u);
  const Value& p = points->array[0];
  EXPECT_DOUBLE_EQ(p.num_or("offset_s", -1), 0);
  EXPECT_DOUBLE_EQ(p.num_or("completed", -1), 4);
  EXPECT_DOUBLE_EQ(p.num_or("killed", -1), 0);
  EXPECT_GT(p.num_or("makespan_s", 0), 0);
  // 4 jobs x 32 cpus x 600 s of speculative work completed.
  EXPECT_DOUBLE_EQ(p.num_or("harvested_cpu_s", 0), 4 * 32 * 600.0);
  const Value* impact = p.find("native_impact");
  ASSERT_NE(impact, nullptr);
  EXPECT_DOUBLE_EQ(impact->num_or("compared", -1), 10);
}

TEST(Session, WhatIfMultiPoint) {
  Session session(ross_config());
  reply_of(session, ingest_request(swf_line(100, 500, 64, 1000)));
  const Value v = reply_of(
      session,
      "{\"op\":\"whatif\",\"jobs\":2,\"cpus\":16,\"runtime_s\":300,"
      "\"points_s\":[0,1800,3600]}");
  const Value* points = v.find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->array.size(), 3u);
  EXPECT_DOUBLE_EQ(points->array[0].num_or("offset_s", -1), 0);
  EXPECT_DOUBLE_EQ(points->array[1].num_or("offset_s", -1), 1800);
  EXPECT_DOUBLE_EQ(points->array[2].num_or("offset_s", -1), 3600);
  for (const Value& p : points->array) {
    EXPECT_DOUBLE_EQ(p.num_or("completed", -1), 2);
  }
}

TEST(Session, ForkedAndScratchRepliesAreByteIdentical) {
  Session session(ross_config());
  for (int i = 0; i < 8; ++i) {
    reply_of(session, ingest_request(swf_line(200 + 90 * i, 350, 24, 700)));
  }
  const std::string query =
      "{\"op\":\"whatif\",\"jobs\":3,\"cpus\":48,\"runtime_s\":450,"
      "\"horizon_s\":7200,\"points_s\":[0,900]";
  const std::string forked = session.handle_line(query + "}");
  const std::string scratch =
      session.handle_line(query + ",\"mode\":\"scratch\"}");
  EXPECT_EQ(forked, scratch);
}

TEST(Session, InterstitialWhatIfOnNativesOnlyBaseline) {
  Session session(ross_config());
  reply_of(session, ingest_request(swf_line(100, 500, 64, 1000)));
  const Value v = reply_of(
      session,
      "{\"op\":\"whatif\",\"class\":\"interstitial\",\"jobs\":6,\"cpus\":8,"
      "\"runtime_s\":204,\"horizon_s\":50000}");
  EXPECT_EQ(v.str_or("class", ""), "interstitial");
  const Value* points = v.find("points");
  ASSERT_NE(points, nullptr);
  EXPECT_DOUBLE_EQ(points->array[0].num_or("completed", -1), 6);
}

TEST(Session, InterstitialWhatIfConflictsWithBaselineStream) {
  SessionConfig cfg = ross_config();
  cfg.stream = core::ProjectSpec::continual_stream(8, 120, kTimeInfinity);
  Session session(cfg);
  const Value v = reply_of(
      session, "{\"op\":\"whatif\",\"class\":\"interstitial\",\"jobs\":2}");
  ASSERT_NE(v.find("error"), nullptr);
  EXPECT_EQ(v.find("error")->str_or("code", ""), "conflict");
}

TEST(Session, StreamBaselineReportsHarvestDelta) {
  SessionConfig cfg = ross_config();
  cfg.stream = core::ProjectSpec::continual_stream(8, 120, kTimeInfinity);
  Session session(cfg);
  reply_of(session, ingest_request(swf_line(100, 500, 64, 1000)));
  const Value v = reply_of(session,
                           "{\"op\":\"whatif\",\"jobs\":2,\"cpus\":700,"
                           "\"runtime_s\":600,\"horizon_s\":4000}");
  const Value* points = v.find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_NE(points->array[0].find("stream_harvest_delta_cpu_s"), nullptr);
}

TEST(Session, ShutdownSetsTheFlag) {
  Session session(ross_config());
  EXPECT_FALSE(session.shutdown_requested());
  const Value v = reply_of(session, "{\"op\":\"shutdown\"}");
  EXPECT_TRUE(v.bool_or("ok", false));
  EXPECT_TRUE(session.shutdown_requested());
}

// -- observability surface: status quantiles, stats verb, /metrics body -----

TEST(Session, StatusIncludesQueryLatencyQuantiles) {
  Session session(ross_config());
  reply_of(session, "{\"op\":\"whatif\",\"jobs\":1,\"cpus\":8}");
  const Value v = reply_of(session, "{\"op\":\"status\"}");
  const Value* lat = v.find("query_latency_us");
  ASSERT_NE(lat, nullptr) << "status must publish latency quantiles";
  EXPECT_DOUBLE_EQ(lat->num_or("count", -1), 1);
  const double p50 = lat->num_or("p50_us", -1);
  const double p90 = lat->num_or("p90_us", -1);
  const double p99 = lat->num_or("p99_us", -1);
  EXPECT_GE(p50, 0.0);
  EXPECT_GE(p90, p50);
  EXPECT_GE(p99, p90);
}

TEST(Session, StatsVerbPublishesTheTelemetrySchema) {
  Session session(ross_config());
  reply_of(session, "{\"op\":\"whatif\",\"jobs\":1,\"cpus\":8}");
  const Value v = reply_of(session, "{\"op\":\"stats\"}");
  EXPECT_EQ(v.str_or("op", ""), "stats");
  EXPECT_EQ(v.find("error"), nullptr);
  EXPECT_GE(v.num_or("uptime_s", -1), 0.0);
  // No ingest yet: lag is the -1 sentinel.
  EXPECT_DOUBLE_EQ(v.num_or("ingest_lag_s", 0), -1.0);

  const Value* counters = v.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->num_or("queries", -1), 1);
  EXPECT_DOUBLE_EQ(counters->num_or("ingests", -1), 0);

  const Value* lat = v.find("query_latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_DOUBLE_EQ(lat->num_or("count", -1), 1);

  const Value* pool = v.find("pool");
  ASSERT_NE(pool, nullptr);
  EXPECT_GE(pool->num_or("default_threads", -1), 1.0);
  EXPECT_GE(pool->num_or("tasks_executed", -1), 0.0);

  const Value* o = v.find("obs");
  ASSERT_NE(o, nullptr);
  EXPECT_GE(o->num_or("spans_recorded", -1), 0.0);

  const Value* profile = v.find("profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_TRUE(profile->is_array());
}

TEST(Session, StatsReportsIngestLagAfterAcceptedIngest) {
  Session session(ross_config());
  reply_of(session, ingest_request(swf_line(100, 300, 8, 600)));
  const Value v = reply_of(session, "{\"op\":\"stats\"}");
  EXPECT_GE(v.num_or("ingest_lag_s", -1), 0.0);
  EXPECT_DOUBLE_EQ(v.num_or("accepted_jobs", -1), 1);
}

TEST(Session, PrometheusTextExposesTheRegistryAndGauges) {
  Session session(ross_config());
  reply_of(session, ingest_request(swf_line(100, 300, 8, 600)));
  reply_of(session, "{\"op\":\"whatif\",\"jobs\":1,\"cpus\":8}");
  const std::string text = session.prometheus_text();
  EXPECT_NE(text.find("# TYPE istc_service_queries counter"),
            std::string::npos);
  EXPECT_NE(text.find("istc_service_queries 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE istc_service_query_latency_us summary"),
            std::string::npos);
  EXPECT_NE(text.find("istc_service_query_latency_us{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("istc_service_query_latency_us_count"),
            std::string::npos);
  EXPECT_NE(text.find("istc_ingest_lag_seconds"), std::string::npos);
  EXPECT_NE(text.find("istc_service_snapshots"), std::string::npos);
  EXPECT_NE(text.find("istc_pool_queue_depth"), std::string::npos);
  EXPECT_NE(text.find("istc_obs_spans_recorded"), std::string::npos);
  // Prometheus text format: every line is a comment or "name[{labels}] value".
  EXPECT_EQ(text.back(), '\n');
}

TEST(Session, StatsRepliesAreNotPartOfThePurityContract) {
  // Two stats replies differ (uptime moves) while whatif replies must not:
  // the test documents why stats/status are never byte-compared.
  Session session(ross_config());
  const std::string a =
      session.handle_line("{\"op\":\"whatif\",\"jobs\":1,\"cpus\":8}");
  const std::string b =
      session.handle_line("{\"op\":\"whatif\",\"jobs\":1,\"cpus\":8}");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.find("uptime"), std::string::npos);
  EXPECT_EQ(a.find("_us"), std::string::npos);
}

TEST(Session, MetricsCountTraffic) {
  Session session(ross_config());
  reply_of(session, ingest_request(swf_line(100, 300, 8, 600)));
  reply_of(session, ingest_request("garbage line"));
  reply_of(session, "{\"op\":\"whatif\",\"jobs\":1,\"cpus\":8}");
  const Value v = reply_of(session, "{\"op\":\"stats\"}");
  const Value* counters = v.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->num_or("ingests", -1), 2);
  EXPECT_DOUBLE_EQ(v.num_or("accepted_jobs", -1), 1);
  EXPECT_DOUBLE_EQ(counters->num_or("ingests_rejected", -1), 1);
  EXPECT_DOUBLE_EQ(counters->num_or("queries", -1), 1);
  const Value* lat = v.find("query_latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_GT(lat->num_or("count", -1), 0);
}

// The latency histogram keeps nanoseconds and clamps its quantiles to the
// observed range, so one what-if's summary reads that query's latency at
// every quantile.
TEST(Session, OneWhatIfLatencyReadsItsOwnValue) {
  Session session(ross_config());
  reply_of(session, "{\"op\":\"whatif\",\"jobs\":1,\"cpus\":8}");
  const Value v = reply_of(session, "{\"op\":\"stats\"}");
  const Value* lat = v.find("query_latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->num_or("count", -1), 1);
  const double total = lat->num_or("total_us", -1);
  EXPECT_GT(total, 0);
  for (const char* q : {"p50_us", "p90_us", "p99_us"}) {
    EXPECT_EQ(lat->num_or(q, -1), total) << q;
  }
}

// -- one reading list: stats leaves and /metrics samples pair up -----------

/// Every numeric or boolean leaf of a stats reply, keyed by its path; an
/// array row is keyed by its string member ("profile[sweep_arm].count").
void flatten(const Value& v, const std::string& path,
             std::map<std::string, double>& out) {
  switch (v.kind) {
    case Value::Kind::kNumber:
      out[path] = v.number;
      break;
    case Value::Kind::kBool:
      out[path] = v.boolean ? 1.0 : 0.0;
      break;
    case Value::Kind::kObject:
      for (const auto& [key, member] : v.object) {
        flatten(member, path.empty() ? key : path + "." + key, out);
      }
      break;
    case Value::Kind::kArray:
      for (const Value& row : v.array) {
        std::string key;
        for (const auto& [name, member] : row.object) {
          if (member.is_string()) key = member.string;
        }
        flatten(row, path + "[" + key + "]", out);
      }
      break;
    default:
      break;
  }
}

/// Every sample of a Prometheus text body, keyed by "name" or
/// "name{labels}"; a key may appear once.
std::map<std::string, double> metric_samples(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << line;
    const bool fresh =
        out.emplace(line.substr(0, space), std::stod(line.substr(space + 1)))
            .second;
    EXPECT_TRUE(fresh) << "repeated sample: " << line;
  }
  return out;
}

/// The `/metrics` sample each stats leaf should appear as: the reading
/// list's names, and for a histogram the summary rule (count, total_us
/// and three quantiles against _count, _sum and quantile labels).
std::map<std::string, std::string> leaf_to_sample(
    const std::vector<Reading>& readings) {
  std::map<std::string, std::string> pairs;
  const auto summary = [&pairs](const std::string& leaf,
                                const std::string& family,
                                const std::string& labels) {
    const std::string braces = labels.empty() ? "" : "{" + labels + "}";
    const std::string prefix = labels.empty() ? "" : labels + ",";
    pairs[leaf + ".count"] = family + "_count" + braces;
    pairs[leaf + ".total_us"] = family + "_sum" + braces;
    pairs[leaf + ".p50_us"] = family + "{" + prefix + "quantile=\"0.5\"}";
    pairs[leaf + ".p90_us"] = family + "{" + prefix + "quantile=\"0.9\"}";
    pairs[leaf + ".p99_us"] = family + "{" + prefix + "quantile=\"0.99\"}";
  };
  for (const Reading& r : readings) {
    if (std::holds_alternative<metrics::Log2Histogram>(r.value)) {
      summary(r.path, r.family, "");
    } else if (const auto* rows = std::get_if<Reading::Rows>(&r.value)) {
      for (const obs::StageProfile& row : *rows) {
        summary(std::string(r.path) + "[" + row.label + "]", r.family,
                "stage=\"" + row.label + "\"");
      }
    } else {
      pairs[r.path] = r.family;
    }
  }
  return pairs;
}

TEST(Session, StatsAndMetricsShowEachReadingOnce) {
  obs::reset();
  obs::set_enabled(true);
  Session session(ross_config());
  for (const SimTime at : {100, 2500, 300}) {  // 300 rewinds the baseline
    reply_of(session, ingest_request(swf_line(at, 300, 8, 600)));
  }
  reply_of(session,
           "{\"op\":\"whatif\",\"jobs\":2,\"cpus\":8,\"points_s\":[0,600,1200]}");
  reply_of(session, ingest_request("garbage line"));
  const Value stats = reply_of(session, "{\"op\":\"stats\"}");
  const std::map<std::string, double> samples =
      metric_samples(session.prometheus_text());
  const std::map<std::string, std::string> pairs =
      leaf_to_sample(session.readings());
  obs::set_enabled(false);
  obs::reset();
  ASSERT_GE(session.rewinds(), 1u);

  std::map<std::string, double> leaves;
  flatten(stats, "", leaves);
  ASSERT_TRUE(leaves.count("profile[sweep_arm].p90_us")) << "obs is on";

  // Every stats leaf has exactly one sample, equal to it unless it is
  // wall time that moves between the two calls.
  std::set<std::string> shown;
  for (const auto& [leaf, value] : leaves) {
    const auto pair = pairs.find(leaf);
    ASSERT_NE(pair, pairs.end()) << "stats leaf with no reading: " << leaf;
    const auto sample = samples.find(pair->second);
    ASSERT_NE(sample, samples.end())
        << "stats leaf " << leaf << " has no sample " << pair->second;
    EXPECT_TRUE(shown.insert(pair->second).second)
        << "two stats leaves share " << pair->second;
    if (leaf == "uptime_s" || leaf == "ingest_lag_s") continue;
    EXPECT_NEAR(sample->second, value, 1e-5 * std::max(1.0, std::fabs(value)))
        << leaf;
  }
  // And every sample, quantiles and _sum/_count included, is one of them.
  for (const auto& [key, value] : samples) {
    EXPECT_TRUE(shown.count(key)) << "sample with no stats leaf: " << key;
  }
  EXPECT_EQ(pairs.size(), leaves.size());
}

}  // namespace
}  // namespace istc::service
