#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/json.hpp"
#include "service/session.hpp"

/// \file test_service_property.cpp
/// Property: service answers are pure functions of (query, baseline epoch).
/// The same query against the same epoch must return byte-identical JSON no
/// matter how queries are ordered, whether they run concurrently — with
/// each other or with ingests — and whether no-op ingests (blanks, filtered
/// records, malformed lines) are interleaved between them.

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
  cfg.snapshot_interval = 2000;
  return cfg;
}

void preload(Session& session, int jobs) {
  for (int i = 0; i < jobs; ++i) {
    const std::string reply = session.handle_line(ingest_request(
        swf_line(100 + 60 * i, 300 + 40 * (i % 7), 8 + 8 * (i % 6), 900)));
    ASSERT_NE(reply.find("\"accepted\":true"), std::string::npos) << reply;
  }
}

std::vector<std::string> query_set() {
  return {
      "{\"op\":\"whatif\",\"jobs\":2,\"cpus\":32,\"runtime_s\":300,"
      "\"horizon_s\":7200}",
      "{\"op\":\"whatif\",\"jobs\":5,\"cpus\":16,\"runtime_s\":600,"
      "\"horizon_s\":10800,\"points_s\":[0,1800]}",
      "{\"op\":\"whatif\",\"class\":\"interstitial\",\"jobs\":4,\"cpus\":8,"
      "\"runtime_s\":204,\"horizon_s\":20000}",
      "{\"op\":\"whatif\",\"jobs\":1,\"cpus\":128,\"runtime_s\":450,"
      "\"horizon_s\":7200,\"mode\":\"scratch\"}",
  };
}

TEST(ServiceProperty, AnswersAreIndependentOfQueryOrder) {
  const auto queries = query_set();

  Session forward(ross_config());
  preload(forward, 12);
  std::vector<std::string> first;
  for (const auto& q : queries) first.push_back(forward.handle_line(q));

  // Same session, queries replayed in reverse: same epoch, same bytes.
  std::vector<std::string> again(queries.size());
  for (std::size_t i = queries.size(); i-- > 0;) {
    again[i] = forward.handle_line(queries[i]);
  }
  EXPECT_EQ(first, again);

  // A freshly built session over the same tail answers identically too.
  Session rebuilt(ross_config());
  preload(rebuilt, 12);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(rebuilt.handle_line(queries[i]), first[i]) << queries[i];
  }
}

TEST(ServiceProperty, NoOpIngestsDoNotPerturbAnswers) {
  const auto queries = query_set();
  Session session(ross_config());
  preload(session, 12);

  std::vector<std::string> baseline;
  for (const auto& q : queries) baseline.push_back(session.handle_line(q));
  const std::uint64_t hash_before = session.baseline_hash();

  const std::vector<std::string> noops = {
      ingest_request(""),
      ingest_request("; swf header comment"),
      ingest_request("2 500 0 -1 8 -1 -1 8 240 -1 0 1 1"),  // filtered status
      ingest_request("total garbage"),
      ingest_request(swf_line(300, 300, 1000000, 600)),  // infeasible
      "{\"op\":\"status\"}",
      "not even json",
  };
  for (std::size_t i = 0; i < queries.size(); ++i) {
    session.handle_line(noops[i % noops.size()]);
    session.handle_line(noops[(i + 3) % noops.size()]);
    EXPECT_EQ(session.handle_line(queries[i]), baseline[i]) << queries[i];
  }
  EXPECT_EQ(session.epoch(), 12u);
  EXPECT_EQ(session.baseline_hash(), hash_before);
}

TEST(ServiceProperty, ConcurrentAnswersMatchSerialAnswers) {
  const auto queries = query_set();
  Session session(ross_config());
  preload(session, 12);

  std::vector<std::string> serial;
  for (const auto& q : queries) serial.push_back(session.handle_line(q));

  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::vector<std::vector<std::pair<std::size_t, std::string>>> got(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&queries, &session, &got, t] {
      // Each thread walks the query set in a different shuffled order so
      // the interleavings differ across threads.
      std::mt19937 rng(static_cast<unsigned>(t) * 7919u + 17u);
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < queries.size(); ++i) {
          const std::size_t pick =
              (i + static_cast<std::size_t>(rng())) % queries.size();
          got[static_cast<std::size_t>(t)].emplace_back(
              pick, session.handle_line(queries[pick]));
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  for (const auto& thread_replies : got) {
    ASSERT_EQ(thread_replies.size(),
              static_cast<std::size_t>(kRounds) * queries.size());
    for (const auto& [pick, reply] : thread_replies) {
      EXPECT_EQ(reply, serial[pick]);
    }
  }
}

TEST(ServiceProperty, QueriesDuringIngestMatchSerialReplayAtTheirEpoch) {
  // One thread ingests a fixed tail (in-order lines, every fourth a
  // straggler that forces a rewind) while query threads ask the fixed
  // query set.
  // Every accepted ingest clears the reference-arm memo that concurrent
  // queries read, so this also races memo reads against clears.  Each
  // reply names the epoch its baseline was captured at and must be
  // byte-equal to a serial replay's reply for that query at that epoch.
  const auto queries = query_set();
  // A long preload makes every memoized reference result long to copy.
  constexpr int kPreload = 200;
  std::vector<std::string> tail;
  for (int i = 0; i < 16; ++i) {
    const int k = kPreload + i;
    // Stragglers land behind the live clock.
    const SimTime submit = 100 + 60 * (i % 4 == 2 ? k - 8 : k) + 30;
    tail.push_back(
        swf_line(submit, 300 + 40 * (k % 7), 8 + 8 * (k % 6), 900));
  }

  Session live(ross_config());
  preload(live, kPreload);
  constexpr int kQueryThreads = 4;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> replies{0};
  std::vector<std::vector<std::pair<std::size_t, std::string>>> got(
      kQueryThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&, t] {
      std::size_t next = static_cast<std::size_t>(t);
      do {
        const std::size_t pick = next++ % queries.size();
        got[static_cast<std::size_t>(t)].emplace_back(
            pick, live.handle_line(queries[pick]));
        replies.fetch_add(1);
      } while (!done.load());
    });
  }
  threads.emplace_back([&] {
    for (const std::string& line : tail) {
      // Let the query threads answer at the current epoch before the
      // next ingest, so every epoch sees concurrent queries.
      const std::uint64_t target = replies.load() + 2 * kQueryThreads;
      while (replies.load() < target) std::this_thread::yield();
      const std::string reply = live.handle_line(ingest_request(line));
      EXPECT_NE(reply.find("\"accepted\":true"), std::string::npos) << reply;
    }
    done.store(true);
  });
  for (auto& t : threads) t.join();

  // Serial replay: every query answered at every epoch the live session
  // passed through.
  Session serial(ross_config());
  preload(serial, kPreload);
  std::map<std::uint64_t, std::vector<std::string>> expected;
  const auto answer_all = [&] {
    auto& answers = expected[serial.epoch()];
    for (const auto& q : queries) answers.push_back(serial.handle_line(q));
  };
  answer_all();
  for (const std::string& line : tail) {
    serial.handle_line(ingest_request(line));
    answer_all();
  }
  ASSERT_EQ(live.epoch(), serial.epoch());

  std::map<std::uint64_t, std::size_t> per_epoch;
  for (const auto& thread_replies : got) {
    for (const auto& [pick, reply] : thread_replies) {
      const ParseResult parsed = parse(reply);
      ASSERT_TRUE(parsed.ok()) << reply;
      const Value* epoch_field = parsed.value.find("epoch");
      ASSERT_TRUE(epoch_field != nullptr && epoch_field->is_number()) << reply;
      const auto epoch = static_cast<std::uint64_t>(epoch_field->number);
      ASSERT_EQ(expected.count(epoch), 1u) << reply;
      EXPECT_EQ(reply, expected[epoch][pick]) << "epoch " << epoch;
      ++per_epoch[epoch];
    }
  }
  // The handshake above puts queries on every epoch but the last.
  EXPECT_GE(per_epoch.size(), tail.size());
}

TEST(ServiceProperty, EpochBumpChangesTheBaselineAdvertisedToClients) {
  Session session(ross_config());
  preload(session, 6);
  const std::string q =
      "{\"op\":\"whatif\",\"jobs\":2,\"cpus\":32,\"runtime_s\":300}";
  const std::string before = session.handle_line(q);
  session.handle_line(ingest_request(swf_line(5000, 900, 512, 1800)));
  const std::string after = session.handle_line(q);
  EXPECT_NE(before, after);
  EXPECT_NE(before.find("\"epoch\":6"), std::string::npos);
  EXPECT_NE(after.find("\"epoch\":7"), std::string::npos);
}

}  // namespace
}  // namespace istc::service
