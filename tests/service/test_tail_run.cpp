#include "service/tail_run.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "sched/record.hpp"
#include "service/baseline.hpp"
#include "util/cow_log.hpp"
#include "workload/presets.hpp"

namespace istc::service {
namespace {

workload::Job make_job(workload::JobId id, SimTime submit, int cpus,
                       Seconds runtime) {
  workload::Job j;
  j.id = id;
  j.klass = workload::JobClass::kNative;
  j.user = static_cast<workload::UserId>(1 + id % 7);
  j.group = 1;
  j.cpus = cpus;
  j.submit = submit;
  j.runtime = runtime;
  j.estimate = runtime * 2;
  return j;
}

std::vector<workload::Job> sample_tail() {
  std::vector<workload::Job> jobs;
  for (workload::JobId i = 0; i < 40; ++i) {
    jobs.push_back(make_job(i, 100 + 70 * static_cast<SimTime>(i),
                            8 + static_cast<int>(i % 5) * 16,
                            300 + 40 * static_cast<Seconds>(i % 11)));
  }
  return jobs;
}

/// sched::schedule_hash walked over every record, the value state_hash()
/// must reproduce by folding only the records new since its last call.
std::uint64_t full_walk(const TailRun& run) {
  return sched::schedule_hash(run.scheduler().completed_records(),
                              run.scheduler().killed_records(), run.now());
}

TEST(TailRun, ForkReproducesSourceBitForBit) {
  TailRun a(TailConfig{cluster::Site::kRoss, std::nullopt});
  for (const auto& j : sample_tail()) a.submit(j);
  a.run_until(1500);

  auto b = a.fork();
  EXPECT_EQ(a.now(), b->now());
  EXPECT_EQ(a.state_hash(), b->state_hash());

  // Advance both sides independently past every event: identical state.
  a.run_until(kTimeInfinity / 2);
  b->run_until(kTimeInfinity / 2);
  EXPECT_EQ(a.state_hash(), b->state_hash());
}

TEST(TailRun, ForkMatchesScratchReplay) {
  const auto tail = sample_tail();

  TailRun live(TailConfig{cluster::Site::kRoss, std::nullopt});
  for (const auto& j : tail) live.submit(j);
  live.run_until(900);
  auto fork = live.fork();
  fork->run_until(5000);

  TailRun scratch(TailConfig{cluster::Site::kRoss, std::nullopt});
  for (const auto& j : tail) scratch.submit(j);
  scratch.run_until(5000);

  EXPECT_EQ(fork->state_hash(), scratch.state_hash());
}

TEST(TailRun, StateHashDistinguishesTails) {
  TailRun a(TailConfig{cluster::Site::kRoss, std::nullopt});
  TailRun b(TailConfig{cluster::Site::kRoss, std::nullopt});
  auto tail = sample_tail();
  for (const auto& j : tail) a.submit(j);
  tail[5].cpus += 16;  // one job wider
  for (const auto& j : tail) b.submit(j);
  a.run_until(10000);
  b.run_until(10000);
  EXPECT_NE(a.state_hash(), b.state_hash());
}

TEST(TailRun, StreamForkDrainsOnceStopped) {
  TailConfig cfg{cluster::Site::kRoss,
                 core::ProjectSpec::continual_stream(8, 120, kTimeInfinity)};
  TailRun live(cfg);
  for (const auto& j : sample_tail()) live.submit(j);
  live.run_until(2000);

  auto query = live.fork();
  ASSERT_NE(query->driver(), nullptr);
  query->driver()->set_stop_time(query->now() + 4000);
  const sched::RunResult result = query->finish();

  std::size_t interstitial = 0;
  for (const auto& r : result.records) {
    if (r.job.id >= kStreamIdBase && r.job.id < kSpeculativeIdBase) {
      ++interstitial;
      EXPECT_TRUE(r.job.interstitial());
    }
  }
  EXPECT_GT(interstitial, 0u);
  EXPECT_EQ(result.records.size(), 40u + interstitial);
}

TEST(TailRun, AddStreamEvaluatesSpeculativeProject) {
  TailRun live(TailConfig{cluster::Site::kRoss, std::nullopt});
  for (const auto& j : sample_tail()) live.submit(j);
  live.run_until(1000);

  auto query = live.fork();
  core::ProjectSpec spec = core::ProjectSpec::paper(10, 8, 120);
  spec.start_time = query->now();
  spec.stop_time = query->now() + 50000;
  query->add_stream(spec, kSpeculativeIdBase);
  const sched::RunResult result = query->finish();

  std::size_t speculative = 0;
  for (const auto& r : result.records) {
    if (r.job.id >= kSpeculativeIdBase) ++speculative;
  }
  EXPECT_EQ(speculative, 10u);
}

TEST(SnapshotChain, TakesSnapshotsAtCadence) {
  auto initial =
      std::make_unique<TailRun>(TailConfig{cluster::Site::kRoss, std::nullopt});
  SnapshotChain<TailRun> chain(std::move(initial), 1000);
  for (const auto& j : sample_tail()) chain.live().submit(j);
  chain.note_submitted(40);
  EXPECT_EQ(chain.snapshot_count(), 1u);  // the virgin time-zero fork
  chain.advance_to(3500);
  // Cadence marks at 1000, 2000, 3000 crossed.
  EXPECT_EQ(chain.snapshot_count(), 4u);
  EXPECT_EQ(chain.live_seq(), 40u);
}

TEST(SnapshotChain, RewindDiscardsNewerSnapshots) {
  auto initial =
      std::make_unique<TailRun>(TailConfig{cluster::Site::kRoss, std::nullopt});
  SnapshotChain<TailRun> chain(std::move(initial), 1000);
  for (const auto& j : sample_tail()) chain.live().submit(j);
  chain.note_submitted(40);
  chain.advance_to(3500);

  const std::size_t seq = chain.rewind_to(2100);
  EXPECT_EQ(seq, 40u);
  // Snapshots at marks >= 2100 dropped; virgin + 1000 + 2000 survive.
  EXPECT_EQ(chain.snapshot_count(), 3u);
  EXPECT_LT(chain.live().now(), 2100);
  EXPECT_EQ(chain.rewinds(), 1u);
}

TEST(SnapshotChain, RewindToTimeZeroUsesVirginSnapshot) {
  auto initial =
      std::make_unique<TailRun>(TailConfig{cluster::Site::kRoss, std::nullopt});
  SnapshotChain<TailRun> chain(std::move(initial), 500);
  for (const auto& j : sample_tail()) chain.live().submit(j);
  chain.note_submitted(40);
  chain.advance_to(3000);

  // A submit-time-0 line can only rebase on the virgin snapshot.
  const std::size_t seq = chain.rewind_to(0);
  EXPECT_EQ(seq, 0u);
  EXPECT_EQ(chain.snapshot_count(), 1u);
  EXPECT_EQ(chain.live().now(), 0);
}

TEST(SnapshotChain, RewindReplayMatchesUninterrupted) {
  const auto tail = sample_tail();

  auto initial =
      std::make_unique<TailRun>(TailConfig{cluster::Site::kRoss, std::nullopt});
  SnapshotChain<TailRun> chain(std::move(initial), 800);
  for (const auto& j : tail) chain.live().submit(j);
  chain.note_submitted(tail.size());
  chain.advance_to(2500);
  const std::size_t seq = chain.rewind_to(1300);
  for (std::size_t i = seq; i < tail.size(); ++i) {
    chain.live().submit(tail[i]);
  }
  chain.note_submitted(tail.size());
  chain.advance_to(2500);

  TailRun straight(TailConfig{cluster::Site::kRoss, std::nullopt});
  for (const auto& j : tail) straight.submit(j);
  straight.run_until(2500);

  EXPECT_EQ(chain.live().state_hash(), straight.state_hash());
}

// The running state hash equals the full walk at every point: on the
// live run, on a fork (which inherits the running state), after a
// SnapshotChain rewind (whose new live run inherits a snapshot's state),
// and after finish() takes the record log.
TEST(TailRun, RunningStateHashEqualsTheFullWalk) {
  const auto tail = sample_tail();
  const TailConfig cfg{cluster::Site::kRoss,
                       core::ProjectSpec::continual_stream(8, 120,
                                                           kTimeInfinity)};
  SnapshotChain<TailRun> chain(std::make_unique<TailRun>(cfg), 700);
  for (const auto& j : tail) chain.live().submit(j);
  chain.note_submitted(tail.size());
  for (SimTime t = 0; t <= 3000; t += 150) {
    chain.advance_to(t);
    ASSERT_EQ(chain.live().state_hash(), full_walk(chain.live())) << t;
  }

  auto fork = chain.live().fork();
  for (SimTime t = 3000; t <= 4500; t += 150) {
    fork->run_until(t);
    ASSERT_EQ(fork->state_hash(), full_walk(*fork)) << t;
  }

  const std::size_t seq = chain.rewind_to(1600);
  for (std::size_t i = seq; i < tail.size(); ++i) chain.live().submit(tail[i]);
  chain.note_submitted(tail.size());
  for (SimTime t = 1600; t <= 4500; t += 150) {
    chain.advance_to(t);
    ASSERT_EQ(chain.live().state_hash(), full_walk(chain.live())) << t;
  }

  fork->driver()->set_stop_time(fork->now() + 2000);
  const sched::RunResult drained = fork->finish();
  EXPECT_GT(drained.records.size(), 40u);
  EXPECT_EQ(fork->state_hash(), full_walk(*fork));
}

// Snapshots kept by a chain hold one copy of history between them: over
// two weeks of a streamed Blue Mountain tail with a 6-hour cadence, the
// distinct record entries across every snapshot stay within the live
// history plus less than a chunk per snapshot.
TEST(SnapshotChain, KeptSnapshotsShareOneHistory) {
  const cluster::Site site = cluster::Site::kBlueMountain;
  const SimTime frontier = days(14);
  SnapshotChain<TailRun> chain(
      std::make_unique<TailRun>(TailConfig{
          site, core::ProjectSpec::continual_stream(32, 120, kTimeInfinity)}),
      hours(6));
  const workload::JobLog natives = workload::site_log(site);
  std::size_t accepted = 0;
  for (workload::Job job : natives.jobs()) {
    if (job.submit > frontier) continue;
    job.id = static_cast<workload::JobId>(accepted++);
    chain.live().submit(job);
  }
  chain.note_submitted(accepted);
  chain.advance_to(frontier);

  std::vector<const sched::JobRecord*> entries;
  for (std::size_t s = 0; s < chain.snapshot_count(); ++s) {
    const auto& records = chain.snapshot(s).scheduler().completed_records();
    for (std::size_t i = 0; i < records.size(); ++i) {
      entries.push_back(&records[i]);
    }
  }
  std::sort(entries.begin(), entries.end());
  const auto distinct = static_cast<std::size_t>(
      std::unique(entries.begin(), entries.end()) - entries.begin());
  constexpr std::size_t kChunk = util::CowLog<sched::JobRecord>::kChunk;
  const std::size_t history = chain.live().scheduler().completed_count();
  ASSERT_EQ(chain.snapshot_count(), 57u);
  ASSERT_GT(history, 10 * kChunk);
  EXPECT_LE(distinct, history + chain.snapshot_count() * kChunk);
}

}  // namespace
}  // namespace istc::service
