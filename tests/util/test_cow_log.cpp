#include "util/cow_log.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "util/thread_pool.hpp"

namespace istc::util {
namespace {

TEST(CowLog, BehavesLikeAVectorBeforeFreezing) {
  CowLog<int> log;
  EXPECT_TRUE(log.empty());
  log.push_back(1);
  log.push_back(2);
  log.push_back(3);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], 1);
  EXPECT_EQ(log[2], 3);
  EXPECT_EQ(log.back(), 3);
}

TEST(CowLog, FreezePreservesContentsAndIndices) {
  CowLog<int> log;
  for (int i = 0; i < 10; ++i) log.push_back(i);
  log.freeze();
  EXPECT_EQ(log.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(log[static_cast<std::size_t>(i)], i);
  log.push_back(10);
  EXPECT_EQ(log.size(), 11u);
  EXPECT_EQ(log[10], 10);
  EXPECT_EQ(log.back(), 10);
}

// The fork contract: after freeze + copy, each side appends privately and
// neither sees the other's tail, while the shared prefix stays put (its
// indices must remain valid — queued event args point into it).
TEST(CowLog, CopiesShareThePrefixButNotTheTail) {
  CowLog<std::string> a;
  a.push_back("shared0");
  a.push_back("shared1");
  a.freeze();
  CowLog<std::string> b = a;

  a.push_back("a-only");
  b.push_back("b-only0");
  b.push_back("b-only1");

  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(a[1], "shared1");
  EXPECT_EQ(b[1], "shared1");
  EXPECT_EQ(a[2], "a-only");
  EXPECT_EQ(b[2], "b-only0");
  EXPECT_EQ(b[3], "b-only1");
}

TEST(CowLog, RepeatedFreezesFoldTheTailIntoThePrefix) {
  CowLog<int> log;
  log.push_back(0);
  log.freeze();
  log.push_back(1);
  log.freeze();  // refreeze with a non-empty tail
  log.freeze();  // refreeze with an empty tail is a no-op
  log.push_back(2);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], 0);
  EXPECT_EQ(log[1], 1);
  EXPECT_EQ(log[2], 2);
}

TEST(CowLog, TakeMaterializesEverythingAndResets) {
  CowLog<int> log;
  log.push_back(1);
  log.freeze();
  CowLog<int> fork = log;
  log.push_back(2);
  const std::vector<int> all = log.take();
  EXPECT_EQ(all, (std::vector<int>{1, 2}));
  EXPECT_TRUE(log.empty());
  // The fork's view is untouched by the source's take.
  EXPECT_EQ(fork.size(), 1u);
  EXPECT_EQ(fork[0], 1);
}

TEST(CowLog, TakeWithoutFreezeMovesTheTail) {
  CowLog<int> log;
  log.push_back(7);
  log.push_back(8);
  EXPECT_EQ(log.take(), (std::vector<int>{7, 8}));
  EXPECT_TRUE(log.empty());
}


// -- chunk boundaries -------------------------------------------------------

constexpr std::size_t kChunk = CowLog<int>::kChunk;

CowLog<int> log_of(std::size_t n) {
  CowLog<int> log;
  for (std::size_t i = 0; i < n; ++i) log.push_back(static_cast<int>(i));
  return log;
}

// Entry i of a log built by log_of, then extended by push_tagged(tag).
int expected(std::size_t i, std::size_t n, int tag) {
  return i < n ? static_cast<int>(i) : tag + static_cast<int>(i - n);
}

void push_tagged(CowLog<int>& log, int tag, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    log.push_back(tag + static_cast<int>(i));
  }
}

void expect_contents(const CowLog<int>& log, std::size_t n, int tag,
                     std::size_t size) {
  ASSERT_EQ(log.size(), size);
  for (std::size_t i = 0; i < size; ++i) {
    ASSERT_EQ(log[i], expected(i, n, tag)) << "entry " << i;
  }
  if (size > 0) {
    EXPECT_EQ(log.back(), expected(size - 1, n, tag));
  }
}

// Freeze, copy, then append on both sides, at every size around a chunk
// edge: the copy shares every frozen entry (same address), and each
// side's appends and refreezes stay private.
TEST(CowLog, ForksAroundChunkBoundaries) {
  for (const std::size_t n :
       {std::size_t{0}, kChunk - 1, kChunk, kChunk + 1, 3 * kChunk + 5}) {
    SCOPED_TRACE(n);
    CowLog<int> a = log_of(n);
    a.freeze();
    expect_contents(a, n, 0, n);
    CowLog<int> b = a;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(&a[i], &b[i]);
    }

    push_tagged(a, 1'000'000, kChunk + 3);
    push_tagged(b, 2'000'000, 7);
    expect_contents(a, n, 1'000'000, n + kChunk + 3);
    expect_contents(b, n, 2'000'000, n + 7);
    a.freeze();
    b.freeze();
    expect_contents(a, n, 1'000'000, n + kChunk + 3);
    expect_contents(b, n, 2'000'000, n + 7);
  }
}

TEST(CowLog, ForkOfAForkSharesEveryGeneration) {
  CowLog<int> a = log_of(2 * kChunk + 10);
  a.freeze();
  CowLog<int> b = a;
  push_tagged(b, 5'000'000, kChunk);
  b.freeze();
  CowLog<int> c = b;
  push_tagged(c, 7'000'000, 3);

  expect_contents(a, 2 * kChunk + 10, 0, 2 * kChunk + 10);
  expect_contents(b, 2 * kChunk + 10, 5'000'000, 3 * kChunk + 10);
  ASSERT_EQ(c.size(), 3 * kChunk + 13);
  for (std::size_t i = 0; i < b.size(); ++i) {
    ASSERT_EQ(&b[i], &c[i]);
  }
  // Whole chunks are shared back to the first generation.
  for (std::size_t i = 0; i < 2 * kChunk; ++i) {
    ASSERT_EQ(&a[i], &c[i]);
  }
  EXPECT_EQ(c[3 * kChunk + 12], 7'000'002);
}

TEST(CowLog, TakeAfterSeveralFreezesEqualsThePlainVector) {
  CowLog<int> log;
  std::vector<int> plain;
  CowLog<int> kept;  // a fork that pins every chunk sealed so far
  int next = 0;
  for (const std::size_t burst : {std::size_t{3}, kChunk - 4, std::size_t{1},
                                  2 * kChunk + 1, std::size_t{0}, kChunk}) {
    for (std::size_t i = 0; i < burst; ++i) {
      log.push_back(next);
      plain.push_back(next++);
    }
    log.freeze();
    kept = log;
  }
  log.push_back(next);
  plain.push_back(next);
  EXPECT_EQ(log.take(), plain);
  EXPECT_TRUE(log.empty());
  plain.pop_back();
  EXPECT_EQ(kept.take(), plain);
}

TEST(CowLog, TakeWithoutFreezeHandsOverItsBuffer) {
  CowLog<int> log = log_of(kChunk + 1);
  const int* data = &log[0];
  const std::vector<int> out = log.take();
  EXPECT_EQ(out.data(), data);
  EXPECT_EQ(out.size(), kChunk + 1);
  EXPECT_TRUE(log.empty());
}

// Forks of one frozen parent, each read, appended to, forked again and
// destroyed on its own pool task while the parent itself is dropped:
// shared chunks are only ever read, and their reference counts are the
// only shared writes (run under TSan in CI).
TEST(CowLog, ConcurrentForksShareChunks) {
  constexpr std::size_t kForks = 8;
  const std::size_t n = 3 * kChunk + 5;
  CowLog<int> parent = log_of(n);
  parent.freeze();
  std::vector<CowLog<int>> forks(kForks, parent);
  std::vector<char> ok(kForks, 0);
  {
    ThreadPool pool(4);
    for (std::size_t k = 0; k < kForks; ++k) {
      pool.submit([&forks, &ok, k, n] {
        CowLog<int>& fork = forks[k];
        const int tag = static_cast<int>(k + 1) * 1'000'000;
        bool good = fork.size() == n;
        for (std::size_t i = 0; good && i < n; ++i) {
          good = fork[i] == static_cast<int>(i);
        }
        push_tagged(fork, tag, kChunk + k);
        fork.freeze();
        CowLog<int> child = fork;
        child.push_back(-1);
        for (std::size_t i = 0; good && i < fork.size(); ++i) {
          good = child[i] == expected(i, n, tag);
        }
        good = good && child.back() == -1;
        fork = CowLog<int>();
        ok[k] = good ? 1 : 0;
      });
    }
    parent = CowLog<int>();
    pool.wait_idle();
  }
  for (std::size_t k = 0; k < kForks; ++k) EXPECT_TRUE(ok[k]) << "fork " << k;
}

}  // namespace
}  // namespace istc::util
