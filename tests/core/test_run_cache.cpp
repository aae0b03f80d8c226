#include "core/run_cache.hpp"

#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace istc::core {
namespace {

constexpr auto kSite = cluster::Site::kRoss;

TEST(RunCache, NativeBaselineMissThenHit) {
  RunCache cache;
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);

  const auto& first = cache.native_baseline(kSite);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_FALSE(first.records.empty());

  const auto& second = cache.native_baseline(kSite);
  EXPECT_EQ(&first, &second);  // same entry, no re-simulation
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(RunCache, ContinualKeyedByJobShapeAndCap) {
  RunCache cache;
  const auto& a = cache.continual_run(kSite, 32, 120);
  const auto& a_again = cache.continual_run(kSite, 32, 120);
  EXPECT_EQ(&a, &a_again);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  // A different utilization cap is a different run, not a hit.
  const auto& capped = cache.continual_run(kSite, 32, 120, 0.95);
  EXPECT_NE(&a, &capped);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(RunCache, ClearDropsEveryEntry) {
  RunCache cache;
  (void)cache.native_baseline(kSite);
  (void)cache.continual_run(kSite, 32, 120);
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  // Next lookup simulates again.
  (void)cache.native_baseline(kSite);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(RunCache, InstancesAreIsolated) {
  RunCache a;
  RunCache b;
  (void)a.native_baseline(kSite);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.stats().misses, 0u);
}

TEST(RunCache, FreeFunctionsUseTheDefaultInstance) {
  clear_experiment_caches();
  const auto& via_free = native_baseline(kSite);
  const auto& via_default = default_run_cache().native_baseline(kSite);
  EXPECT_EQ(&via_free, &via_default);
}

TEST(RunCache, EqualKeysYieldIdenticalRuns) {
  // Two isolated caches must simulate to the same records — the cache is
  // a pure memoization layer, never a source of nondeterminism.
  RunCache a;
  RunCache b;
  const auto& ra = a.native_baseline(kSite);
  const auto& rb = b.native_baseline(kSite);
  ASSERT_EQ(ra.records.size(), rb.records.size());
  for (std::size_t i = 0; i < ra.records.size(); ++i) {
    EXPECT_EQ(ra.records[i].job.id, rb.records[i].job.id);
    EXPECT_EQ(ra.records[i].start, rb.records[i].start);
    EXPECT_EQ(ra.records[i].end, rb.records[i].end);
  }
}

}  // namespace
}  // namespace istc::core
