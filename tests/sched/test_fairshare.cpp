#include "sched/fairshare.hpp"

#include <gtest/gtest.h>

#include <initializer_list>

namespace istc::sched {
namespace {

workload::Job job_of(workload::UserId u, workload::GroupId g,
                     SimTime submit = 0) {
  workload::Job j;
  j.id = 1;
  j.user = u;
  j.group = g;
  j.cpus = 1;
  j.submit = submit;
  j.runtime = 100;
  j.estimate = 100;
  return j;
}

FairShareConfig cfg(FairShareMode mode) {
  FairShareConfig c;
  c.mode = mode;
  c.half_life = days(7);
  c.age_weight_per_hour = 0.0;  // isolate the share term in most tests
  return c;
}

TEST(FairShare, FreshTrackerIsNeutral) {
  FairShareTracker t(cfg(FairShareMode::kEqualUsers));
  EXPECT_DOUBLE_EQ(t.user_usage(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(t.priority(job_of(1, 0), 0),
                   t.priority(job_of(2, 0), 0));
}

TEST(FairShare, ChargeAccumulates) {
  FairShareTracker t(cfg(FairShareMode::kEqualUsers));
  t.charge(1, 0, 1000.0, 0);
  t.charge(1, 0, 500.0, 0);
  EXPECT_DOUBLE_EQ(t.user_usage(1, 0), 1500.0);
  EXPECT_DOUBLE_EQ(t.group_usage(0, 0), 1500.0);
}

TEST(FairShare, UsageDecaysWithHalfLife) {
  FairShareTracker t(cfg(FairShareMode::kEqualUsers));
  t.charge(1, 0, 1000.0, 0);
  EXPECT_NEAR(t.user_usage(1, days(7)), 500.0, 1e-6);
  EXPECT_NEAR(t.user_usage(1, days(14)), 250.0, 1e-6);
}

TEST(FairShare, HeavyUserSinks) {
  FairShareTracker t(cfg(FairShareMode::kEqualUsers));
  t.charge(1, 0, 100000.0, 0);
  t.charge(2, 0, 10.0, 0);
  EXPECT_LT(t.priority(job_of(1, 0), 0), t.priority(job_of(2, 0), 0));
}

TEST(FairShare, EqualUsersIgnoresGroupUsage) {
  FairShareTracker t(cfg(FairShareMode::kEqualUsers));
  // Same user, different groups; group 5 is heavily charged by user 9.
  t.charge(9, 5, 100000.0, 0);
  EXPECT_DOUBLE_EQ(t.priority(job_of(1, 5), 0), t.priority(job_of(1, 6), 0));
}

TEST(FairShare, GroupHierarchyGroupDominates) {
  FairShareTracker t(cfg(FairShareMode::kGroupHierarchy));
  // Group 1 consumed a lot via user 10; user 11 in group 1 is clean but
  // should still rank below a clean user in a clean group.
  t.charge(10, 1, 50000.0, 0);
  EXPECT_LT(t.priority(job_of(11, 1), 0), t.priority(job_of(12, 2), 0));
}

TEST(FairShare, GroupHierarchyUserBreaksTiesWithinGroup) {
  FairShareTracker t(cfg(FairShareMode::kGroupHierarchy));
  t.charge(10, 1, 10000.0, 0);
  // Same group usage for both; user 10 has personal usage, 11 does not.
  EXPECT_LT(t.priority(job_of(10, 1), 0), t.priority(job_of(11, 1), 0));
}

TEST(FairShare, UserAndGroupBlends) {
  auto c = cfg(FairShareMode::kUserAndGroup);
  c.group_weight = 0.5;
  FairShareTracker t(c);
  t.charge(1, 1, 10000.0, 0);
  // User 1 in a clean group vs clean user in group 1: equal blended usage.
  EXPECT_NEAR(t.priority(job_of(1, 2), 0), t.priority(job_of(3, 1), 0),
              1e-12);
  // Clean user + clean group beats both.
  EXPECT_GT(t.priority(job_of(4, 3), 0), t.priority(job_of(1, 2), 0));
}

TEST(FairShare, AgingLiftsWaitingJobs) {
  auto c = cfg(FairShareMode::kEqualUsers);
  c.age_weight_per_hour = 0.1;
  FairShareTracker t(c);
  t.charge(1, 0, 100.0, 0);
  t.charge(2, 0, 100.0, 0);
  const auto old_job = job_of(1, 0, 0);
  const auto new_job = job_of(2, 0, hours(10));
  // At t=10h the old job has 10h of age credit, the new one none.
  EXPECT_GT(t.priority(old_job, hours(10)), t.priority(new_job, hours(10)));
}

TEST(FairShare, AgingEventuallyOvercomesUsageDeficit) {
  auto c = cfg(FairShareMode::kEqualUsers);
  c.age_weight_per_hour = 0.05;
  FairShareTracker t(c);
  t.charge(1, 0, 1e6, 0);  // user 1 consumed everything so far
  const auto heavy_old = job_of(1, 0, 0);
  const auto light_new = job_of(2, 0, hours(100));
  // After 100 h of waiting the heavy user's job outranks a fresh job.
  EXPECT_GT(t.priority(heavy_old, hours(100)),
            t.priority(light_new, hours(100)));
}

TEST(FairShare, PrioritiesBoundedByNormalization) {
  FairShareTracker t(cfg(FairShareMode::kEqualUsers));
  t.charge(1, 0, 12345.0, 100);
  t.charge(2, 1, 777.0, 200);
  // Usage fractions are normalized by the grand total: deficits in [-1,0].
  for (const workload::UserId u :
       std::initializer_list<workload::UserId>{1, 2, 3}) {
    const double p = t.priority(job_of(u, 0), 300);
    EXPECT_LE(p, 0.0);
    EXPECT_GE(p, -1.0);
  }
}

TEST(FairShare, DecayConsistentAcrossChargePattern) {
  // Charging 500 at t=0 and 500 at t=hl must equal 250+500 at t=hl.
  FairShareTracker t(cfg(FairShareMode::kEqualUsers));
  t.charge(1, 0, 500.0, 0);
  t.charge(1, 0, 500.0, days(7));
  EXPECT_NEAR(t.user_usage(1, days(7)), 750.0, 1e-6);
}

TEST(FairShare, SizeBonusRanksWideJobsUp) {
  auto c = cfg(FairShareMode::kEqualUsers);
  c.size_weight = 0.5;
  FairShareTracker t(c);
  auto wide = job_of(1, 0);
  wide.cpus = 1024;
  auto narrow = job_of(2, 0);
  narrow.cpus = 1;
  EXPECT_GT(t.priority(wide, 0), t.priority(narrow, 0));
}

TEST(FairShare, SizeBonusDisabledByZeroWeight) {
  auto c = cfg(FairShareMode::kEqualUsers);
  c.size_weight = 0.0;
  FairShareTracker t(c);
  auto wide = job_of(1, 0);
  wide.cpus = 1024;
  EXPECT_DOUBLE_EQ(t.priority(wide, 0), t.priority(job_of(2, 0), 0));
}

TEST(FairShare, GroupUsageAggregatesAcrossUsers) {
  FairShareTracker t(cfg(FairShareMode::kGroupHierarchy));
  t.charge(1, 5, 300.0, 0);
  t.charge(2, 5, 700.0, 0);
  EXPECT_DOUBLE_EQ(t.group_usage(5, 0), 1000.0);
  EXPECT_DOUBLE_EQ(t.user_usage(1, 0), 300.0);
}

TEST(FairShare, UsageFractionsNormalizedByGrandTotal) {
  // Two users split the machine 3:1; the light user's deficit advantage
  // should match the usage split regardless of absolute magnitudes.
  for (double scale : {1.0, 1e6}) {
    FairShareTracker t(cfg(FairShareMode::kEqualUsers));
    t.charge(1, 0, 3.0 * scale, 0);
    t.charge(2, 0, 1.0 * scale, 0);
    const double gap =
        t.priority(job_of(2, 0), 0) - t.priority(job_of(1, 0), 0);
    EXPECT_NEAR(gap, 0.5, 1e-9);  // (3/4 - 1/4)
  }
}

// Parameterized: every mode keeps the "heavy sinks" ordering.
class ModeSweep : public ::testing::TestWithParam<FairShareMode> {};

TEST_P(ModeSweep, HeavyPrincipalSinks) {
  FairShareTracker t(cfg(GetParam()));
  t.charge(1, 1, 1e6, 0);
  t.charge(2, 2, 1.0, 0);
  EXPECT_LT(t.priority(job_of(1, 1), 0), t.priority(job_of(2, 2), 0));
}

TEST(FairShare, EpochAdvancesOnlyOnCharges) {
  FairShareTracker t(cfg(FairShareMode::kEqualUsers));
  EXPECT_EQ(t.epoch(), 0u);
  t.charge(1, 1, 100.0, 10);
  EXPECT_EQ(t.epoch(), 1u);
  // Queries never move the epoch — that is what lets the scheduler reuse
  // its cached priority order between charges.
  (void)t.priority(job_of(1, 1), 500);
  (void)t.user_usage(1, 500);
  EXPECT_EQ(t.epoch(), 1u);
  t.charge(2, 1, 1.0, 20);
  EXPECT_EQ(t.epoch(), 2u);
}

TEST(FairShare, PriorityComposesDeficitExactly) {
  // priority() must equal the split form bit-for-bit: the priority stage
  // memoizes deficit() per principal and recombines, and the schedules
  // must not depend on which path computed the number.
  FairShareConfig c = cfg(FairShareMode::kUserAndGroup);
  c.age_weight_per_hour = 0.7;
  c.size_weight = 0.3;
  FairShareTracker t(c);
  t.charge(1, 1, 5000.0, 0);
  t.charge(2, 2, 100.0, 50);
  const auto j = job_of(1, 1, 25);
  for (const SimTime now : {50, 500, 50000}) {
    EXPECT_EQ(t.priority(j, now),
              t.priority_with_deficit(t.deficit(j.user, j.group, now), j, now));
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ModeSweep,
                         ::testing::Values(FairShareMode::kEqualUsers,
                                           FairShareMode::kGroupHierarchy,
                                           FairShareMode::kUserAndGroup));

}  // namespace
}  // namespace istc::sched
