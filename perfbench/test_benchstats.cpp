// Checks the benchmark's own arithmetic on hand-built inputs.

#include <gtest/gtest.h>

#include "benchstats.hpp"

namespace pb = perfbench;

TEST(TailPercentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(pb::tail_percentile(10000), 99.9);  // 10 beyond p99.9
  EXPECT_EQ(pb::tail_percentile(9999), 99.0);   // 9.999 beyond p99.9
  EXPECT_EQ(pb::tail_percentile(1000), 99.0);   // exactly 10 beyond
  EXPECT_EQ(pb::tail_percentile(999), 90.0);
  EXPECT_EQ(pb::tail_percentile(100), 90.0);
  EXPECT_EQ(pb::tail_percentile(99), 50.0);
  EXPECT_EQ(pb::tail_percentile(20), 50.0);
  EXPECT_FALSE(pb::tail_percentile(19).has_value());
  EXPECT_EQ(pb::tail_percentile(200, 20), 90.0);
}

TEST(SelfTime, DisjointChildren) {
  EXPECT_DOUBLE_EQ(pb::self_time({0, 10}, {{1, 3}, {5, 6}}), 7.0);
  EXPECT_DOUBLE_EQ(pb::self_time({0, 10}, {}), 10.0);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Two concurrent children covering [2, 7) together.
  EXPECT_DOUBLE_EQ(pb::self_time({0, 10}, {{2, 5}, {4, 7}}), 5.0);
  // Touching children merge without a gap.
  EXPECT_DOUBLE_EQ(pb::self_time({0, 10}, {{2, 4}, {4, 6}}), 6.0);
}

TEST(SelfTime, NestedChildrenCountOnce) {
  // A grandchild inside its child adds no coverage.
  EXPECT_DOUBLE_EQ(pb::self_time({0, 10}, {{1, 9}, {2, 3}}), 2.0);
  // Listed in any order.
  EXPECT_DOUBLE_EQ(pb::self_time({0, 10}, {{2, 3}, {6, 8}, {1, 9}}), 2.0);
}

TEST(SelfTime, ChildrenClippedToParent) {
  EXPECT_DOUBLE_EQ(pb::self_time({0, 10}, {{-5, 2}, {8, 20}}), 6.0);
  EXPECT_DOUBLE_EQ(pb::self_time({0, 10}, {{11, 12}}), 10.0);
}

TEST(WorkerBusyFrac, SumOfSessionsOverCapacity) {
  // 4 workers for 2 s = 8 worker-seconds; sessions used 6 of them.
  EXPECT_DOUBLE_EQ(pb::worker_busy_frac({1.5, 1.5, 2.0, 1.0}, 4, 2.0), 0.75);
  EXPECT_DOUBLE_EQ(pb::worker_busy_frac({}, 2, 1.0), 0.0);
  EXPECT_THROW(pb::worker_busy_frac({1.0}, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(pb::worker_busy_frac({1.0}, 1, 0.0), std::invalid_argument);
}

TEST(ShareRollup, SharesAndUnattributedRemainder) {
  const auto rows = pb::share_rollup(
      {{"app", 25, 50.0}, {"bo", 20, 30.0}, {"none", 0, 0.0}}, 100.0);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].layer, "app");
  EXPECT_DOUBLE_EQ(rows[0].per_call, 2.0);
  EXPECT_DOUBLE_EQ(rows[0].share, 0.5);
  EXPECT_DOUBLE_EQ(rows[1].per_call, 1.5);
  EXPECT_DOUBLE_EQ(rows[1].share, 0.3);
  EXPECT_DOUBLE_EQ(rows[2].per_call, 0.0);
  EXPECT_DOUBLE_EQ(rows[2].share, 0.0);
  EXPECT_EQ(rows[3].layer, "unattributed");
  EXPECT_DOUBLE_EQ(rows[3].share, 0.2);
}

TEST(ShareRollup, OverlappingCostsShowAsNegativeRemainder) {
  const auto rows = pb::share_rollup({{"a", 1, 70.0}, {"b", 1, 40.0}}, 100.0);
  EXPECT_NEAR(rows.back().share, -0.1, 1e-12);
  EXPECT_THROW(pb::share_rollup({}, 0.0), std::invalid_argument);
}
