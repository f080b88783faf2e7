// Tests for the event-based and periodic activation policies and the
// Section VI lookup table.

#include <gtest/gtest.h>

#include "hbosim/common/error.hpp"
#include "hbosim/core/activation.hpp"
#include "hbosim/core/lookup_table.hpp"
#include "hbosim/scenario/scenarios.hpp"
#include "hbosim/soc/devices_builtin.hpp"

namespace hbosim::core {
namespace {

TEST(EventPolicy, FirstCallAlwaysActivates) {
  EventActivationPolicy policy;
  EXPECT_FALSE(policy.has_reference());
  EXPECT_TRUE(policy.should_activate(0.5));
  EXPECT_THROW(policy.reference(), hbosim::Error);
}

// References above the 2.0 floor scale the thresholds with the
// reference itself: at 10.0 they sit at +0.5 and -1.0.
TEST(EventPolicy, StableRewardDoesNotActivate) {
  EventActivationPolicy policy;
  policy.set_reference(10.0);
  EXPECT_FALSE(policy.should_activate(10.0));
  EXPECT_FALSE(policy.should_activate(10.3));
  EXPECT_FALSE(policy.should_activate(9.5));
}

TEST(EventPolicy, UpwardThresholdIsFivePercent) {
  EventActivationPolicy policy;
  policy.set_reference(10.0);
  EXPECT_FALSE(policy.should_activate(10.49));
  EXPECT_TRUE(policy.should_activate(10.51));
}

TEST(EventPolicy, DownwardThresholdIsTenPercent) {
  EventActivationPolicy policy;
  policy.set_reference(10.0);
  EXPECT_FALSE(policy.should_activate(9.01));
  EXPECT_TRUE(policy.should_activate(8.99));
}

TEST(EventPolicy, AsymmetryMatchesThePaper) {
  // A reward *increase* triggers sooner than a decrease (5% vs 10%):
  // quality headroom is cheap to exploit, re-exploration is costly.
  EventActivationPolicy policy;
  policy.set_reference(10.0);
  EXPECT_TRUE(policy.should_activate(10.6));
  EXPECT_FALSE(policy.should_activate(9.4));
}

TEST(EventPolicy, FloorProtectsNearZeroReferences) {
  EventActivationPolicy policy;
  policy.set_reference(0.01);
  // Thresholds are relative to max(|ref|, 2.0) = 2.0: +0.1 / -0.2.
  EXPECT_FALSE(policy.should_activate(0.10));
  EXPECT_TRUE(policy.should_activate(0.12));
  EXPECT_FALSE(policy.should_activate(-0.18));
  EXPECT_TRUE(policy.should_activate(-0.2));
}

TEST(EventPolicy, NegativeReferencesWork) {
  EventActivationPolicy policy;
  policy.set_reference(-10.0);
  EXPECT_FALSE(policy.should_activate(-10.5));
  EXPECT_TRUE(policy.should_activate(-12.0));  // 20% worse
  EXPECT_TRUE(policy.should_activate(-9.0));   // 10% better > 5% threshold
}

TEST(EventPolicy, ReferenceUpdateRebasesThresholds) {
  EventActivationPolicy policy;
  policy.set_reference(10.0);
  EXPECT_TRUE(policy.should_activate(20.0));
  policy.set_reference(20.0);
  EXPECT_FALSE(policy.should_activate(20.0));
  EXPECT_DOUBLE_EQ(policy.reference(), 20.0);
}

TEST(EventPolicy, CountsEvaluations) {
  EventActivationPolicy policy;
  policy.set_reference(1.0);
  for (int i = 0; i < 5; ++i) policy.should_activate(1.0);
  EXPECT_EQ(policy.evaluations(), 5u);
}

TEST(PeriodicPolicy, FiresEveryNthTick) {
  PeriodicActivationPolicy policy(3);
  std::vector<bool> fired;
  for (int i = 0; i < 7; ++i) fired.push_back(policy.should_activate());
  EXPECT_EQ(fired, (std::vector<bool>{true, false, false, true, false, false,
                                      true}));
  EXPECT_EQ(policy.evaluations(), 7u);
}

TEST(PeriodicPolicy, ZeroPeriodThrows) {
  EXPECT_THROW(PeriodicActivationPolicy{0}, hbosim::Error);
}

TEST(LookupTable, StoreAndExactMatch) {
  SolutionLookupTable table;
  EnvironmentKey key{12, 4, 0xABCD};
  EXPECT_FALSE(table.find(key).has_value());
  table.store(key, StoredSolution{{0.5, 0.2, 0.3, 0.7}, -0.4});
  const auto hit = table.find(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->cost, -0.4);
  EXPECT_EQ(table.hits(), 1u);
  EXPECT_EQ(table.misses(), 1u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(LookupTable, KeepsTheLowerCostSolutionOnCollision) {
  SolutionLookupTable table;
  EnvironmentKey key{1, 1, 1};
  table.store(key, StoredSolution{{1.0, 0.0, 0.0, 1.0}, -0.2});
  table.store(key, StoredSolution{{0.0, 1.0, 0.0, 1.0}, -0.5});  // better
  table.store(key, StoredSolution{{0.0, 0.0, 1.0, 1.0}, -0.1});  // worse
  EXPECT_DOUBLE_EQ(table.find(key)->cost, -0.5);
  EXPECT_EQ(table.size(), 1u);
}

TEST(LookupTable, KeyQuantizesEnvironment) {
  auto app1 = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC1,
                                 scenario::TaskSet::CF1);
  auto app2 = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC1,
                                 scenario::TaskSet::CF1, /*seed=*/99);
  // Identical environments map to the same key regardless of engine seed.
  EXPECT_EQ(SolutionLookupTable::make_key(*app1),
            SolutionLookupTable::make_key(*app2));

  auto app3 = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC2,
                                 scenario::TaskSet::CF1);
  EXPECT_NE(SolutionLookupTable::make_key(*app1),
            SolutionLookupTable::make_key(*app3));

  auto app4 = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC1,
                                 scenario::TaskSet::CF2);
  EXPECT_NE(SolutionLookupTable::make_key(*app1).taskset_hash,
            SolutionLookupTable::make_key(*app4).taskset_hash);
}

TEST(LookupTable, DistanceChangesTheKey) {
  auto app = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC1,
                                scenario::TaskSet::CF1);
  const EnvironmentKey near = SolutionLookupTable::make_key(*app);
  app->set_user_distance_scale(3.0);
  const EnvironmentKey far = SolutionLookupTable::make_key(*app);
  EXPECT_NE(near, far);
}

}  // namespace
}  // namespace hbosim::core
