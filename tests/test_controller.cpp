// Tests for the HBO controller (the activation loop of Algorithm 1) and
// the cost function.

#include <gtest/gtest.h>

#include <limits>

#include "hbosim/common/error.hpp"
#include "hbosim/core/controller.hpp"
#include "hbosim/core/cost.hpp"
#include "hbosim/scenario/scenarios.hpp"
#include "hbosim/soc/devices_builtin.hpp"

namespace hbosim::core {
namespace {

TEST(Cost, EquationsThreeAndFive) {
  EXPECT_DOUBLE_EQ(reward(0.9, 0.2, 2.5), 0.4);
  EXPECT_DOUBLE_EQ(cost(0.9, 0.2, 2.5), -0.4);
  app::PeriodMetrics m;
  m.average_quality = 0.8;
  m.latency_ratio = 0.4;
  EXPECT_DOUBLE_EQ(cost_of(m, CostTerms{2.5}), -(0.8 - 1.0));
  EXPECT_DOUBLE_EQ(m.reward(2.5), -0.2);
}

TEST(HboConfig, ValidateCatchesNonsense) {
  HboConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  cfg.n_initial = 0;
  EXPECT_THROW(cfg.validate(), hbosim::Error);
  cfg = HboConfig{};
  cfg.control_period_s = 0.0;
  EXPECT_THROW(cfg.validate(), hbosim::Error);
}

TEST(HboConfig, ValidateRejectsNonFiniteWeightsAndPeriods) {
  // An infinite weight or price makes every measured cost infinite, which
  // the optimizer rejects mid-run; an infinite period never ends a loop.
  const double inf = std::numeric_limits<double>::infinity();
  for (double HboConfig::*knob :
       {&HboConfig::w_energy, &HboConfig::market_price,
        &HboConfig::control_period_s, &HboConfig::monitor_period_s}) {
    HboConfig cfg;
    cfg.*knob = inf;
    EXPECT_THROW(cfg.validate(), hbosim::Error);
    cfg.*knob = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(cfg.validate(), hbosim::Error);
  }
}

HboConfig small_config() {
  HboConfig cfg;
  cfg.n_initial = 3;
  cfg.n_iterations = 4;
  cfg.control_period_s = 1.0;
  return cfg;
}

TEST(Controller, ActivationProducesFullHistory) {
  auto app = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC2,
                                scenario::TaskSet::CF2);
  HboController hbo(*app, small_config());
  const ActivationResult result = hbo.run_activation();
  ASSERT_EQ(result.history.size(), 7u);
  for (std::size_t i = 0; i < result.history.size(); ++i) {
    const IterationRecord& r = result.history[i];
    EXPECT_EQ(r.index, static_cast<int>(i));
    EXPECT_EQ(r.random_init, i < 3);
    EXPECT_EQ(r.z.size(), 4u);
    EXPECT_EQ(r.allocation.size(), 3u);      // CF2 has three tasks
    EXPECT_EQ(r.object_ratios.size(), 7u);   // SC2 has seven objects
    EXPECT_DOUBLE_EQ(r.cost, -(r.quality - 2.5 * r.latency_ratio));
  }
}

TEST(Controller, RecordsRespectConstraints) {
  auto app = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC2,
                                scenario::TaskSet::CF2);
  HboConfig cfg = small_config();
  HboController hbo(*app, cfg);
  const ActivationResult result = hbo.run_activation();
  for (const IterationRecord& r : result.history) {
    double sum = 0.0;
    for (double c : r.usage) {
      EXPECT_GE(c, -1e-9);
      sum += c;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
    EXPECT_GE(r.triangle_ratio, cfg.r_min - 1e-9);
    EXPECT_LE(r.triangle_ratio, 1.0 + 1e-9);
    for (double ratio : r.object_ratios) {
      EXPECT_GE(ratio, 0.0);
      EXPECT_LE(ratio, 1.0);
    }
  }
}

TEST(Controller, BestConfigurationIsAppliedAfterActivation) {
  auto app = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC2,
                                scenario::TaskSet::CF2);
  HboController hbo(*app, small_config());
  const ActivationResult result = hbo.run_activation();
  EXPECT_EQ(app->current_allocation(), result.best().allocation);
  // Scene ratios correspond to the best record's TD output, modulo the
  // decimation service's upward quantization.
  app->sim().run_until(app->sim().now() + 1.0);  // let the redraw land
  const auto ids = app->scene().object_ids();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_GE(app->scene().object(ids[i]).ratio(),
              result.best().object_ratios[i] - 1e-9);
  }
}

TEST(Controller, BestIndexPointsAtMinimumCost) {
  auto app = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC2,
                                scenario::TaskSet::CF2);
  HboController hbo(*app, small_config());
  const ActivationResult result = hbo.run_activation();
  for (const IterationRecord& r : result.history)
    EXPECT_GE(r.cost, result.best().cost);
}

TEST(Controller, BestCostCurveIsNonIncreasing) {
  auto app = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC2,
                                scenario::TaskSet::CF2);
  HboController hbo(*app, small_config());
  const auto curve = hbo.run_activation().best_cost_curve();
  for (std::size_t i = 1; i < curve.size(); ++i)
    EXPECT_LE(curve[i], curve[i - 1] + 1e-12);
}

TEST(Controller, ConsecutiveDistancesHaveExpectedLength) {
  auto app = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC2,
                                scenario::TaskSet::CF2);
  HboController hbo(*app, small_config());
  const ActivationResult result = hbo.run_activation();
  EXPECT_EQ(result.consecutive_distances().size(), result.history.size() - 1);
}

TEST(Controller, DeterministicGivenSeeds) {
  auto run = [] {
    auto app = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC2,
                                  scenario::TaskSet::CF2, /*seed=*/77);
    HboController hbo(*app, small_config());
    return hbo.run_activation().best().cost;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Controller, RequiresTasks) {
  app::MarApp app(soc::pixel7());
  HboController hbo(app, small_config());
  EXPECT_THROW(hbo.run_activation(), hbosim::Error);
}

TEST(Controller, ApplyConfigurationHandlesEmptyScene) {
  auto device = soc::pixel7();
  app::MarApp app(device);
  app.add_task("mnist", "d");
  app.start();
  HboController hbo(app, small_config());
  // No objects: TD is a no-op, allocation still applies.
  const std::vector<double> z = {1.0, 0.0, 0.0, 0.8};
  const IterationRecord rec = hbo.apply_configuration(z);
  EXPECT_TRUE(rec.object_ratios.empty());
  EXPECT_EQ(app.current_allocation()[0], soc::Delegate::Cpu);
}

TEST(Controller, EmptyActivationResultThrowsOnBest) {
  ActivationResult empty;
  EXPECT_THROW(empty.best(), hbosim::Error);
}

}  // namespace
}  // namespace hbosim::core
