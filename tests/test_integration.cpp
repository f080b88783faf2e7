// Integration tests: the whole stack working together — HBO improving a
// live MAR app, baselines being beaten, the activation policy reacting to
// scene changes, and the framework running on every built-in device.

#include <gtest/gtest.h>

#include "hbosim/baselines/alln.hpp"
#include "hbosim/common/stats.hpp"
#include "hbosim/baselines/smq.hpp"
#include "hbosim/core/activation.hpp"
#include "hbosim/core/controller.hpp"
#include "hbosim/core/cost.hpp"
#include "hbosim/scenario/scenarios.hpp"
#include "hbosim/soc/devices_builtin.hpp"

namespace hbosim {
namespace {

core::HboConfig fast_config() {
  core::HboConfig cfg;
  cfg.n_initial = 4;
  cfg.n_iterations = 8;
  cfg.control_period_s = 1.0;
  return cfg;
}

TEST(Integration, HboImprovesTheRewardOnAHeavyScene) {
  auto app = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC1,
                                scenario::TaskSet::CF1);
  app->start();
  const double before = app->run_period(2.0).reward(2.5);
  core::HboController hbo(*app, fast_config());
  hbo.run_activation();
  app->run_period(1.0);  // settle
  const double after = app->run_period(2.0).reward(2.5);
  EXPECT_GT(after, before + 0.5);  // the untuned reward is deeply negative
}

TEST(Integration, HboDecimatesHeavyScenesButNotLightOnes) {
  // Section V-B's central observation: heavy scenes get decimated, light
  // scenes keep high quality. Individual runs vary (the paper's own
  // Fig. 7 reports final ratios between 0.52 and 1.0 across runs of one
  // scenario), so the property is asserted on three-seed averages with
  // the paper's full activation budget.
  auto mean_ratio_and_quality = [](scenario::ObjectSet objects,
                                   double* quality_out) {
    double x_acc = 0.0;
    double q_acc = 0.0;
    for (int seed = 0; seed < 3; ++seed) {
      auto app = scenario::make_app(soc::pixel7(), objects,
                                    scenario::TaskSet::CF1,
                                    0x5EEDu + 31 * seed);
      core::HboConfig cfg;  // paper defaults
      cfg.seed = 1234 + 7 * static_cast<unsigned>(seed);
      core::HboController hbo(*app, cfg);
      x_acc += hbo.run_activation().best().triangle_ratio / 3.0;
      q_acc += app->run_period(2.0).average_quality / 3.0;
    }
    if (quality_out) *quality_out = q_acc;
    return x_acc;
  };

  double q_heavy = 0.0;
  double q_light = 0.0;
  const double x_heavy =
      mean_ratio_and_quality(scenario::ObjectSet::SC1, &q_heavy);
  const double x_light =
      mean_ratio_and_quality(scenario::ObjectSet::SC2, &q_light);

  EXPECT_LT(x_heavy, 0.85);           // heavy scenes get decimated
  EXPECT_GT(x_light, x_heavy - 0.05); // light scenes are not cut harder
  EXPECT_GT(q_light, 0.74);           // and keep high quality regardless
}

TEST(Integration, HboBeatsSmqOnLatencyAtMatchedQuality) {
  auto hbo_app = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC1,
                                    scenario::TaskSet::CF1);
  core::HboController hbo(*hbo_app, fast_config());
  const core::IterationRecord best = hbo.run_activation().best();
  const app::PeriodMetrics hbo_metrics =
      hbo_app->run_period(baselines::kSettleS);

  auto smq_app = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC1,
                                    scenario::TaskSet::CF1);
  const auto smq = baselines::run_smq(*smq_app, best.object_ratios,
                                      best.triangle_ratio);

  EXPECT_NEAR(smq.metrics.average_quality, hbo_metrics.average_quality, 0.02);
  EXPECT_GT(smq.metrics.latency_ratio, hbo_metrics.latency_ratio * 1.3);
}

TEST(Integration, HboBeatsAllNOnLatencyByALargeFactor) {
  auto hbo_app = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC1,
                                    scenario::TaskSet::CF1);
  core::HboController hbo(*hbo_app, fast_config());
  hbo.run_activation();
  const app::PeriodMetrics hbo_metrics =
      hbo_app->run_period(baselines::kSettleS);

  auto alln_app = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC1,
                                     scenario::TaskSet::CF1);
  const auto alln = baselines::run_alln(*alln_app);

  EXPECT_GT(alln.metrics.mean_task_latency_ms(),
            2.0 * hbo_metrics.mean_task_latency_ms());
}

class DeviceSweep : public ::testing::TestWithParam<int> {};

TEST_P(DeviceSweep, FullPipelineRunsOnEveryBuiltinDevice) {
  const auto devices = soc::builtin_devices();
  const soc::DeviceProfile& device =
      devices[static_cast<std::size_t>(GetParam())];
  auto app = scenario::make_app(device, scenario::ObjectSet::SC2,
                                scenario::TaskSet::CF2);
  core::HboConfig cfg;
  cfg.n_initial = 2;
  cfg.n_iterations = 3;
  cfg.control_period_s = 0.5;
  core::HboController hbo(*app, cfg);
  const core::ActivationResult result = hbo.run_activation();
  EXPECT_EQ(result.history.size(), 5u);
  for (const auto& rec : result.history) {
    for (std::size_t t = 0; t < rec.allocation.size(); ++t) {
      EXPECT_TRUE(
          device.supports(app->task_models()[t], rec.allocation[t]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDevices, DeviceSweep, ::testing::Range(0, 3));

TEST(Integration, EventPolicyReactsToAHeavyObjectPlacement) {
  // CF2's three-task set keeps the quiet-scene reward stable; CF1's six
  // tasks phase-lock on the accelerators and oscillate by more than the
  // activation thresholds, which is interesting but not what this test
  // isolates.
  auto app = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC2,
                                scenario::TaskSet::CF2);
  app->start();
  core::HboController hbo(*app, fast_config());
  hbo.run_activation();
  app->run_period(1.0);

  core::EventActivationPolicy policy;
  double reference = 0.0;
  for (int i = 0; i < 3; ++i)
    reference += app->run_period(2.0).reward(2.5) / 3.0;
  policy.set_reference(reference);

  // Quiet scene: the smoothed reward stays near the reference. NPU-phase
  // collisions make individual windows noisy, so the policy is allowed at
  // most one false positive across eight monitor periods.
  Ewma smoothed(0.25);
  smoothed.add(reference);
  int quiet_fires = 0;
  for (int i = 0; i < 8; ++i) {
    smoothed.add(app->run_period(2.0).reward(2.5));
    quiet_fires += policy.should_activate(smoothed.value());
  }
  EXPECT_LE(quiet_fires, 1);

  // A pile of heavy objects lands: the reward collapses and the policy
  // must fire within a few periods.
  app->add_object(scenario::mesh_asset("statue"), 1.2);
  app->add_object(scenario::mesh_asset("plane"), 1.5);
  app->add_object(scenario::mesh_asset("bike"), 1.4);
  app->add_object(scenario::mesh_asset("plane"), 1.3);
  app->add_object(scenario::mesh_asset("splane"), 1.6);
  app->add_object(scenario::mesh_asset("plane"), 1.1);
  bool fired = false;
  for (int i = 0; i < 4; ++i) {
    smoothed.add(app->run_period(2.0).reward(2.5));
    fired = fired || policy.should_activate(smoothed.value());
  }
  EXPECT_TRUE(fired);
}

TEST(Integration, FasterDeviceYieldsLowerCostThanMidTier) {
  auto flagship = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC2,
                                     scenario::TaskSet::CF2);
  auto midtier = scenario::make_app(soc::synthetic_midtier(),
                                    scenario::ObjectSet::SC2,
                                    scenario::TaskSet::CF2);
  flagship->start();
  midtier->start();
  // Same scene + taskset: epsilon is normalized per-device, but the
  // mid-tier's weaker accelerators contend more at equal load.
  const double eps_flagship = flagship->run_period(2.0).latency_ratio;
  const double eps_midtier = midtier->run_period(2.0).latency_ratio;
  EXPECT_GT(eps_midtier, eps_flagship - 0.25);  // sanity: same order
}

TEST(Integration, DecimationCacheWarmsAcrossActivations) {
  auto app = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC2,
                                scenario::TaskSet::CF2);
  core::HboController hbo(*app, fast_config());
  hbo.run_activation();
  const auto misses_first = app->decimation().cache_misses();
  hbo.run_activation();
  const auto misses_second =
      app->decimation().cache_misses() - misses_first;
  EXPECT_GT(app->decimation().cache_hits(), 0u);
  // The second activation revisits quantized levels it already fetched.
  EXPECT_LT(misses_second, misses_first + 1);
}

}  // namespace
}  // namespace hbosim
