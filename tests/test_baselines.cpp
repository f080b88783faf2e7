// Tests for the four baseline strategies of Section V-A.

#include <gtest/gtest.h>

#include "hbosim/baselines/alln.hpp"
#include "hbosim/baselines/bnt.hpp"
#include "hbosim/baselines/sml.hpp"
#include "hbosim/baselines/smq.hpp"
#include "hbosim/baselines/static_alloc.hpp"
#include "hbosim/common/error.hpp"
#include "hbosim/scenario/scenarios.hpp"
#include "hbosim/soc/devices_builtin.hpp"

namespace hbosim::baselines {
namespace {

std::unique_ptr<app::MarApp> cf1_app() {
  return scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC2,
                            scenario::TaskSet::CF1);
}

TEST(StaticAllocation, PicksTableWinnersPerTask) {
  auto app = cf1_app();
  const auto alloc = static_best_allocation(*app);
  const auto models = app->task_models();
  ASSERT_EQ(alloc.size(), models.size());
  for (std::size_t i = 0; i < models.size(); ++i)
    EXPECT_EQ(alloc[i], app->device().best_delegate(models[i])) << models[i];
}

TEST(Smq, ReusesHbosTriangleDistributionWithStaticAllocation) {
  auto app = cf1_app();
  const std::size_t n = app->scene().object_count();
  const std::vector<double> hbo_ratios(n, 0.7);
  const BaselineOutcome out = run_smq(*app, hbo_ratios, 0.7);
  EXPECT_EQ(out.name, "SMQ");
  EXPECT_EQ(out.object_ratios, hbo_ratios);
  EXPECT_DOUBLE_EQ(out.triangle_ratio, 0.7);
  EXPECT_EQ(out.allocation, static_best_allocation(*app));
  EXPECT_GT(out.metrics.inference_count, 0u);
}

TEST(Smq, RejectsMismatchedRatioVector) {
  auto app = cf1_app();
  EXPECT_THROW(run_smq(*app, {0.5}, 0.5), hbosim::Error);
}

TEST(Sml, UnreachableTargetStopsAtTheFloor) {
  auto app = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC1,
                                scenario::TaskSet::CF1);
  SmlConfig cfg;
  cfg.target_latency_ratio = -1.0;  // impossible: eps >= ~0 always
  const BaselineOutcome out = run_sml(*app, cfg);
  EXPECT_NEAR(out.triangle_ratio, core::HboConfig::r_min, 1e-9);
  EXPECT_LT(out.metrics.average_quality, 1.0);
}

TEST(Sml, GenerousTargetKeepsFullQuality) {
  auto app = cf1_app();  // SC2: almost no render load
  SmlConfig cfg;
  cfg.target_latency_ratio = 1e9;
  const BaselineOutcome out = run_sml(*app, cfg);
  EXPECT_DOUBLE_EQ(out.triangle_ratio, 1.0);
}

TEST(Sml, ReducesQualityMonotonicallyTowardTheTarget) {
  auto app = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC1,
                                scenario::TaskSet::CF1);
  SmlConfig cfg;
  cfg.target_latency_ratio = 0.9;  // reachable mid-scan on SC1
  const BaselineOutcome out = run_sml(*app, cfg);
  EXPECT_LT(out.triangle_ratio, 1.0);
  EXPECT_GE(out.triangle_ratio, core::HboConfig::r_min - 1e-9);
  EXPECT_EQ(out.allocation, static_best_allocation(*app));
}

TEST(AllN, EveryCompatibleTaskGoesToNnapi) {
  auto app = cf1_app();
  const BaselineOutcome out = run_alln(*app);
  EXPECT_EQ(out.name, "AllN");
  EXPECT_DOUBLE_EQ(out.triangle_ratio, 1.0);
  const auto models = app->task_models();
  for (std::size_t i = 0; i < models.size(); ++i) {
    ASSERT_TRUE(app->device().supports(models[i], out.allocation[i]));
    if (app->device().supports(models[i], soc::Delegate::Nnapi)) {
      EXPECT_EQ(out.allocation[i], soc::Delegate::Nnapi);
    }
  }
}

TEST(AllN, NaModelsFallBackToTheirBestDelegate) {
  auto app = std::make_unique<app::MarApp>(soc::pixel7());
  app->add_task("deeplabv3", "is");  // no NNAPI path on Pixel 7
  app->add_object(scenario::mesh_asset("cabin"), 1.5);
  const BaselineOutcome out = run_alln(*app);
  EXPECT_EQ(out.allocation[0], soc::Delegate::Cpu);  // 110.1 < 136.6
}

TEST(Bnt, KeepsFullQualityAndSearchesAllocationsOnly) {
  auto app = cf1_app();
  core::HboConfig cfg;
  cfg.n_initial = 3;
  cfg.n_iterations = 3;
  cfg.control_period_s = 1.0;
  const BaselineOutcome out = run_bnt(*app, cfg);
  EXPECT_EQ(out.name, "BNT");
  EXPECT_DOUBLE_EQ(out.triangle_ratio, 1.0);
  for (double r : out.object_ratios) EXPECT_DOUBLE_EQ(r, 1.0);
  const auto models = app->task_models();
  for (std::size_t i = 0; i < models.size(); ++i)
    EXPECT_TRUE(app->device().supports(models[i], out.allocation[i]));
  // The final applied allocation is the one reported.
  EXPECT_EQ(app->current_allocation(), out.allocation);
}

TEST(Bnt, SceneStaysAtMaxTriangles) {
  auto app = cf1_app();
  core::HboConfig cfg;
  cfg.n_initial = 2;
  cfg.n_iterations = 2;
  cfg.control_period_s = 0.5;
  run_bnt(*app, cfg);
  EXPECT_DOUBLE_EQ(app->scene().current_ratio(), 1.0);
}

}  // namespace
}  // namespace hbosim::baselines
