// Tests for the MarApp composition layer.

#include <gtest/gtest.h>

#include <limits>

#include "hbosim/app/mar_app.hpp"
#include "hbosim/common/error.hpp"
#include "hbosim/scenario/scenarios.hpp"
#include "hbosim/soc/devices_builtin.hpp"

namespace hbosim::app {
namespace {

TEST(MarApp, TasksRegisterInOrderWithBestDelegatesByDefault) {
  MarApp app(soc::pixel7());
  app.add_task("mobilenetDetv1", "od");
  app.add_task("model-metadata", "gd");
  EXPECT_EQ(app.task_models(),
            (std::vector<std::string>{"mobilenetDetv1", "model-metadata"}));
  EXPECT_EQ(app.task_labels(), (std::vector<std::string>{"od", "gd"}));
  EXPECT_EQ(app.current_allocation(),
            (std::vector<soc::Delegate>{soc::Delegate::Nnapi,
                                        soc::Delegate::Gpu}));
}

TEST(MarApp, DuplicateLabelRejected) {
  MarApp app(soc::pixel7());
  app.add_task("mnist", "t");
  EXPECT_THROW(app.add_task("mnist", "t"), hbosim::Error);
}

TEST(MarApp, ExplicitDelegateOverridesDefault) {
  MarApp app(soc::pixel7());
  app.add_task("mobilenetDetv1", "od", soc::Delegate::Cpu);
  EXPECT_EQ(app.current_allocation()[0], soc::Delegate::Cpu);
}

TEST(MarApp, ApplyAllocationValidatesWidth) {
  MarApp app(soc::pixel7());
  app.add_task("mnist", "t");
  EXPECT_THROW(app.apply_allocation({}), hbosim::Error);
  EXPECT_NO_THROW(app.apply_allocation({soc::Delegate::Nnapi}));
  EXPECT_EQ(app.current_allocation()[0], soc::Delegate::Nnapi);
}

TEST(MarApp, RunPeriodRequiresStart) {
  MarApp app(soc::pixel7());
  app.add_task("mnist", "t");
  EXPECT_THROW(app.run_period(1.0), hbosim::Error);
  app.start();
  EXPECT_NO_THROW(app.run_period(1.0));
}

TEST(MarApp, RunPeriodRejectsANonPositiveSpan) {
  MarApp app(soc::pixel7());
  app.add_task("mnist", "t");
  app.start();
  for (double span : {-1.0, 0.0, std::numeric_limits<double>::quiet_NaN()})
    EXPECT_THROW(app.run_period(span), hbosim::Error) << span;
  EXPECT_DOUBLE_EQ(app.sim().now(), 0.0);  // no period ran
}

TEST(MarApp, PeriodMetricsArePopulated) {
  auto app = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC2,
                                scenario::TaskSet::CF2);
  app->start();
  const PeriodMetrics m = app->run_period(2.0);
  EXPECT_DOUBLE_EQ(m.period_start, 0.0);
  EXPECT_DOUBLE_EQ(m.period_end, 2.0);
  EXPECT_EQ(m.task_latency_ms.size(), 3u);
  EXPECT_EQ(m.task_expected_ms.size(), 3u);
  EXPECT_GT(m.inference_count, 0u);
  EXPECT_GT(m.average_quality, 0.0);
  EXPECT_LE(m.average_quality, 1.0);
  EXPECT_DOUBLE_EQ(m.triangle_ratio, 1.0);  // objects start at full quality
  EXPECT_GT(m.mean_task_latency_ms(), 0.0);
}

TEST(MarApp, ExpectedMsMatchesProfilerMinimum) {
  MarApp app(soc::pixel7());
  const TaskId id = app.add_task("mobilenetDetv1", "od");
  EXPECT_NEAR(app.expected_ms(id), 18.1, 1e-6);  // NNAPI wins on Pixel 7
}

TEST(MarApp, ObjectRatiosFlowThroughTheDecimationService) {
  auto app = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC2,
                                scenario::TaskSet::CF2);
  app->start();
  const std::size_t n = app->scene().object_count();
  app->apply_object_ratios(std::vector<double>(n, 0.5));
  // The redraw lands after the (simulated) download completes.
  app->run_period(1.0);
  for (ObjectId id : app->scene().object_ids()) {
    const double served = app->scene().object(id).ratio();
    EXPECT_GE(served, 0.5);                 // never below the request
    EXPECT_LE(served, 0.5 + 1.0 / 64 + 1e-9);  // one quantization level
  }
  EXPECT_GT(app->decimation().cache_misses(), 0u);
}

TEST(MarApp, ApplyRatiosValidatesWidth) {
  auto app = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC2,
                                scenario::TaskSet::CF2);
  EXPECT_THROW(app->apply_object_ratios({0.5}), hbosim::Error);
}

TEST(MarApp, UniformObjectRatiosCoverTheScene) {
  auto app = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC2,
                                scenario::TaskSet::CF2);
  app->start();
  app->apply_object_ratios(
      std::vector<double>(app->scene().object_count(), 0.25));
  app->run_period(1.0);
  EXPECT_LT(app->scene().current_ratio(), 0.3);
}

TEST(MarApp, LatencyRatioRisesUnderRenderLoad) {
  // The central coupling: a heavy scene must inflate epsilon for a
  // GPU-resident task.
  MarApp app(soc::pixel7());
  app.add_task("model-metadata", "gd", soc::Delegate::Gpu);
  app.start();
  const PeriodMetrics before = app.run_period(2.0);
  app.add_object(scenario::mesh_asset("plane"), 1.5);
  app.add_object(scenario::mesh_asset("bike"), 1.5);
  app.add_object(scenario::mesh_asset("splane"), 1.5);
  app.add_object(scenario::mesh_asset("plane"), 1.2);
  app.add_object(scenario::mesh_asset("statue"), 1.2);
  app.add_object(scenario::mesh_asset("plane"), 1.3);
  const PeriodMetrics after = app.run_period(2.0);
  EXPECT_GT(after.latency_ratio, before.latency_ratio + 0.2);
}

TEST(MarApp, SnapshotDoesNotAdvanceTime) {
  auto app = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC2,
                                scenario::TaskSet::CF2);
  app->start();
  app->run_period(1.0);
  const SimTime t = app->sim().now();
  const PeriodMetrics m = app->snapshot();
  EXPECT_DOUBLE_EQ(app->sim().now(), t);
  EXPECT_DOUBLE_EQ(m.period_end, t);
}

TEST(MarApp, DistanceScaleImprovesQualityMetric) {
  auto app = scenario::make_app(soc::pixel7(), scenario::ObjectSet::SC1,
                                scenario::TaskSet::CF2);
  app->start();
  app->apply_object_ratios(
      std::vector<double>(app->scene().object_count(), 0.4));
  app->run_period(1.0);
  const double q_near = app->snapshot().average_quality;
  app->set_user_distance_scale(2.5);
  const double q_far = app->snapshot().average_quality;
  EXPECT_GT(q_far, q_near);
}

}  // namespace
}  // namespace hbosim::app
