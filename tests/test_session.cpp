// Tests for MonitoredSession (the packaged Section IV-E loop).

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "hbosim/common/error.hpp"
#include "hbosim/core/monitored_session.hpp"
#include "hbosim/scenario/scenarios.hpp"
#include "hbosim/soc/devices_builtin.hpp"

namespace hbosim {
namespace {

core::MonitoredSessionConfig fast_session() {
  core::MonitoredSessionConfig cfg;
  cfg.hbo.n_initial = 3;
  cfg.hbo.n_iterations = 4;
  cfg.hbo.control_period_s = 1.0;
  cfg.hbo.monitor_period_s = 1.0;
  return cfg;
}

// Both session loops fold each period through app::SessionStats: Q_t,
// epsilon_t and B_t = Q_t - w*epsilon_t as running statistics, and
// (t, B_t) into the trace.
TEST(SessionStats, FoldsEachPeriodIntoStatsAndTrace) {
  app::PeriodMetrics a;
  a.average_quality = 0.9;
  a.latency_ratio = 0.2;
  app::PeriodMetrics b;
  b.average_quality = 0.7;
  b.latency_ratio = 0.6;
  app::SessionStats stats;
  stats.add(a, 0.5, 1.0);
  stats.add(b, 0.5, 2.0);
  EXPECT_EQ(stats.quality.count(), 2u);
  EXPECT_EQ(stats.latency_ratio.count(), 2u);
  EXPECT_EQ(stats.reward.count(), 2u);
  EXPECT_DOUBLE_EQ(stats.quality.mean(), 0.8);
  EXPECT_DOUBLE_EQ(stats.latency_ratio.mean(), 0.4);
  EXPECT_DOUBLE_EQ(stats.reward.mean(), 0.6);
  ASSERT_EQ(stats.reward_trace.size(), 2u);
  EXPECT_EQ(stats.reward_trace[0], std::make_pair(1.0, a.reward(0.5)));
  EXPECT_EQ(stats.reward_trace[1], std::make_pair(2.0, b.reward(0.5)));
}

TEST(MonitoredSession, EmptySceneNeverActivates) {
  app::MarApp app(soc::pixel7());
  app.add_task("mnist", "d");
  core::MonitoredSession session(app, fast_session());
  session.run_until(20.0);
  EXPECT_TRUE(session.activations().empty());
  EXPECT_FALSE(session.stats().reward_trace.empty());
}

TEST(MonitoredSession, FirstPlacementTriggersTheInitialActivation) {
  app::MarApp app(soc::pixel7());
  app.add_task("mnist", "d");
  app.add_task("mobilenetDetv1", "od");
  core::MonitoredSession session(app, fast_session());
  session.run_until(5.0);
  ASSERT_TRUE(session.activations().empty());
  app.add_object(scenario::mesh_asset("bike"), 1.5);
  session.run_until(app.sim().now() + 5.0);
  ASSERT_GE(session.activations().size(), 1u);
  EXPECT_FALSE(session.activations().front().warm_start);
  EXPECT_TRUE(session.policy().has_reference());
}

TEST(MonitoredSession, TickReportsWhetherAnActivationRan) {
  app::MarApp app(soc::pixel7());
  app.add_task("mnist", "d");
  core::MonitoredSession session(app, fast_session());
  EXPECT_FALSE(session.tick());  // empty scene
  app.add_object(scenario::mesh_asset("cabin"), 1.5);
  EXPECT_TRUE(session.tick());  // first placement -> initial activation
  EXPECT_FALSE(session.tick());  // settled
}

TEST(MonitoredSession, LookupTableServesRepeatedEnvironments) {
  auto cfg = fast_session();
  cfg.use_lookup_table = true;
  cfg.warm_start_tolerance = 10.0;  // always accept the remembered config

  app::MarApp app(soc::pixel7());
  for (const auto& t : scenario::task_specs(scenario::TaskSet::CF2))
    app.add_task(t.model, t.label);
  core::MonitoredSession session(app, cfg);

  // First environment: full activation, remembered.
  const ObjectId obj = app.add_object(scenario::mesh_asset("bike"), 1.5);
  session.run_until(app.sim().now() + 30.0);
  ASSERT_GE(session.activations().size(), 1u);
  EXPECT_FALSE(session.activations().front().warm_start);
  EXPECT_EQ(session.lookup_table().size(), 1u);

  // Leave and re-enter the same environment: the policy fires (reward
  // moves), but the solution comes from the table.
  app.scene().remove_object(obj);
  session.run_until(app.sim().now() + 12.0);
  app.add_object(scenario::mesh_asset("bike"), 1.5);
  const std::size_t before = session.activations().size();
  session.run_until(app.sim().now() + 30.0);
  bool any_warm = false;
  for (std::size_t i = before; i < session.activations().size(); ++i)
    any_warm = any_warm || session.activations()[i].warm_start;
  EXPECT_TRUE(any_warm);
}

TEST(MonitoredSession, WarmStartAcceptedWithinTolerance) {
  auto cfg = fast_session();
  cfg.use_lookup_table = true;
  cfg.warm_start_tolerance = 0.15;

  app::MarApp app(soc::pixel7());
  for (const auto& t : scenario::task_specs(scenario::TaskSet::CF2))
    app.add_task(t.model, t.label);
  app.add_object(scenario::mesh_asset("cabin"), 1.5);
  core::MonitoredSession session(app, cfg);

  // Remember a solution whose recorded cost is pessimistic: whatever the
  // measured cost turns out to be, it is within tolerance of +100, so the
  // warm start must be accepted and no exploration history produced.
  session.lookup_table().store(
      core::SolutionLookupTable::make_key(app),
      core::StoredSolution{{1.0, 0.0, 0.0, 1.0}, /*cost=*/100.0});

  ASSERT_TRUE(session.tick());  // first placement -> activation
  ASSERT_EQ(session.activations().size(), 1u);
  EXPECT_TRUE(session.activations().front().warm_start);
  EXPECT_FALSE(session.activations().front().from_shared_store);
  EXPECT_TRUE(session.activations().front().result.history.empty());
}

TEST(MonitoredSession, WarmStartRejectedWhenRememberedCostUnderperforms) {
  auto cfg = fast_session();
  cfg.use_lookup_table = true;
  cfg.warm_start_tolerance = 0.15;

  app::MarApp app(soc::pixel7());
  for (const auto& t : scenario::task_specs(scenario::TaskSet::CF2))
    app.add_task(t.model, t.label);
  app.add_object(scenario::mesh_asset("cabin"), 1.5);
  core::MonitoredSession session(app, cfg);

  // Remember an impossibly good cost: the measured warm-start cost is
  // guaranteed to underperform it beyond the tolerance, so the session
  // must fall back to a full Bayesian activation.
  session.lookup_table().store(
      core::SolutionLookupTable::make_key(app),
      core::StoredSolution{{1.0, 0.0, 0.0, 1.0}, /*cost=*/-1000.0});

  ASSERT_TRUE(session.tick());
  ASSERT_EQ(session.activations().size(), 1u);
  EXPECT_FALSE(session.activations().front().warm_start);
  EXPECT_FALSE(session.activations().front().result.history.empty());
  // The rejected entry was consulted (a table hit) and then replaced by
  // the freshly measured solution, which has a believable cost.
  EXPECT_GE(session.lookup_table().hits(), 1u);
  const auto stored = session.lookup_table().find(
      core::SolutionLookupTable::make_key(app));
  ASSERT_TRUE(stored.has_value());
  EXPECT_GT(stored->cost, -1000.0);
}

TEST(MonitoredSession, ExternalStoreServesWarmStartOnLocalMiss) {
  auto cfg = fast_session();
  cfg.use_lookup_table = true;
  cfg.warm_start_tolerance = 100.0;

  app::MarApp app(soc::pixel7());
  for (const auto& t : scenario::task_specs(scenario::TaskSet::CF2))
    app.add_task(t.model, t.label);
  app.add_object(scenario::mesh_asset("cabin"), 1.5);
  core::MonitoredSession session(app, cfg);

  int fetches = 0;
  core::SolutionStoreHooks hooks;
  hooks.fetch = [&fetches](const core::EnvironmentKey&) {
    ++fetches;
    return std::optional<core::StoredSolution>(
        core::StoredSolution{{1.0, 0.0, 0.0, 1.0}, 50.0});
  };
  session.set_solution_store(std::move(hooks));

  ASSERT_TRUE(session.tick());
  EXPECT_EQ(fetches, 1);
  ASSERT_EQ(session.activations().size(), 1u);
  EXPECT_TRUE(session.activations().front().warm_start);
  EXPECT_TRUE(session.activations().front().from_shared_store);
  // The pooled solution is adopted into the local table.
  EXPECT_EQ(session.lookup_table().size(), 1u);
}

TEST(MonitoredSession, FullActivationPublishesToExternalStore) {
  auto cfg = fast_session();
  cfg.use_lookup_table = true;

  app::MarApp app(soc::pixel7());
  for (const auto& t : scenario::task_specs(scenario::TaskSet::CF2))
    app.add_task(t.model, t.label);
  app.add_object(scenario::mesh_asset("cabin"), 1.5);
  core::MonitoredSession session(app, cfg);

  std::vector<core::StoredSolution> published;
  core::SolutionStoreHooks hooks;
  hooks.publish = [&published](const core::EnvironmentKey&,
                               const core::StoredSolution& s) {
    published.push_back(s);
  };
  session.set_solution_store(std::move(hooks));

  ASSERT_TRUE(session.tick());  // full activation (no fetch hook, empty table)
  ASSERT_EQ(published.size(), 1u);
  EXPECT_FALSE(published.front().z.empty());
  EXPECT_FALSE(session.activations().front().warm_start);
  EXPECT_GT(session.reward_stat().count(), 0u);  // streaming stats flow
}

TEST(MonitoredSession, InvalidConfigThrows) {
  app::MarApp app(soc::pixel7());
  app.add_task("mnist", "d");
  auto cfg = fast_session();
  cfg.reference_periods = 0;
  EXPECT_THROW(core::MonitoredSession(app, cfg), Error);
  cfg = fast_session();
  cfg.warm_start_tolerance = -1.0;
  EXPECT_THROW(core::MonitoredSession(app, cfg), Error);
}

}  // namespace
}  // namespace hbosim
