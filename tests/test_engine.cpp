// Tests for the inference engine: isolation timing, delegate switching,
// task lifecycle, measurement windows.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "hbosim/ai/engine.hpp"
#include "hbosim/common/error.hpp"
#include "hbosim/common/types.hpp"
#include "hbosim/soc/devices_builtin.hpp"

namespace hbosim::ai {
namespace {

EngineConfig quiet() {
  EngineConfig cfg;
  cfg.latency_noise = 0.0;  // deterministic latencies for exact asserts
  return cfg;
}

struct Fixture {
  soc::DeviceProfile device = soc::pixel7();
  des::Simulator sim;
  soc::SocRuntime soc{sim, device};
  InferenceEngine engine{sim, soc, quiet()};
};

TEST(Engine, IsolationLatencyMatchesTableOnEveryDelegate) {
  for (auto [delegate, expected] :
       {std::pair{soc::Delegate::Gpu, 24.6},
        std::pair{soc::Delegate::Nnapi, 40.7},
        std::pair{soc::Delegate::Cpu, 25.5}}) {
    Fixture f;
    const TaskId id = f.engine.add_task("model-metadata", "gd", delegate);
    f.engine.start();
    f.sim.run_until(2.0);
    EXPECT_NEAR(to_ms(f.engine.window_mean_latency_s(id)), expected, 1e-6);
    EXPECT_GT(f.engine.window_count(id), 10u);
  }
}

TEST(Engine, UnknownModelOrUnsupportedDelegateThrows) {
  Fixture f;
  EXPECT_THROW(f.engine.add_task("bogus", "x", soc::Delegate::Cpu),
               hbosim::Error);
  EXPECT_THROW(f.engine.add_task("deeplabv3", "x", soc::Delegate::Nnapi),
               hbosim::Error);
}

TEST(Engine, DelegateSwitchAppliesToNextInference) {
  Fixture f;
  const TaskId id = f.engine.add_task("model-metadata", "gd",
                                      soc::Delegate::Gpu);
  f.engine.start();
  f.sim.run_until(1.0);
  f.engine.set_delegate(id, soc::Delegate::Cpu);
  EXPECT_EQ(f.engine.task(id).delegate, soc::Delegate::Cpu);
  f.sim.run_until(1.2);  // let in-flight work drain
  f.engine.reset_window();
  f.sim.run_until(2.2);
  EXPECT_NEAR(to_ms(f.engine.window_mean_latency_s(id)), 25.5, 1e-6);
}

TEST(Engine, SwitchToUnsupportedDelegateThrows) {
  Fixture f;
  const TaskId id = f.engine.add_task("deeplabv3", "is", soc::Delegate::Cpu);
  EXPECT_THROW(f.engine.set_delegate(id, soc::Delegate::Nnapi), hbosim::Error);
}

TEST(Engine, TwoGpuTasksContendAndSlowDown) {
  Fixture f;
  const TaskId a = f.engine.add_task("model-metadata", "gd1",
                                     soc::Delegate::Gpu);
  f.engine.add_task("model-metadata", "gd2", soc::Delegate::Gpu);
  f.engine.start();
  f.sim.run_until(3.0);
  EXPECT_GT(to_ms(f.engine.window_mean_latency_s(a)), 24.6 * 1.1);
}

TEST(Engine, RenderLoadInflatesGpuLatency) {
  Fixture f;
  const TaskId id = f.engine.add_task("model-metadata", "gd",
                                      soc::Delegate::Gpu);
  f.engine.start();
  f.sim.run_until(1.0);
  const double before = to_ms(f.engine.window_mean_latency_s(id));
  f.soc.gpu().set_background_utilization(0.5);
  f.engine.reset_window();
  f.sim.run_until(2.0);
  const double after = to_ms(f.engine.window_mean_latency_s(id));
  // Only the GPU compute phase (22.6 of 24.6 ms) dilates by 2x;
  // inferences straddling the load change blur the window mean slightly.
  EXPECT_NEAR(after, before + 22.6, 2.5);
}

TEST(Engine, AddTaskWhileRunningJoinsTheSystem) {
  Fixture f;
  f.engine.add_task("mnist", "d1", soc::Delegate::Cpu);
  f.engine.start();
  f.sim.run_until(1.0);
  const TaskId late = f.engine.add_task("mnist", "d2", soc::Delegate::Cpu);
  f.sim.run_until(2.0);
  EXPECT_GT(f.engine.window_count(late), 0u);
}

TEST(Engine, ObserverSeesEveryCompletion) {
  Fixture f;
  const TaskId id = f.engine.add_task("mnist", "d", soc::Delegate::Gpu);
  std::size_t observed = 0;
  f.engine.set_observer([&](const AiTask& task, double latency) {
    EXPECT_EQ(task.id, id);
    EXPECT_GT(latency, 0.0);
    ++observed;
  });
  f.engine.start();
  f.sim.run_until(1.0);
  EXPECT_EQ(observed, f.engine.window_count(id));
  EXPECT_GT(observed, 0u);
}

// Tasks are stored so that adding one keeps references to the others
// valid: an observer may add a task while it holds the completed one.
TEST(Engine, ObserverMayAddATask) {
  Fixture f;
  const TaskId first = f.engine.add_task("mnist", "d1", soc::Delegate::Gpu);
  std::vector<TaskId> added;
  f.engine.set_observer([&](const AiTask& task, double) {
    const TaskId id = task.id;
    if (f.engine.task_count() < 6) {
      added.push_back(f.engine.add_task("mnist", "d", soc::Delegate::Cpu));
    }
    EXPECT_EQ(task.id, id);  // still the completed task after the add
    EXPECT_EQ(task.model, "mnist");
  });
  f.engine.start();
  f.sim.run_until(2.0);
  ASSERT_EQ(f.engine.task_count(), 6u);
  EXPECT_EQ(added, (std::vector<TaskId>{2, 3, 4, 5, 6}));
  EXPECT_GT(f.engine.window_count(first), 0u);
  for (const TaskId id : added) {
    EXPECT_GT(f.engine.window_count(id), 0u) << "task " << id;  // joined
  }
}

TEST(Engine, InferenceGapsStayWithinTheJitterBand) {
  // Alone on its delegate, each inference starts one jittered frame gap
  // (inference_gap_s x [1 - gap_jitter, 1 + gap_jitter]) after the
  // previous one completed.
  Fixture f;
  f.engine.add_task("mnist", "d", soc::Delegate::Gpu);
  std::vector<std::pair<SimTime, double>> done;  // (completion, latency)
  f.engine.set_observer([&](const AiTask&, double latency) {
    done.emplace_back(f.sim.now(), latency);
  });
  f.engine.start();
  f.sim.run_until(2.0);
  ASSERT_GT(done.size(), 20u);
  const double gap = EngineConfig{}.inference_gap_s;
  double lo = gap;
  double hi = gap;
  for (std::size_t i = 1; i < done.size(); ++i) {
    const double g = (done[i].first - done[i].second) - done[i - 1].first;
    EXPECT_GE(g, gap * 0.75 - 1e-12) << "gap " << i;
    EXPECT_LE(g, gap * 1.25 + 1e-12) << "gap " << i;
    lo = std::min(lo, g);
    hi = std::max(hi, g);
  }
  // The jitter is on: the gaps spread across the band.
  EXPECT_LT(lo, gap * 0.9);
  EXPECT_GT(hi, gap * 1.1);
}

TEST(Engine, WindowResetClearsCountsButKeepsLastLatency) {
  Fixture f;
  const TaskId id = f.engine.add_task("mnist", "d", soc::Delegate::Gpu);
  f.engine.start();
  f.sim.run_until(0.5);
  EXPECT_GT(f.engine.window_count(id), 0u);
  const double last = f.engine.last_latency_s(id);
  f.engine.reset_window();
  EXPECT_EQ(f.engine.window_count(id), 0u);
  EXPECT_DOUBLE_EQ(f.engine.last_latency_s(id), last);
}

TEST(Engine, NoiseIsReproducibleAcrossSeeds) {
  auto run = [](std::uint64_t seed) {
    soc::DeviceProfile device = soc::pixel7();
    des::Simulator sim;
    soc::SocRuntime soc(sim, device);
    EngineConfig cfg;
    cfg.latency_noise = 0.05;
    cfg.seed = seed;
    InferenceEngine engine(sim, soc, cfg);
    const TaskId id = engine.add_task("mnist", "d", soc::Delegate::Gpu);
    engine.start();
    sim.run_until(1.0);
    return engine.window_mean_latency_s(id);
  };
  EXPECT_DOUBLE_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));
}

// The remote executor runs while the engine holds the routed task's
// state, which it still writes afterwards; a task added from inside the
// executor must leave that state valid.
TEST(Engine, RemoteExecutorMayAddATask) {
  Fixture f;
  const TaskId id = f.engine.add_task("mnist", "d1", soc::Delegate::Gpu);
  f.engine.set_edge_share(id, 1.0);
  TaskId added = 0;
  f.engine.set_remote_executor([&](const AiTask& task, double) {
    if (added == 0) {
      added = f.engine.add_task("mnist", "d2", soc::Delegate::Cpu);
    }
    EXPECT_EQ(task.id, id);  // only the task with a share is routed
    return RemoteResult{true, 0.004};
  });
  f.engine.start();
  f.sim.run_until(2.0);
  ASSERT_EQ(f.engine.task_count(), 2u);
  EXPECT_EQ(added, id + 1);
  // Every completion of d1 came back from the edge; d2 ran locally.
  EXPECT_GT(f.engine.window_count(id), 0u);
  EXPECT_EQ(f.engine.remote_inferences(), f.engine.window_count(id));
  EXPECT_GT(f.engine.window_count(added), 0u);
}

// Ids index the task store: id 0 and ids past the last task are
// rejected, never read out of bounds.
TEST(Engine, UnknownTaskIdThrows) {
  Fixture f;
  EXPECT_THROW(f.engine.task(1), hbosim::Error);  // no task yet
  const TaskId id = f.engine.add_task("mnist", "d", soc::Delegate::Gpu);
  EXPECT_EQ(id, 1u);
  EXPECT_NO_THROW(f.engine.task(id));
  EXPECT_THROW(f.engine.task(0), hbosim::Error);
  EXPECT_THROW(f.engine.task(id + 1), hbosim::Error);
  EXPECT_THROW(f.engine.set_delegate(id + 1, soc::Delegate::Cpu),
               hbosim::Error);
  EXPECT_THROW(f.engine.set_edge_share(0, 0.5), hbosim::Error);
  EXPECT_THROW(f.engine.window_count(id + 1), hbosim::Error);
  EXPECT_THROW(f.engine.last_latency_s(0), hbosim::Error);
}

TEST(Engine, TaskIdsAreOrderedAndStable) {
  Fixture f;
  const TaskId a = f.engine.add_task("mnist", "a", soc::Delegate::Cpu);
  const TaskId b = f.engine.add_task("mnist", "b", soc::Delegate::Cpu);
  EXPECT_LT(a, b);
  EXPECT_EQ(f.engine.task_ids(), (std::vector<TaskId>{a, b}));
}

}  // namespace
}  // namespace hbosim::ai
