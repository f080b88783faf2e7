// Tests for hbosim::offload — edge as a fourth HBO allocation target —
// and its satellites: the core::CostTerms consolidation, the AiInference
// edge request class, radio-energy battery accounting, the deterministic
// engine routing, the dimension guards on warm starts and priors, and the
// fleet-level parity / thread-count-invariance guarantees.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hbosim/common/error.hpp"
#include "hbosim/core/cost.hpp"
#include "hbosim/core/monitored_session.hpp"
#include "hbosim/edgesvc/broker.hpp"
#include "hbosim/fleet/fleet_simulator.hpp"
#include "hbosim/offload/offload.hpp"
#include "hbosim/scenario/scenarios.hpp"
#include "hbosim/soc/devices_builtin.hpp"

namespace hbosim {
namespace {

std::unique_ptr<app::MarApp> light_app(std::uint64_t seed,
                                       app::MarAppConfig cfg = {}) {
  return scenario::make_app(soc::find_builtin("Pixel 7"),
                            scenario::ObjectSet::SC2, scenario::TaskSet::CF2,
                            seed, cfg);
}

edgesvc::EdgeClient make_edge_client(const edgesvc::EdgeServiceSpec& svc,
                                     std::uint64_t seed) {
  return edgesvc::EdgeClient(svc.client, svc.server, svc.background,
                             /*background_tenants=*/1, svc.link,
                             /*tenant=*/0, seed);
}

// ---------------------------------------------------------------- cost --

TEST(CostTerms, ZeroWeightTermsAddNoArithmetic) {
  app::PeriodMetrics m;
  m.average_quality = 0.7;
  m.latency_ratio = 0.3;
  m.avg_power_w = 3.1;
  m.triangle_ratio = 0.9;

  // The legacy pure-QoE cost, bit for bit: a zero-weight term adds
  // 0 * x, which leaves a sum over finite metrics unchanged.
  EXPECT_EQ(core::cost_of(m, core::CostTerms{2.5, 0.0, 0.0}),
            core::cost(m.average_quality, m.latency_ratio, 2.5));

  // Nonzero terms charge exactly their weighted metric.
  EXPECT_EQ(core::cost_of(m, core::CostTerms{2.5, 0.5, 0.0}),
            core::cost(m.average_quality, m.latency_ratio, 2.5) +
                0.5 * m.avg_power_w);
}

TEST(CostTerms, ZeroWeightsLeaveTheBaseCostOnFiniteMetrics) {
  // A zero weight adds 0 * x. Over finite metrics that is a signed zero,
  // which leaves the sum equal to the base cost (a -0 base may come back
  // as +0, which compares equal), so default terms compute the paper's
  // cost whatever the power and triangle metrics read.
  const double values[] = {0.0,  -0.0, 5e-324, 1e-300, 0.3,
                           0.7,  2.625, -4.5,  1e6,    1e300};
  for (const double q : values) {
    for (const double eps : values) {
      for (const double watts : values) {
        for (const double tri : values) {
          app::PeriodMetrics m;
          m.average_quality = q;
          m.latency_ratio = eps;
          m.avg_power_w = watts;
          m.triangle_ratio = tri;
          const double base = core::cost(q, eps, 2.5);
          EXPECT_EQ(core::cost_of(m, core::CostTerms{2.5, 0.0, 0.0}), base);
          EXPECT_EQ(core::cost_of(m, core::CostTerms{2.5, 0.5, 0.0}),
                    base + 0.5 * watts);
          EXPECT_EQ(core::cost_of(m, core::CostTerms{2.5, 0.0, 0.5}),
                    base + 0.5 * tri);
        }
      }
    }
  }
}

TEST(CostTerms, EveryTermChargesItsWeightedMetricExactly) {
  app::PeriodMetrics m;
  m.average_quality = 0.8125;  // dyadic values: exact FP round trips
  m.latency_ratio = 0.375;
  m.avg_power_w = 2.625;
  m.triangle_ratio = 0.5625;

  // phi = -(Q - w*eps) + w_energy * P_avg + market_price * x, summed in
  // that order.
  const double qoe = core::cost(m.average_quality, m.latency_ratio, 2.5);
  EXPECT_EQ(qoe, -(0.8125 - 2.5 * 0.375));
  EXPECT_EQ(core::cost_of(m, core::CostTerms{2.5, 0.125, 0.25}),
            qoe + 0.125 * 2.625 + 0.25 * 0.5625);
  EXPECT_EQ(core::cost_of(m, core::CostTerms{2.5, 0.0, 0.25}),
            qoe + 0.25 * 0.5625);
}

// -------------------------------------------------------------- config --

TEST(OffloadConfig, PlanTaskSharesIsGreedyMostExpensiveFirst) {
  const std::vector<double> expected = {10.0, 5.0, 20.0, 1.0};

  // Budget 0.5 * 4 = 2 full tasks: the two heaviest leave the device.
  std::vector<double> shares =
      offload::plan_task_shares(0.5, std::span<const double>(expected));
  ASSERT_EQ(shares.size(), expected.size());
  EXPECT_EQ(shares[2], 1.0);  // 20 ms: heaviest
  EXPECT_EQ(shares[0], 1.0);  // 10 ms: second
  EXPECT_EQ(shares[1], 0.0);
  EXPECT_EQ(shares[3], 0.0);

  // The fractional tail lands on exactly one task (the next heaviest).
  shares = offload::plan_task_shares(0.4, std::span<const double>(expected));
  EXPECT_EQ(shares[2], 1.0);
  EXPECT_NEAR(shares[0], 0.6, 1e-12);  // budget 1.6: 1.0 + 0.6
  EXPECT_EQ(shares[1], 0.0);
  double sum = 0.0;
  for (double s : shares) sum += s;
  EXPECT_NEAR(sum, 0.4 * 4, 1e-12);  // budget conserved

  // Out-of-range edge shares clamp instead of over-assigning.
  shares = offload::plan_task_shares(2.0, std::span<const double>(expected));
  for (double s : shares) EXPECT_EQ(s, 1.0);
  shares = offload::plan_task_shares(-0.5, std::span<const double>(expected));
  for (double s : shares) EXPECT_EQ(s, 0.0);

  EXPECT_TRUE(
      offload::plan_task_shares(0.5, std::span<const double>{}).empty());
}

TEST(FleetSpecOffload, ValidateRejectsUnsupportedCombinations) {
  fleet::FleetSpec spec;
  spec.offload.enabled = true;

  // No edge service: nothing to offload to. The message names the fix.
  try {
    fleet::FleetSimulator fleet{spec};
    FAIL() << "expected validation to reject offload without an edge";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("use_edge_service"),
              std::string::npos);
  }

  // Edge but no power model: the radio energy has no battery to charge.
  spec.use_edge_service = true;
  spec.edge = edgesvc::edge_service_preset("lan");
  try {
    fleet::FleetSimulator fleet{spec};
    FAIL() << "expected validation to reject offload without a power model";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("use_power_model"),
              std::string::npos);
  }
  spec.use_power_model = true;
  EXPECT_NO_THROW(fleet::FleetSimulator{spec});

  // The JointAllocator's decided background does not model offload
  // traffic: the combination is rejected, not silently mispriced.
  spec.market.enabled = true;
  EXPECT_THROW(fleet::FleetSimulator{spec}, Error);
  spec.market.enabled = false;

  // The LinUCB arm grid spans the 3-target simplex only.
  spec.policy.mode = fleet::PolicyMode::Bandit;
  EXPECT_THROW(fleet::FleetSimulator{spec}, Error);
  spec.policy.mode = fleet::PolicyMode::Off;

  EXPECT_NO_THROW(fleet::FleetSimulator{spec});
}

// ------------------------------------------------------------- edgesvc --

TEST(EdgeAiInference, ServerServesTheNewClassAtEdgeSpeed) {
  edgesvc::EdgeServiceSpec svc = edgesvc::edge_service_preset("lan");
  edgesvc::EdgeClient client = make_edge_client(svc, 0xA11);

  const edgesvc::EdgeResponse r = client.perform(
      edgesvc::RequestClass::AiInference, /*units=*/30.0,
      /*payload_bytes=*/24 * 1024, /*now_s=*/0.0);
  EXPECT_TRUE(r.ok);
  EXPECT_GT(r.elapsed_s, 0.0);
  // 30 device-ms at 0.25 ms/unit is 7.5 ms of core time — the edge
  // speedup is what makes offload worth the radio round trip.
  EXPECT_LT(r.elapsed_s, 1.0);
  EXPECT_DOUBLE_EQ(
      svc.server.service_seconds(edgesvc::RequestClass::AiInference, 30.0),
      0.0075);
}

TEST(EdgeAiInference, ResolutionKnobScalesAiPayloadQuadratically) {
  edgesvc::EdgeServiceSpec svc = edgesvc::edge_service_preset("lan");
  edgesvc::EdgeClient client = make_edge_client(svc, 0xA12);

  ASSERT_TRUE(client
                  .perform(edgesvc::RequestClass::AiInference, 30.0, 40000,
                           0.0)
                  .ok);
  const std::uint64_t full = client.stats().payload_bytes;
  EXPECT_EQ(full, 40000u);

  // A market-trimmed tenant uploads smaller frames: r^2 payload scaling
  // covers AiInference exactly like the mesh-bearing classes.
  client.set_resolution(0.5);
  ASSERT_TRUE(client
                  .perform(edgesvc::RequestClass::AiInference, 30.0, 40000,
                           1.0)
                  .ok);
  EXPECT_EQ(client.stats().payload_bytes - full, 10000u);
}

// --------------------------------------------------------------- power --

TEST(PowerOffload, ExternalEnergyDrainsTheBatteryAndShowsInStats) {
  app::MarAppConfig cfg;
  cfg.enable_power = true;
  cfg.power.ambient_sigma_c = 0.0;
  auto app = light_app(0xE4E, cfg);
  power::PowerManager* pm = app->power();
  ASSERT_NE(pm, nullptr);

  const double soc0 = pm->battery_soc();
  pm->add_external_energy_j(50.0);
  EXPECT_LT(pm->battery_soc(), soc0);
  EXPECT_EQ(pm->external_energy_j(), 50.0);
  EXPECT_EQ(pm->stats().external_energy_j, 50.0);

  pm->add_external_energy_j(0.0);  // no-op, not an error
  EXPECT_EQ(pm->external_energy_j(), 50.0);
  EXPECT_THROW(pm->add_external_energy_j(-1.0), Error);
}

// -------------------------------------------------------------- engine --

TEST(EngineOffload, FullShareRoutesEveryInferenceRemote) {
  auto app = light_app(7);
  std::uint64_t calls = 0;
  app->set_remote_executor([&calls](const ai::AiTask&, double demand_s) {
    EXPECT_GT(demand_s, 0.0);
    ++calls;
    return ai::RemoteResult{true, 0.004};
  });
  app->start();
  app->apply_offload_shares({1.0, 1.0, 1.0});  // CF2: three tasks
  for (int i = 0; i < 5; ++i) app->run_period(1.0);

  const ai::InferenceEngine& eng = app->engine();
  EXPECT_GT(eng.completed_inferences(), 0u);
  EXPECT_EQ(eng.remote_inferences(), eng.completed_inferences());
  EXPECT_EQ(eng.remote_attempts(), calls);
  EXPECT_EQ(eng.remote_fallbacks(), 0u);
  EXPECT_NEAR(app->offload_share_stat().mean(), 1.0, 1e-12);
}

TEST(EngineOffload, HalfShareAlternatesViaTheCarryAccumulator) {
  auto app = light_app(9);
  app->set_remote_executor([](const ai::AiTask&, double) {
    return ai::RemoteResult{true, 0.004};
  });
  app->start();
  app->apply_offload_shares({0.5, 0.5, 0.5});
  for (int i = 0; i < 6; ++i) app->run_period(1.0);

  // Carry routing sends exactly every second inference of each task: the
  // totals can differ from completed/2 by at most one in-flight inference
  // per task, never by drift.
  const ai::InferenceEngine& eng = app->engine();
  ASSERT_GT(eng.completed_inferences(), 6u);
  EXPECT_LE(2 * eng.remote_inferences(), eng.completed_inferences() + 3);
  EXPECT_GE(2 * eng.remote_inferences(), eng.completed_inferences() - 3);
}

TEST(EngineOffload, FailedExchangeChargesElapsedThenFallsBackLocally) {
  auto app = light_app(11);
  app->set_remote_executor([](const ai::AiTask&, double) {
    return ai::RemoteResult{false, 0.05};  // the timeout really happened
  });
  app->start();
  app->apply_offload_shares({1.0, 1.0, 1.0});
  for (int i = 0; i < 5; ++i) app->run_period(1.0);

  const ai::InferenceEngine& eng = app->engine();
  EXPECT_GT(eng.completed_inferences(), 0u);
  EXPECT_EQ(eng.remote_inferences(), 0u);  // nothing finished remotely
  EXPECT_GT(eng.remote_attempts(), 0u);
  EXPECT_EQ(eng.remote_fallbacks(), eng.remote_attempts());
}

TEST(EngineOffload, InstalledExecutorWithZeroSharesIsBitwiseNeutral) {
  auto plain = light_app(13);
  auto wired = light_app(13);
  std::uint64_t calls = 0;
  wired->set_remote_executor([&calls](const ai::AiTask&, double) {
    ++calls;
    return ai::RemoteResult{true, 0.001};
  });
  plain->start();
  wired->start();
  for (int i = 0; i < 8; ++i) {
    const app::PeriodMetrics a = plain->run_period(1.0);
    const app::PeriodMetrics b = wired->run_period(1.0);
    EXPECT_EQ(a.average_quality, b.average_quality) << "period " << i;
    EXPECT_EQ(a.latency_ratio, b.latency_ratio) << "period " << i;
    EXPECT_EQ(a.inference_count, b.inference_count) << "period " << i;
  }
  EXPECT_EQ(calls, 0u);  // zero shares never consult the executor
}

// ---------------------------------------------------------- controller --

core::HboConfig fast_hbo() {
  core::HboConfig cfg;
  cfg.n_initial = 2;
  cfg.n_iterations = 2;
  cfg.selection_candidates = 1;
  cfg.control_period_s = 1.0;
  cfg.monitor_period_s = 1.0;
  return cfg;
}

TEST(HboControllerOffload, GrowsTheSimplexAndPlansPerTaskShares) {
  auto app = light_app(3);
  core::HboConfig cfg = fast_hbo();
  cfg.offload.enabled = true;
  core::HboController ctrl(*app, cfg);
  EXPECT_EQ(ctrl.config_dim(),
            static_cast<std::size_t>(soc::kNumDelegates) + 2);

  const core::ActivationResult res = ctrl.run_activation();
  ASSERT_FALSE(res.history.empty());
  for (const core::IterationRecord& r : res.history) {
    EXPECT_EQ(r.z.size(), ctrl.config_dim());
    EXPECT_GE(r.edge_share, 0.0);
    EXPECT_LE(r.edge_share, 1.0);
    EXPECT_EQ(r.offload_shares.size(), app->tasks().size());
    // The on-device remainder is renormalized back onto the 3-simplex
    // for the unchanged heuristic allocator.
    ASSERT_EQ(r.usage.size(), static_cast<std::size_t>(soc::kNumDelegates));
    double sum = 0.0;
    for (double c : r.usage) sum += c;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }

  // Configurations from the other decision space are rejected loudly.
  const std::vector<double> z3(static_cast<std::size_t>(soc::kNumDelegates) +
                                   1,
                               0.25);
  EXPECT_THROW(ctrl.apply_configuration(z3), Error);
}

TEST(HboControllerOffload, MaxEdgeShareCapsTheSampledCoordinate) {
  auto app = light_app(4);
  core::HboConfig cfg = fast_hbo();
  cfg.offload.enabled = true;
  core::HboController ctrl(*app, cfg);
  const core::ActivationResult res = ctrl.run_activation();
  for (const core::IterationRecord& r : res.history)
    EXPECT_LE(r.edge_share, offload::OffloadConfig::max_edge_share);
}

TEST(HboControllerOffload, SubThresholdEdgeShareSnapsToZero) {
  auto app = light_app(6);
  core::HboConfig cfg = fast_hbo();
  cfg.offload.enabled = true;
  core::HboController ctrl(*app, cfg);

  // A z whose edge coordinate lands under the threshold: the all-local
  // corner must be *reachable*, so the plan disables offload outright.
  std::vector<double> z(ctrl.config_dim(), 0.0);
  z[0] = 0.48;
  z[1] = 0.48;
  z[2] = 0.0;
  z[3] = 0.04;  // edge coordinate, below min_edge_share (0.05)
  z.back() = 0.8;
  core::IterationRecord rec = ctrl.apply_configuration(z);
  EXPECT_EQ(rec.edge_share, 0.0);
  for (const double s : rec.offload_shares) EXPECT_EQ(s, 0.0);

  // At or above the threshold the coordinate passes through untouched.
  z[3] = 0.2;
  z[0] = 0.4;
  rec = ctrl.apply_configuration(z);
  EXPECT_DOUBLE_EQ(rec.edge_share, 0.2);
}

TEST(HboControllerOffload, DisabledKeepsTheThreeTargetSpace) {
  auto app = light_app(5);
  core::HboController ctrl(*app, fast_hbo());
  EXPECT_EQ(ctrl.config_dim(),
            static_cast<std::size_t>(soc::kNumDelegates) + 1);
  const core::ActivationResult res = ctrl.run_activation();
  for (const core::IterationRecord& r : res.history) {
    EXPECT_EQ(r.z.size(), ctrl.config_dim());
    EXPECT_EQ(r.edge_share, 0.0);
    EXPECT_TRUE(r.offload_shares.empty());
  }
  const std::vector<double> z4(static_cast<std::size_t>(soc::kNumDelegates) +
                                   2,
                               0.2);
  EXPECT_THROW(ctrl.apply_configuration(z4), Error);
}

/// A minimal prior pinned to a fixed dimension, to exercise the guard.
class FixedDimPrior : public bo::SurrogatePrior {
 public:
  explicit FixedDimPrior(std::size_t dim) : dim_(dim) {}
  void mean_many(std::span<const double>, std::size_t count,
                 std::span<double> out) const override {
    std::fill_n(out.begin(), count, -0.5);
  }
  std::size_t dim() const override { return dim_; }

 private:
  std::size_t dim_;
};

TEST(HboControllerOffload, DimensionMismatchedPriorsAreDropped) {
  auto app = light_app(6);
  core::HboConfig cfg = fast_hbo();
  cfg.offload.enabled = true;  // search dim = kNumDelegates + 2
  core::HboController ctrl(*app, cfg);

  // A prior fitted in the 3-target space must not be evaluated out of
  // domain: the activation runs flat instead of crashing or skewing.
  ctrl.set_surrogate_prior(std::make_shared<FixedDimPrior>(
      static_cast<std::size_t>(soc::kNumDelegates) + 1));
  EXPECT_NO_THROW(ctrl.run_activation());

  // Matching and dimension-agnostic priors pass through.
  ctrl.set_surrogate_prior(std::make_shared<FixedDimPrior>(
      static_cast<std::size_t>(soc::kNumDelegates) + 2));
  EXPECT_NO_THROW(ctrl.run_activation());
  ctrl.set_surrogate_prior(std::make_shared<FixedDimPrior>(0));
  EXPECT_NO_THROW(ctrl.run_activation());
}

TEST(MonitoredSessionOffload, WrongDimensionStoreHitsAreMisses) {
  auto app = light_app(8);
  core::MonitoredSessionConfig cfg;
  cfg.hbo = fast_hbo();
  cfg.reference_periods = 2;
  cfg.use_lookup_table = true;
  core::MonitoredSession session(*app, cfg);

  // A store polluted with 4-target solutions (one extra coordinate) must
  // read as a miss in this 3-target session — applying the z would throw.
  std::size_t fetches = 0;
  core::SolutionStoreHooks hooks;
  hooks.fetch = [&fetches](const core::EnvironmentKey&)
      -> std::optional<core::StoredSolution> {
    ++fetches;
    return core::StoredSolution{
        std::vector<double>(static_cast<std::size_t>(soc::kNumDelegates) + 2,
                            0.2),
        -0.9};
  };
  session.set_solution_store(std::move(hooks));
  session.run_until(14.0);

  EXPECT_GT(fetches, 0u);
  for (const core::SessionActivation& a : session.activations())
    EXPECT_FALSE(a.from_shared_store);
}

// ------------------------------------------------------------ executor --

TEST(OffloadExecutor, ChargesRadioEnergyForTheFullExchange) {
  app::MarAppConfig acfg;
  acfg.enable_power = true;
  acfg.power.ambient_sigma_c = 0.0;
  auto app = light_app(0x0FF, acfg);

  edgesvc::EdgeServiceSpec svc = edgesvc::edge_service_preset("lan");
  edgesvc::EdgeClient client = make_edge_client(svc, 0x0FF);

  offload::OffloadConfig ocfg;
  ocfg.enabled = true;
  offload::OffloadExecutor exec(ocfg, client, app->sim(), app->power());
  app->set_remote_executor(exec.executor());
  app->start();
  app->apply_offload_shares({1.0, 1.0, 1.0});
  for (int i = 0; i < 5; ++i) app->run_period(1.0);

  const offload::OffloadStats& st = exec.stats();
  EXPECT_GT(st.exchanges, 0u);
  EXPECT_GT(st.successes, 0u);
  EXPECT_GT(st.edge_elapsed_s, 0.0);
  EXPECT_GT(st.radio_energy_j, 0.0);
  // Every tracked joule landed on the battery, bit for bit.
  EXPECT_EQ(app->power()->external_energy_j(), st.radio_energy_j);
  EXPECT_EQ(st.exchanges, app->engine().remote_attempts());
}

/// An uncontended, loss-free, jitter-free client of the lan box.
edgesvc::EdgeClient quiet_lan_client(const edgesvc::EdgeServiceSpec& svc,
                                     std::uint64_t seed) {
  return edgesvc::EdgeClient(svc.client, svc.server, svc.background,
                             /*background_tenants=*/0, svc.link,
                             /*tenant=*/0, seed);
}

TEST(OffloadExecutor, ChargesTxPowerOnAirAndIdlePowerWhileWaiting) {
  auto app = light_app(0x0F1);
  const edgesvc::EdgeServiceSpec svc = edgesvc::edge_service_preset("lan");
  edgesvc::EdgeClient client = quiet_lan_client(svc, 0x0F1);
  offload::OffloadConfig ocfg;
  ocfg.enabled = true;
  offload::OffloadExecutor exec(ocfg, client, app->sim());

  // A 30 ms inference posts 30 units, one per device-millisecond, and
  // gets the 24 KiB response back.
  const ai::RemoteResult r = exec.execute(ai::AiTask{}, 0.030);
  ASSERT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(client.stats().units, 30.0);
  EXPECT_EQ(client.stats().payload_bytes, 24u * 1024u);
  // The server computes for 30 x 0.25 ms while the radio idle-listens at
  // 0.12 W, then the response is on the air at 0.8 W for the link's
  // nominal time.
  const double service_s = 0.0075;
  const double on_air_s =
      edgesvc::LinkModel(svc.link).nominal_seconds(24 * 1024);
  EXPECT_NEAR(r.elapsed_s, service_s + on_air_s, 1e-12);
  EXPECT_NEAR(exec.stats().radio_energy_j,
              0.8 * on_air_s + 0.12 * service_s, 1e-12);
}

TEST(OffloadExecutor, GivesUpAfterOneAttemptAtTheFrameDeadline) {
  auto app = light_app(0x0F2);
  edgesvc::EdgeServiceSpec svc = edgesvc::edge_service_preset("lan");
  svc.link.loss_good = 1.0;  // every response is lost
  edgesvc::EdgeClient client = quiet_lan_client(svc, 0x0F2);
  offload::OffloadConfig ocfg;
  ocfg.enabled = true;
  offload::OffloadExecutor exec(ocfg, client, app->sim());

  const ai::RemoteResult r = exec.execute(ai::AiTask{}, 0.030);
  EXPECT_FALSE(r.ok);
  // One attempt, not the client's three, abandoned at the 0.25 s frame
  // deadline rather than the client's 1.5 s patience.
  EXPECT_EQ(r.elapsed_s, 0.25);
  EXPECT_EQ(client.stats().lost_attempts, 1u);
  EXPECT_EQ(client.stats().retries, 0u);
  EXPECT_EQ(client.stats().fallbacks, 1u);
  EXPECT_EQ(exec.stats().failures, 1u);
  // Nothing reached the device, but the radio listened the whole time.
  EXPECT_NEAR(exec.stats().radio_energy_j, 0.12 * 0.25, 1e-15);
}

// Satellite: DVFS throttling mid-session while offloaded inferences are
// in flight. Offloaded exchanges resolve against the mirror and schedule
// plain timer events — a governor rescale of the SoC's PS resources must
// neither corrupt them nor break run-to-run determinism.
TEST(OffloadExecutor, DvfsThrottlingMidSessionStaysDeterministic) {
  struct Outcome {
    std::uint64_t remote = 0;
    std::uint64_t completed = 0;
    std::uint64_t throttles = 0;
    double quality = 0.0;
    double soc = 0.0;
    double radio_j = 0.0;
  };
  auto run_once = []() {
    app::MarAppConfig acfg;
    acfg.enable_power = true;
    acfg.power.ambient_c = 26.0;
    acfg.power.ambient_sigma_c = 0.0;  // bit-reproducible run to run
    acfg.power.initial_temp_c = 58.0;  // warm die: throttles inside the run
    auto app = scenario::make_app(soc::find_builtin("Galaxy S22"),
                                  scenario::ObjectSet::ThermalSoak,
                                  scenario::TaskSet::CF1, 0xD4F5, acfg);

    edgesvc::EdgeServiceSpec svc = edgesvc::edge_service_preset("wifi");
    edgesvc::EdgeClient client = make_edge_client(svc, 0xD4F5);
    offload::OffloadConfig ocfg;
    ocfg.enabled = true;
    offload::OffloadExecutor exec(ocfg, client, app->sim(), app->power());
    app->set_remote_executor(exec.executor());
    app->start();
    app->apply_offload_shares(
        std::vector<double>(app->tasks().size(), 0.5));
    double quality = 0.0;
    const int periods = 40;
    for (int i = 0; i < periods; ++i)
      quality += app->run_period(2.0).average_quality / periods;

    Outcome out;
    out.remote = app->engine().remote_inferences();
    out.completed = app->engine().completed_inferences();
    out.throttles = app->power()->stats().throttle_events;
    out.quality = quality;
    out.soc = app->power()->battery_soc();
    out.radio_j = exec.stats().radio_energy_j;
    return out;
  };

  const Outcome a = run_once();
  const Outcome b = run_once();

  // The scenario actually exercised the interaction under test.
  EXPECT_GT(a.throttles, 0u);
  EXPECT_GT(a.remote, 0u);
  EXPECT_GT(a.completed, a.remote);  // a 0.5 share keeps both paths live
  EXPECT_GT(a.radio_j, 0.0);

  // And it is bitwise repeatable, throttling and offload interleaved.
  EXPECT_EQ(a.remote, b.remote);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.throttles, b.throttles);
  EXPECT_EQ(a.quality, b.quality);
  EXPECT_EQ(a.soc, b.soc);
  EXPECT_EQ(a.radio_j, b.radio_j);
}

// --------------------------------------------------------------- fleet --

fleet::FleetSpec offload_fleet(std::size_t sessions, std::size_t threads) {
  fleet::FleetSpec spec;
  spec.sessions = sessions;
  spec.threads = threads;
  spec.duration_s = 14.0;
  spec.session.hbo = fast_hbo();
  spec.session.reference_periods = 2;
  spec.scenarios = {{scenario::ObjectSet::SC2, scenario::TaskSet::CF2, 1.0}};
  spec.use_edge_service = true;
  spec.edge = edgesvc::edge_service_preset("lan");
  spec.use_power_model = true;
  spec.offload.enabled = true;
  spec.session.hbo.w_energy = 0.05;
  return spec;
}

TEST(FleetOffload, EnabledFleetIsThreadCountInvariant) {
  const std::size_t kSessions = 16;
  fleet::FleetResult serial =
      fleet::FleetSimulator(offload_fleet(kSessions, 1)).run();
  fleet::FleetResult threaded =
      fleet::FleetSimulator(offload_fleet(kSessions, 4)).run();

  ASSERT_EQ(serial.sessions.size(), kSessions);
  ASSERT_EQ(threaded.sessions.size(), kSessions);
  std::uint64_t total_remote = 0;
  for (std::size_t i = 0; i < kSessions; ++i) {
    const fleet::SessionResult& a = serial.sessions[i];
    const fleet::SessionResult& b = threaded.sessions[i];
    EXPECT_TRUE(a.offload_session);
    // Bit-identical trajectories *including* the offload/energy surface.
    EXPECT_EQ(a.mean_quality, b.mean_quality) << "session " << i;
    EXPECT_EQ(a.mean_reward, b.mean_reward) << "session " << i;
    EXPECT_EQ(a.offload_remote, b.offload_remote) << "session " << i;
    EXPECT_EQ(a.offload_completed, b.offload_completed) << "session " << i;
    EXPECT_EQ(a.offload_fallbacks, b.offload_fallbacks) << "session " << i;
    EXPECT_EQ(a.mean_edge_share, b.mean_edge_share) << "session " << i;
    EXPECT_EQ(a.radio_energy_j, b.radio_energy_j) << "session " << i;
    EXPECT_EQ(a.energy_j, b.energy_j) << "session " << i;
    total_remote += a.offload_remote;
  }
  // The invariance only means something if offload actually happened.
  EXPECT_GT(total_remote, 0u);
  EXPECT_TRUE(serial.metrics.offload.enabled);
  EXPECT_GT(serial.metrics.offload.remote_inferences, 0u);
  EXPECT_GT(serial.metrics.offload.offload_rate, 0.0);
  EXPECT_GT(serial.metrics.offload.edge_share.mean, 0.0);
}

TEST(FleetOffload, DisabledFleetRoutesNothingToTheEdge) {
  // With enabled == false no session builds an executor: nothing is
  // routed, no radio energy is charged, and the roll-up says so.
  fleet::FleetSpec spec = offload_fleet(8, 2);
  spec.offload = offload::OffloadConfig{};  // disabled
  spec.session.hbo.w_energy = 0.0;
  fleet::FleetResult a = fleet::FleetSimulator(spec).run();
  ASSERT_EQ(a.sessions.size(), 8u);
  for (const fleet::SessionResult& s : a.sessions) {
    EXPECT_FALSE(s.offload_session);
    EXPECT_EQ(s.offload_remote, 0u);
    EXPECT_EQ(s.radio_energy_j, 0.0);
    EXPECT_EQ(s.mean_edge_share, 0.0);
  }
  EXPECT_FALSE(a.metrics.offload.enabled);
}

}  // namespace
}  // namespace hbosim
