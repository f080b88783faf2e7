// Tests for hbosim::power — the battery/thermal/DVFS subsystem. Unit-level
// checks of the thermal stepper, governor, battery, and model registry,
// plus the two whole-app guarantees the subsystem is built around: bitwise
// parity while the governor never acts, and measurable latency inflation
// once it does.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "hbosim/common/error.hpp"
#include "hbosim/power/battery.hpp"
#include "hbosim/power/governor.hpp"
#include "hbosim/power/power_manager.hpp"
#include "hbosim/power/thermal.hpp"
#include "hbosim/scenario/scenarios.hpp"
#include "hbosim/soc/devices_builtin.hpp"

namespace hbosim::power {
namespace {

// --- model registry --------------------------------------------------------

TEST(PowerModel, BuiltinsCoverEverySocDeviceAndValidate) {
  const std::vector<DevicePowerModel> models = builtin_power_models();
  EXPECT_EQ(models.size(), soc::builtin_devices().size());
  for (const DevicePowerModel& m : models) {
    EXPECT_NO_THROW(m.validate()) << m.device;
    // Keyed by the same names as the soc profiles.
    EXPECT_NO_THROW(soc::find_builtin(m.device));
  }
}

TEST(PowerModel, FindByNameAndUnknownThrowsNamingKnown) {
  EXPECT_EQ(find_power_model("Pixel 7").device, "Pixel 7");
  EXPECT_EQ(find_power_model("Galaxy S22").device, "Galaxy S22");
  try {
    find_power_model("Nokia 3310");
    FAIL() << "expected hbosim::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("Nokia 3310"), std::string::npos);
    EXPECT_NE(what.find("Pixel 7"), std::string::npos);
    EXPECT_NE(what.find("MidTier"), std::string::npos);
  }
}

TEST(PowerModel, ValidateRejectsNonsense) {
  const DevicePowerModel good = find_power_model("Pixel 7");
  {
    DevicePowerModel m = good;
    m.governor.opps.clear();
    EXPECT_THROW(m.validate(), Error);
  }
  {
    DevicePowerModel m = good;
    m.governor.opps.front().freq_scale = 0.9;  // OPP 0 must be nominal
    EXPECT_THROW(m.validate(), Error);
  }
  {
    DevicePowerModel m = good;
    m.governor.opps[2].freq_scale = 0.95;  // non-monotone ladder
    EXPECT_THROW(m.validate(), Error);
  }
  {
    DevicePowerModel m = good;
    m.governor.release_temp_c = m.governor.throttle_temp_c + 1.0;
    EXPECT_THROW(m.validate(), Error);
  }
  {
    DevicePowerModel m = good;
    m.thermal.c_j_per_c = 0.0;
    EXPECT_THROW(m.validate(), Error);
  }
  {
    DevicePowerModel m = good;
    m.cpu.dynamic_w = -1.0;
    EXPECT_THROW(m.validate(), Error);
  }
}

// --- thermal ---------------------------------------------------------------

TEST(Thermal, StepMatchesClosedFormExactly) {
  const ThermalSpec spec{10.0, 10.0, 30.0};  // tau = 100 s
  ThermalModel t(spec);
  const double p = 3.0, amb = 25.0, dt = 7.0;
  const double t_ss = amb + p * spec.r_c_per_w;  // 55 C
  const double expected = t_ss + (30.0 - t_ss) * std::exp(-dt / 100.0);
  t.step(p, amb, dt);
  EXPECT_DOUBLE_EQ(t.temp_c(), expected);
  EXPECT_DOUBLE_EQ(t.steady_state_c(p, amb), t_ss);
  EXPECT_DOUBLE_EQ(t.time_constant_s(), 100.0);
}

TEST(Thermal, ConvergesToSteadyStateFromEitherSide) {
  ThermalModel hot({10.0, 10.0, 80.0});
  ThermalModel cold({10.0, 10.0, 20.0});
  for (int i = 0; i < 20000; ++i) {  // 2000 s = 20 tau: residual ~ e^-20
    hot.step(3.0, 25.0, 0.1);
    cold.step(3.0, 25.0, 0.1);
  }
  EXPECT_NEAR(hot.temp_c(), 55.0, 1e-6);
  EXPECT_NEAR(cold.temp_c(), 55.0, 1e-6);
}

TEST(Thermal, HugeStepIsUnconditionallyStable) {
  // Forward Euler would explode with dt >> tau; the exact stepper just
  // lands on the steady state.
  ThermalModel t({10.0, 10.0, 30.0});
  t.step(3.0, 25.0, 1e6);
  EXPECT_NEAR(t.temp_c(), 55.0, 1e-9);
}

TEST(Thermal, NonPositiveRcThrows) {
  EXPECT_THROW(ThermalModel({0.0, 10.0, 30.0}), Error);
  EXPECT_THROW(ThermalModel({10.0, -1.0, 30.0}), Error);
}

// --- governor --------------------------------------------------------------

GovernorSpec three_step_spec() {
  GovernorSpec g;
  g.throttle_temp_c = 60.0;
  g.release_temp_c = 50.0;
  g.min_dwell_s = 1.0;
  g.opps = {{1.0, 1.0}, {0.8, 0.9}, {0.6, 0.8}};
  return g;
}

TEST(Governor, StepsDownOnThrottleAndUpOnRelease) {
  ThrottleGovernor g(three_step_spec());
  EXPECT_FALSE(g.throttled());
  EXPECT_TRUE(g.update(65.0, 0.0));  // hot: down to OPP 1
  EXPECT_EQ(g.opp_index(), 1);
  EXPECT_TRUE(g.throttled());
  EXPECT_DOUBLE_EQ(g.opp().freq_scale, 0.8);
  EXPECT_TRUE(g.update(65.0, 2.0));  // still hot: down to OPP 2
  EXPECT_EQ(g.opp_index(), 2);
  EXPECT_FALSE(g.update(65.0, 4.0));  // bottom of the ladder: stays
  EXPECT_EQ(g.throttle_events(), 2u);
  EXPECT_TRUE(g.update(45.0, 6.0));  // cool: back up
  EXPECT_TRUE(g.update(45.0, 8.0));
  EXPECT_EQ(g.opp_index(), 0);
  EXPECT_FALSE(g.throttled());
  EXPECT_EQ(g.throttle_events(), 2u);  // up-steps don't count
}

TEST(Governor, HysteresisBandHoldsTheCurrentOpp) {
  ThrottleGovernor g(three_step_spec());
  ASSERT_TRUE(g.update(61.0, 0.0));
  // 55 C sits between release (50) and throttle (60): no movement, ever.
  for (double t = 2.0; t < 20.0; t += 2.0) EXPECT_FALSE(g.update(55.0, t));
  EXPECT_EQ(g.opp_index(), 1);
}

TEST(Governor, DwellDebouncesConsecutiveSteps) {
  ThrottleGovernor g(three_step_spec());
  ASSERT_TRUE(g.update(65.0, 0.0));
  EXPECT_FALSE(g.update(65.0, 0.5));  // within min_dwell_s = 1.0
  EXPECT_FALSE(g.update(65.0, 0.99));
  EXPECT_TRUE(g.update(65.0, 1.01));  // dwell expired
  EXPECT_EQ(g.opp_index(), 2);
}

// --- battery ---------------------------------------------------------------

TEST(Battery, CoulombCountsAndClampsAtEmpty) {
  Battery b({100.0, 0.0}, 1.0);  // 100 J reservoir
  b.drain(5.0, 4.0);             // 20 J
  EXPECT_DOUBLE_EQ(b.soc(), 0.8);
  EXPECT_DOUBLE_EQ(b.energy_drawn_j(), 20.0);
  EXPECT_FALSE(b.empty());
  b.drain(100.0, 2.0);  // 200 J: past empty
  EXPECT_DOUBLE_EQ(b.soc(), 0.0);
  EXPECT_TRUE(b.empty());
  EXPECT_DOUBLE_EQ(b.energy_drawn_j(), 220.0);  // draw keeps counting
}

TEST(Battery, InitialSocRespected) {
  Battery b({1000.0, 0.0}, 0.25);
  EXPECT_DOUBLE_EQ(b.soc(), 0.25);
}

// --- config ----------------------------------------------------------------

TEST(PowerConfig, ValidateRejectsNonsense) {
  PowerConfig good;
  EXPECT_NO_THROW(good.validate());
  PowerConfig c = good;
  c.ambient_sigma_c = -0.5;
  EXPECT_THROW(c.validate(), Error);
  c = good;
  c.throttle_temp_c = 50.0;
  c.release_temp_c = 55.0;  // inverted override
  EXPECT_THROW(c.validate(), Error);
}

TEST(PowerManager, TicksEveryTenthOfASecondFromAFullBattery) {
  const soc::DeviceProfile device = soc::find_builtin("Pixel 7");
  des::Simulator sim;
  soc::SocRuntime soc(sim, device);
  PowerManager pm(sim, soc, find_power_model("Pixel 7"), PowerConfig{});
  EXPECT_EQ(pm.battery_soc(), 1.0);
  sim.run_until(1.05);  // ticks at 0.1, 0.2, ..., 1.0
  EXPECT_EQ(sim.events_executed(), 10u);
  EXPECT_LT(pm.battery_soc(), 1.0);  // an idle SoC still draws base power
  pm.stop();
}

// --- whole-app guarantees --------------------------------------------------

/// Per-period mean latency plus final sim-state fingerprint of a run.
std::vector<double> run_fingerprint(const app::MarAppConfig& cfg,
                                    int periods) {
  auto app = scenario::make_app(soc::find_builtin("Galaxy S22"),
                                scenario::ObjectSet::SC1,
                                scenario::TaskSet::CF1, /*seed=*/7, cfg);
  app->start();
  std::vector<double> out;
  for (int p = 0; p < periods; ++p)
    out.push_back(app->run_period(2.0).mean_task_latency_ms());
  return out;
}

TEST(PowerManager, NoThrottleRunIsBitwiseIdenticalToPowerOff) {
  app::MarAppConfig off;  // power disabled (the pre-subsystem behavior)

  app::MarAppConfig on;
  on.enable_power = true;
  on.power.ambient_sigma_c = 0.0;
  on.power.throttle_temp_c = 500.0;  // unreachable: governor never acts
  on.power.release_temp_c = 499.0;

  const std::vector<double> a = run_fingerprint(off, 8);
  const std::vector<double> b = run_fingerprint(on, 8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "period " << i;  // bitwise, not NEAR
  }
}

TEST(PowerManager, SustainedHeatThrottlesAndInflatesLatency) {
  app::MarAppConfig hot;
  hot.enable_power = true;
  hot.power.ambient_c = 26.0;
  hot.power.ambient_sigma_c = 0.0;
  hot.power.initial_temp_c = 60.0;  // just below the S22's 63 C threshold

  auto app = scenario::make_app(soc::find_builtin("Galaxy S22"),
                                scenario::ObjectSet::ThermalSoak,
                                scenario::TaskSet::CF1, /*seed=*/7, hot);
  app->start();
  double cool_ms = 0.0, hot_ms = 0.0;
  for (int p = 0; p < 4; ++p) cool_ms += app->run_period(2.0).mean_task_latency_ms();
  for (int p = 0; p < 16; ++p) app->run_period(2.0);
  for (int p = 0; p < 4; ++p) hot_ms += app->run_period(2.0).mean_task_latency_ms();

  const PowerStats s = app->power()->stats();
  EXPECT_GT(s.throttle_events, 0u);
  EXPECT_LT(s.min_freq_scale, 1.0);
  EXPECT_GT(s.time_throttled_s, 0.0);
  EXPECT_GT(hot_ms, cool_ms * 1.05);  // throttled clocks visibly hurt
  EXPECT_GT(s.max_die_temp_c, app->power()->model().governor.throttle_temp_c);
}

TEST(PowerManager, InitialTempOverrideAndStatsAreConsistent) {
  app::MarAppConfig cfg;
  cfg.enable_power = true;
  cfg.power.ambient_sigma_c = 0.0;
  cfg.power.initial_temp_c = 47.5;

  auto app = scenario::make_app(soc::find_builtin("Pixel 7"),
                                scenario::ObjectSet::SC2,
                                scenario::TaskSet::CF2, /*seed=*/7, cfg);
  EXPECT_DOUBLE_EQ(app->power()->die_temp_c(), 47.5);
  app->start();
  for (int p = 0; p < 5; ++p) app->run_period(2.0);
  const PowerStats s = app->power()->stats();
  EXPECT_GT(s.energy_j, 0.0);
  EXPECT_NEAR(s.mean_power_w * s.elapsed_s, s.energy_j, 1e-9);
  EXPECT_LT(s.battery_soc, 1.0);
  EXPECT_GE(s.max_die_temp_c, 47.5);
  EXPECT_EQ(s.throttle_events, 0u);  // light load stays nominal
}

TEST(PowerManager, DeterministicAcrossRepeatRuns) {
  // Same seed, OU ambient noise enabled: the full stats roll-up must be
  // bit-identical run to run (the Rng is owned per session).
  app::MarAppConfig cfg;
  cfg.enable_power = true;
  cfg.power.ambient_sigma_c = 0.5;
  cfg.power.seed = 1234;

  auto run = [&cfg] {
    auto app = scenario::make_app(soc::find_builtin("MidTier"),
                                  scenario::ObjectSet::SC1,
                                  scenario::TaskSet::CF1, /*seed=*/7, cfg);
    app->start();
    for (int p = 0; p < 6; ++p) app->run_period(2.0);
    return app->power()->stats();
  };
  const PowerStats a = run();
  const PowerStats b = run();
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.final_die_temp_c, b.final_die_temp_c);
  EXPECT_EQ(a.battery_soc, b.battery_soc);
}

}  // namespace
}  // namespace hbosim::power
