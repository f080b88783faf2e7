#include "hbosim/power/power_manager.hpp"

#include <algorithm>
#include <cmath>

#include "hbosim/common/error.hpp"
#include "hbosim/telemetry/telemetry.hpp"

namespace hbosim::power {

namespace {

constexpr std::array<soc::Unit, 3> kUnits = {soc::Unit::Cpu, soc::Unit::Gpu,
                                             soc::Unit::Npu};

GovernorSpec effective_governor(const DevicePowerModel& model,
                                const PowerConfig& cfg) {
  GovernorSpec g = model.governor;
  if (cfg.throttle_temp_c >= 0.0) g.throttle_temp_c = cfg.throttle_temp_c;
  if (cfg.release_temp_c >= 0.0) g.release_temp_c = cfg.release_temp_c;
  return g;
}

}  // namespace

void PowerConfig::validate() const {
  HB_REQUIRE(ambient_sigma_c >= 0.0, "ambient sigma must be non-negative");
  if (throttle_temp_c >= 0.0 && release_temp_c >= 0.0) {
    HB_REQUIRE(release_temp_c < throttle_temp_c,
               "release threshold must sit below the throttle threshold");
  }
}

PowerManager::PowerManager(des::Simulator& sim, soc::SocRuntime& soc,
                           DevicePowerModel model, PowerConfig cfg)
    : sim_(sim),
      soc_(soc),
      model_(std::move(model)),
      cfg_(cfg),
      thermal_(model_.thermal),
      governor_(effective_governor(model_, cfg_)),
      battery_(model_.battery, cfg_.initial_soc),
      rng_(cfg_.seed),
      ambient_c_(cfg_.ambient_c),
      max_temp_c_(model_.thermal.init_temp_c) {
  cfg_.validate();
  model_.validate();
  if (cfg_.initial_temp_c >= 0.0) {
    thermal_.reset(cfg_.initial_temp_c);
    max_temp_c_ = cfg_.initial_temp_c;
  }
  for (std::size_t i = 0; i < kUnits.size(); ++i) {
    const des::PsResource& r = soc_.unit(kUnits[i]);
    nominal_capacity_[i] = r.capacity();
    nominal_rate_[i] = r.max_rate_per_job();
    last_work_[i] = r.settled_work_done();
  }
  telem_temp_ = telemetry::intern("power." + model_.device + ".die_temp_c");
  telem_freq_ = telemetry::intern("power." + model_.device + ".freq_scale");
  telem_power_ = telemetry::intern("power." + model_.device + ".total_w");
  last_tick_ = sim_.now();
  pending_tick_ = sim_.schedule_after(cfg_.tick_s, [this] { tick(); });
}

PowerManager::~PowerManager() { stop(); }

void PowerManager::stop() {
  if (stopped_) return;
  stopped_ = true;
  if (pending_tick_ != 0) {
    sim_.cancel(pending_tick_);
    pending_tick_ = 0;
  }
}

void PowerManager::tick() {
  pending_tick_ = 0;
  const SimTime now = sim_.now();
  const double dt = now - last_tick_;
  last_tick_ = now;

  // 1. Sample utilization per unit over the elapsed interval. The AI share
  //    is the virtual work completed divided by what the unit could have
  //    done flat out; the render pipeline shows up as background share.
  double die_w = 0.0;
  const OppPoint& opp = governor_.opp();
  for (std::size_t i = 0; i < kUnits.size(); ++i) {
    des::PsResource& r = soc_.unit(kUnits[i]);
    // Pure read: sampling must not settle PS state, or the chunked
    // floating-point accumulation would nudge completion times and break
    // the bitwise no-throttle parity guarantee (see settled_work_done).
    const double work = r.settled_work_done();
    const double ai_util =
        dt > 0.0 ? (work - last_work_[i]) / (dt * r.capacity()) : 0.0;
    last_work_[i] = work;
    const double util =
        std::clamp(r.background_utilization() + ai_util, 0.0, 1.0);

    // 2. Per-unit watts at the current operating point: dynamic CV^2 f
    //    scaled by utilization, plus voltage- and temperature-dependent
    //    leakage (leakage grows with die temperature, which is what makes
    //    sustained heat self-reinforcing until the governor steps in).
    const UnitPowerModel& u = model_.unit(kUnits[i]);
    const double dynamic_w = u.dynamic_w * util * opp.freq_scale *
                             opp.voltage_scale * opp.voltage_scale;
    const double static_w =
        u.static_w * opp.voltage_scale *
        (1.0 + u.leak_per_c * (thermal_.temp_c() - 25.0));
    die_w += dynamic_w + static_w;
  }

  // 3. Ambient OU step, RC thermal step, battery integration.
  if (cfg_.ambient_sigma_c > 0.0) {
    ambient_c_ += cfg_.ambient_theta * (cfg_.ambient_c - ambient_c_) * dt +
                  cfg_.ambient_sigma_c *
                      std::sqrt(2.0 * cfg_.ambient_theta * dt) * rng_.normal();
  }
  thermal_.step(die_w, ambient_c_, dt);
  const double total_w = die_w + model_.battery.base_system_w;
  battery_.drain(total_w, dt);
  elapsed_s_ += dt;
  max_temp_c_ = std::max(max_temp_c_, thermal_.temp_c());
  if (governor_.throttled()) time_throttled_s_ += dt;

  if (telemetry::enabled()) {
    telemetry::counter("power", telem_temp_, thermal_.temp_c());
    telemetry::counter("power", telem_freq_, governor_.opp().freq_scale);
    telemetry::counter("power", telem_power_, total_w);
    HB_TELEM_COUNT("power.energy_j", total_w * dt);
  }

  // 4. Governor decision; only an actual OPP change touches the SoC.
  const bool was_throttled = governor_.throttled();
  if (governor_.update(thermal_.temp_c(), now)) {
    apply_opp();
    min_freq_scale_ = std::min(min_freq_scale_, governor_.opp().freq_scale);
    if (telemetry::enabled()) {
      telemetry::instant("power", governor_.throttled() && !was_throttled
                                      ? "power.throttle_begin"
                                      : "power.opp_step");
      if (!was_throttled && governor_.throttled()) {
        throttle_span_begin_ = now;
      } else if (was_throttled && !governor_.throttled()) {
        telemetry::sim_span("power", "throttled", throttle_span_begin_, now);
      }
    }
  }

  if (!stopped_) {
    pending_tick_ = sim_.schedule_after(cfg_.tick_s, [this] { tick(); });
  }
}

void PowerManager::apply_opp() {
  const double f = governor_.opp().freq_scale;
  for (std::size_t i = 0; i < kUnits.size(); ++i) {
    des::PsResource& r = soc_.unit(kUnits[i]);
    r.set_capacity(nominal_capacity_[i] * f);
    r.set_max_rate_per_job(nominal_rate_[i] * f);
  }
}

void PowerManager::add_external_energy_j(double j) {
  HB_REQUIRE(std::isfinite(j) && j >= 0.0,
             "external energy must be finite and >= 0");
  if (j == 0.0) return;
  battery_.drain(j, 1.0);  // withdraw exactly j joules
  external_energy_j_ += j;
}

PowerStats PowerManager::stats() const {
  PowerStats s;
  s.energy_j = battery_.energy_drawn_j();
  s.elapsed_s = elapsed_s_;
  s.mean_power_w = elapsed_s_ > 0.0 ? s.energy_j / elapsed_s_ : 0.0;
  s.max_die_temp_c = max_temp_c_;
  s.final_die_temp_c = thermal_.temp_c();
  s.throttle_events = governor_.throttle_events();
  s.time_throttled_s = time_throttled_s_;
  s.min_freq_scale = min_freq_scale_;
  s.battery_soc = battery_.soc();
  s.drain_pct_per_hour =
      s.mean_power_w / model_.battery.capacity_j * 3600.0 * 100.0;
  s.external_energy_j = external_energy_j_;
  return s;
}

}  // namespace hbosim::power
