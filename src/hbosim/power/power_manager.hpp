#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "hbosim/common/rng.hpp"
#include "hbosim/des/simulator.hpp"
#include "hbosim/power/battery.hpp"
#include "hbosim/power/governor.hpp"
#include "hbosim/power/power_model.hpp"
#include "hbosim/power/thermal.hpp"
#include "hbosim/soc/device.hpp"

/// \file power_manager.hpp
/// The DES-coupled orchestrator that closes the power/thermal feedback
/// loop. A PowerManager schedules a fixed-interval tick on the session's
/// Simulator; each tick it
///
///   1. settles every SoC unit's progress and samples its utilization over
///      the elapsed interval (completed virtual work / (dt * capacity),
///      plus the render background share),
///   2. converts utilization into watts through the per-unit power model
///      (static leakage + dynamic CV^2 f term at the current OPP),
///   3. steps the lumped RC thermal model and the battery integrator,
///   4. consults the hysteresis governor and — only when the OPP actually
///      changes — rescales each PsResource's capacity and per-job rate cap,
///      which stretches or shrinks every in-flight AI/render job.
///
/// That last step is what the rest of hbosim observes: a hotter die lowers
/// clocks, inference and render phases take longer, the monitored ε/δ
/// degrade, and HBO responds by re-allocating tasks or dropping triangles.
///
/// Determinism: ticks consume Simulator EventIds but, while the governor
/// holds the nominal OPP, never cancel or reschedule anyone else's events
/// (utilization sampling uses the pure read settled_work_done() and
/// set_capacity with an unchanged value is a strict no-op). Per-session runs with the governor disabled —
/// or simply never hot enough to throttle — therefore produce job
/// completion times bitwise identical to a power-enabled run, and
/// power-enabled fleets stay thread-count invariant because each session
/// owns its PowerManager and derives its ambient-noise Rng from the
/// session seed.

namespace hbosim::power {

/// Knobs for one session's power simulation.
struct PowerConfig {
  /// Thermal/battery sampling interval (simulated seconds). The RC step is
  /// exact for constant power, so the tick only bounds how stale the
  /// sampled utilization and governor decisions can be.
  static constexpr double tick_s = 0.1;

  /// Mean ambient temperature and the OU noise around it. sigma == 0
  /// gives a constant ambient (useful for bit-exact regression tests).
  double ambient_c = 25.0;
  double ambient_sigma_c = 0.5;
  static constexpr double ambient_theta = 0.02;  ///< OU mean-reversion (1/s).

  static constexpr double initial_soc = 1.0;
  std::uint64_t seed = 0x9E3779B97F4A7C15ull;

  /// Starting die temperature; negative means "use the device model's
  /// init_temp_c". Useful to model a device that is already warm from
  /// prior use — short sessions then reach the throttle band within
  /// seconds instead of needing a full RC climb from cold.
  double initial_temp_c = -1.0;

  /// Governor override thresholds; negative means "use the device
  /// model's defaults". Setting throttle above any reachable temperature
  /// effectively disables throttling while keeping power/battery metrics.
  double throttle_temp_c = -1.0;
  double release_temp_c = -1.0;

  void validate() const;
};

/// Roll-up of one session's power/thermal history.
struct PowerStats {
  double energy_j = 0.0;         ///< Total battery draw (die + system base).
  double mean_power_w = 0.0;     ///< energy_j / elapsed_s.
  double max_die_temp_c = 0.0;
  double final_die_temp_c = 0.0;
  std::uint64_t throttle_events = 0;  ///< Governor down-steps.
  double time_throttled_s = 0.0;      ///< Sim-time spent below nominal OPP.
  double min_freq_scale = 1.0;        ///< Deepest OPP reached.
  double battery_soc = 1.0;           ///< Remaining charge at roll-up time.
  double drain_pct_per_hour = 0.0;    ///< Projected from mean power.
  double elapsed_s = 0.0;             ///< Sim-time covered by ticks.
  /// Subset of energy_j charged through add_external_energy_j (radio
  /// transmissions of offloaded inferences, etc.).
  double external_energy_j = 0.0;
};

class PowerManager {
 public:
  /// Attaches to `soc`'s resources and self-schedules the first tick.
  /// `model` must validate() and should match the SocRuntime's device.
  PowerManager(des::Simulator& sim, soc::SocRuntime& soc,
               DevicePowerModel model, PowerConfig cfg);
  ~PowerManager();

  PowerManager(const PowerManager&) = delete;
  PowerManager& operator=(const PowerManager&) = delete;

  /// Stop ticking (cancels the pending tick event). Idempotent.
  void stop();

  double die_temp_c() const { return thermal_.temp_c(); }
  double freq_scale() const { return governor_.opp().freq_scale; }
  bool throttled() const { return governor_.throttled(); }
  double battery_soc() const { return battery_.soc(); }
  double total_energy_j() const { return battery_.energy_drawn_j(); }

  /// Charge `j` joules of off-die consumption (e.g. the radio energy of
  /// an offloaded inference exchange, see hbosim::offload) straight to
  /// the battery reservoir. Bypasses the thermal model — the antenna
  /// does not heat the die — but flows into energy_j / mean_power_w and
  /// therefore into the w_energy joint cost. No-op at j == 0.
  void add_external_energy_j(double j);
  double external_energy_j() const { return external_energy_j_; }

  const DevicePowerModel& model() const { return model_; }
  const PowerConfig& config() const { return cfg_; }

  /// Stats up to the last completed tick.
  PowerStats stats() const;

 private:
  void tick();
  /// Rescale every unit's PsResource to the governor's current OPP.
  void apply_opp();

  des::Simulator& sim_;
  soc::SocRuntime& soc_;
  DevicePowerModel model_;
  PowerConfig cfg_;

  ThermalModel thermal_;
  ThrottleGovernor governor_;
  Battery battery_;
  Rng rng_;

  double ambient_c_;
  /// work_done() snapshot per unit at the previous tick.
  std::array<double, 3> last_work_{};
  /// Nominal (unthrottled) capacity / rate cap per unit, captured at
  /// attach time so repeated rescales never compound.
  std::array<double, 3> nominal_capacity_{};
  std::array<double, 3> nominal_rate_{};

  SimTime last_tick_ = 0.0;
  des::EventId pending_tick_ = 0;
  bool stopped_ = false;
  double external_energy_j_ = 0.0;

  // Rolling stats.
  double max_temp_c_;
  double min_freq_scale_ = 1.0;
  double time_throttled_s_ = 0.0;
  double elapsed_s_ = 0.0;
  SimTime throttle_span_begin_ = 0.0;  ///< Start of current throttled span.

  // Interned telemetry names (per-session suffix keeps fleet traces apart).
  const char* telem_temp_;
  const char* telem_freq_;
  const char* telem_power_;
};

}  // namespace hbosim::power
