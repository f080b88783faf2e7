#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hbosim/ai/engine.hpp"
#include "hbosim/ai/profiler.hpp"
#include "hbosim/app/metrics.hpp"
#include "hbosim/des/simulator.hpp"
#include "hbosim/edge/decimation_service.hpp"
#include "hbosim/power/power_manager.hpp"
#include "hbosim/render/render_load.hpp"
#include "hbosim/render/scene.hpp"
#include "hbosim/soc/device.hpp"

/// \file mar_app.hpp
/// The example MAR application of Section V-A: one object composing the
/// whole simulated stack — SoC runtime, augmented scene with render-load
/// coupling, background AI taskset, and the edge decimation service — and
/// exposing exactly the control surface HBO (and the baselines) need:
/// apply an allocation, apply per-object triangle ratios, measure a control
/// period.

namespace hbosim::app {

struct MarAppConfig {
  ai::EngineConfig engine;

  /// Attach a power/thermal/DVFS model (hbosim::power) to the session,
  /// looked up by the device profile's name via power::find_power_model
  /// (which throws for devices without a builtin model). Off by default:
  /// with power disabled the app's event sequence is bitwise identical to
  /// builds that predate the power subsystem.
  bool enable_power = false;
  /// Tick/ambient/governor knobs; only read when enable_power is set.
  power::PowerConfig power;
};

class MarApp {
 public:
  /// The device profile is copied: a MarApp owns its device description,
  /// so callers may pass temporaries (e.g. `MarApp app(soc::pixel7())`).
  MarApp(const soc::DeviceProfile& device, MarAppConfig cfg = {});

  MarApp(const MarApp&) = delete;
  MarApp& operator=(const MarApp&) = delete;

  // --- composition access -------------------------------------------------
  des::Simulator& sim() { return sim_; }
  const soc::DeviceProfile& device() const { return device_; }
  soc::SocRuntime& soc() { return soc_; }
  render::Scene& scene() { return scene_; }
  ai::InferenceEngine& engine() { return engine_; }
  edge::DecimationService& decimation() { return decimation_; }
  const MarAppConfig& config() const { return cfg_; }

  /// The attached power manager, or nullptr when power is disabled.
  power::PowerManager* power() { return power_.get(); }
  const power::PowerManager* power() const { return power_.get(); }

  /// Route decimation cache misses through a contended edge service
  /// (edgesvc::EdgeClient), wired to this app's simulation clock. Pass
  /// nullptr to restore the closed-form link path. The client
  /// must outlive the app.
  void attach_edge(edgesvc::EdgeClient* client);

  // --- scene management ----------------------------------------------------
  /// Place an object at full quality; returns its id.
  ObjectId add_object(std::shared_ptr<const render::MeshAsset> asset,
                      double distance_m);
  void set_user_distance_scale(double scale);

  // --- taskset management --------------------------------------------------
  /// Add a background AI task starting on `delegate` (defaults to the
  /// statically best one). Labels must be unique.
  TaskId add_task(const std::string& model, const std::string& label,
                  std::optional<soc::Delegate> delegate = std::nullopt);

  /// Ordered task ids / model names, in creation order (HBO's task list).
  std::vector<TaskId> tasks() const { return task_order_; }
  std::vector<std::string> task_models() const;
  std::vector<std::string> task_labels() const;
  std::vector<soc::Delegate> current_allocation() const;

  /// Begin executing inference loops (idempotent).
  void start();

  // --- control surface (HBO / baselines) -----------------------------------
  /// Apply a per-task delegate assignment (ordered like tasks()).
  void apply_allocation(const std::vector<soc::Delegate>& delegates);

  /// Apply per-task edge shares (ordered like tasks()): the fraction of
  /// each task's inferences routed to the remote executor. Applied like
  /// an allocation — from each task's next inference. No-op semantics:
  /// all-zero shares leave the engine's behavior bitwise unchanged.
  void apply_offload_shares(const std::vector<double>& shares);

  /// Install the remote inference backend (hbosim::offload). Must be set
  /// before any nonzero share takes effect; shares without an executor
  /// silently run locally.
  void set_remote_executor(ai::InferenceEngine::RemoteExecutor exec);

  /// Mean-of-applied-means edge share across apply_offload_shares calls
  /// (the fleet's mean_edge_share roll-up source). Zero samples before
  /// the first call.
  const RunningStat& offload_share_stat() const {
    return offload_share_stat_;
  }

  /// Apply per-object decimation ratios (ordered like scene().object_ids()).
  /// Each version is requested from the decimation service; cache misses
  /// charge their download delay before the redraw takes effect.
  void apply_object_ratios(const std::vector<double>& ratios);

  /// Advance the simulation by `seconds` (> 0) while measuring, and
  /// return the period's metrics.
  PeriodMetrics run_period(double seconds);

  /// Isolation profiles (tau^e and the Table-I-style matrix) for the
  /// current taskset. Computed lazily, cached per model.
  const ai::ProfileTable& profiles();

  /// Expected latency tau^e (ms) for a task.
  double expected_ms(TaskId id);

  /// Instantaneous metrics snapshot without advancing time (uses the
  /// current measurement window; useful for activation monitoring).
  PeriodMetrics snapshot();

  /// Perceptual scale the market's resolution knob applies to reported
  /// quality (r^gamma, computed by the fleet from its allocation): a
  /// tenant rendering at reduced resolution perceives proportionally
  /// less of the scene's mesh quality. The default 1.0 multiplies
  /// quality by one, which is exact.
  void set_quality_scale(double scale);

 private:
  void ensure_profiles();

  MarAppConfig cfg_;
  const soc::DeviceProfile device_;  // owned copy; SocRuntime refers to it
  des::Simulator sim_;
  soc::SocRuntime soc_;
  render::Scene scene_;
  render::RenderLoadBinder render_binder_;
  ai::InferenceEngine engine_;
  edge::DecimationService decimation_;
  std::unique_ptr<power::PowerManager> power_;
  std::vector<TaskId> task_order_;
  std::unique_ptr<ai::ProfileTable> profiles_;
  double quality_scale_ = 1.0;
  RunningStat offload_share_stat_;
};

}  // namespace hbosim::app
