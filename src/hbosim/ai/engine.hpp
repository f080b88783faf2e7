#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "hbosim/ai/exec_plan.hpp"
#include "hbosim/ai/task.hpp"
#include "hbosim/common/rng.hpp"
#include "hbosim/common/stats.hpp"
#include "hbosim/des/simulator.hpp"
#include "hbosim/soc/device.hpp"

/// \file engine.hpp
/// The on-device inference runtime. Each registered AiTask executes
/// back-to-back inferences (with a small inter-inference gap, as a camera-
/// frame-driven MAR pipeline would): every inference walks its delegate's
/// ExecPlan phase by phase across the SoC's processor-sharing resources,
/// so its measured latency emerges from whatever contention exists at that
/// moment — exactly the phenomenon the paper's Section III-B measures.
///
/// Delegate changes take effect at the next inference (a real TFLite
/// interpreter is rebuilt between inferences, not mid-run). Tasks are
/// never removed, so every scheduled phase or exchange callback finds its
/// task alive and carries no stale-callback guard.

namespace hbosim::ai {

/// Outcome of one remote (edge-offloaded) inference exchange. `elapsed_s`
/// is the simulated wall time the exchange consumed — on failure the
/// engine still charges it before falling back to the local ExecPlan,
/// because the radio round-trips and timeouts really happened.
struct RemoteResult {
  bool ok = false;
  double elapsed_s = 0.0;
};

struct EngineConfig {
  /// Pause between the end of one inference and the start of the next.
  /// MAR AI pipelines are camera-frame driven; one 30 fps frame interval
  /// keeps per-task duty cycles realistic instead of saturating every
  /// accelerator with back-to-back inference.
  double inference_gap_s = 0.035;
  /// Uniform jitter applied to each gap (fraction of the gap). Camera
  /// frames never arrive on a perfect clock; without jitter the task
  /// loops phase-lock on the shared accelerators and produce artificial
  /// latency beats.
  static constexpr double gap_jitter = 0.25;
  /// Multiplicative log-normal noise applied to each inference's compute
  /// demand (sigma of log factor); 0 disables noise.
  double latency_noise = 0.03;
  std::uint64_t seed = 0x5EEDu;
};

class InferenceEngine {
 public:
  /// Called after every completed inference with the task and its measured
  /// end-to-end latency in seconds.
  using LatencyObserver = std::function<void(const AiTask&, double)>;

  /// Executes one inference remotely: receives the task and its local
  /// compute demand in isolation-seconds (noise included) and returns the
  /// exchange outcome. Supplied by hbosim::offload::OffloadExecutor; the
  /// engine itself stays edge-agnostic.
  using RemoteExecutor = std::function<RemoteResult(const AiTask&, double)>;

  InferenceEngine(des::Simulator& sim, soc::SocRuntime& soc,
                  EngineConfig cfg = {});

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Register a task; the inference loop starts at the current sim time
  /// (plus one gap) if the engine is running, or at start() otherwise.
  TaskId add_task(const std::string& model, const std::string& label,
                  soc::Delegate delegate);

  /// Change a task's delegate; applies from its next inference. Throws if
  /// the device does not support the (model, delegate) pair.
  void set_delegate(TaskId id, soc::Delegate delegate);

  const AiTask& task(TaskId id) const;
  std::vector<TaskId> task_ids() const;
  std::size_t task_count() const { return tasks_.size(); }

  /// Start all registered (and future) task loops.
  void start();
  bool started() const { return started_; }

  void set_observer(LatencyObserver obs) { observer_ = std::move(obs); }

  /// Install (or clear) the remote execution backend. Tasks with a zero
  /// edge share never consult it, so a session without an executor — or
  /// with every share at 0 — is bitwise identical to a pre-offload build.
  void set_remote_executor(RemoteExecutor exec) {
    remote_ = std::move(exec);
  }

  /// Set the fraction of task `id`'s inferences to run remotely, in
  /// [0, 1]. Routing uses a deterministic carry accumulator (no RNG
  /// draws), so enabling offload does not perturb the engine's noise or
  /// jitter streams: share 0.4 sends exactly every 2nd-or-3rd inference
  /// in a fixed pattern, and share 0 restores the pure-local sequence.
  void set_edge_share(TaskId id, double share);
  double edge_share(TaskId id) const { return state(id).edge_share; }

  /// Lifetime counters for the offload roll-up.
  std::uint64_t completed_inferences() const { return completed_inferences_; }
  std::uint64_t remote_inferences() const { return remote_inferences_; }
  std::uint64_t remote_attempts() const { return remote_attempts_; }
  std::uint64_t remote_fallbacks() const { return remote_fallbacks_; }

  /// Measurement window: per-task latency statistics since the last reset.
  void reset_window();
  double window_mean_latency_s(TaskId id) const;
  std::size_t window_count(TaskId id) const;
  double last_latency_s(TaskId id) const;

 private:
  struct TaskState {
    AiTask task;
    /// Interned "model@delegate" label for telemetry sim-spans; refreshed
    /// on add_task/set_delegate so the hot completion path never builds
    /// strings.
    const char* span_name = "infer";
    /// Plan of the in-flight inference. Rebuilt at the start of an
    /// inference only when set_delegate marked it stale: the plan is a
    /// pure function of (device, model, delegate).
    ExecPlan plan;
    bool plan_stale = true;
    std::size_t phase_index = 0;
    SimTime inference_start = 0.0;
    double noise_factor = 1.0;
    RunningStat window;
    double last_latency = 0.0;
    double edge_share = 0.0;   // fraction of inferences sent remote
    double edge_carry = 0.0;   // deterministic routing accumulator
    bool remote = false;       // in-flight inference runs on the edge
  };

  double next_gap();
  void begin_inference(TaskId id);
  void run_next_phase(TaskId id);
  void on_phase_done(TaskId id);
  void finish_inference(TaskId id);
  TaskState& state(TaskId id);
  const TaskState& state(TaskId id) const;

  des::Simulator& sim_;
  soc::SocRuntime& soc_;
  EngineConfig cfg_;
  Rng rng_;
  LatencyObserver observer_;
  RemoteExecutor remote_;
  /// Task `id` lives at `tasks_[id - 1]`: ids are dense from 1 and never
  /// retired. push_back keeps references to existing tasks valid, so an
  /// observer or remote executor may add a task while one is in hand.
  std::deque<TaskState> tasks_;
  bool started_ = false;
  std::uint64_t completed_inferences_ = 0;
  std::uint64_t remote_inferences_ = 0;
  std::uint64_t remote_attempts_ = 0;
  std::uint64_t remote_fallbacks_ = 0;
};

}  // namespace hbosim::ai
