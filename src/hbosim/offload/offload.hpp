#pragma once

#include <cstdint>

#include "hbosim/ai/engine.hpp"
#include "hbosim/des/simulator.hpp"
#include "hbosim/edgesvc/edge_client.hpp"
#include "hbosim/offload/offload_config.hpp"
#include "hbosim/power/power_manager.hpp"

/// \file offload.hpp
/// Edge as a fourth allocation target of the HBO simplex. The paper's
/// Constraints 8-10 sample per-resource proportions over the on-device
/// CPU/GPU/NPU; with offload enabled the controller grows that simplex by
/// one coordinate — the *edge share* — so the optimizer itself trades
/// battery drain and thermal headroom against network latency and edge
/// contention (the LEAF/AIO direction from PAPERS.md), instead of edge
/// use being imposed from outside the search.
///
/// The subsystem is three small pieces:
///  - OffloadConfig: the session switch and its constants;
///  - plan_task_shares(): the deterministic mapping from the sampled edge
///    coordinate to per-AI-task remote fractions;
///  - OffloadExecutor: the ai::InferenceEngine::RemoteExecutor backend
///    that runs one offloaded inference against the session's edgesvc
///    mirror (payload sized through the client's resolution knob) and
///    charges the radio energy of the exchange to the battery.
///
/// Parity contract: with `enabled == false` nothing here is constructed
/// or consulted — the controller keeps the 3-coordinate space, the engine
/// keeps every share at 0, and session trajectories stay bitwise
/// identical to a pre-offload build. Enabled sessions stay deterministic
/// because every piece is a pure function of the session seed: the
/// executor adds no RNG stream of its own (edge randomness lives in the
/// client it wraps) and the engine's routing carry draws nothing.

namespace hbosim::offload {

/// Lifetime roll-up of one executor's exchanges.
struct OffloadStats {
  std::uint64_t exchanges = 0;  ///< execute() calls (one per routed inference).
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;   ///< Exhausted the client's attempt budget.
  double edge_elapsed_s = 0.0;  ///< Summed exchange wall time.
  double radio_energy_j = 0.0;  ///< Radio energy charged (or tracked).
};

/// The RemoteExecutor backend: one per session, wrapping the session's
/// EdgeClient mirror. Synchronous in virtual time — perform() resolves
/// the exchange against the deterministic server mirror and returns the
/// elapsed seconds the engine then schedules forward, so offload never
/// reorders DES events behind the engine's back.
class OffloadExecutor {
 public:
  /// `power` may be null (no power model): radio energy is then only
  /// accumulated in stats(). The client and simulator must outlive the
  /// executor.
  OffloadExecutor(OffloadConfig cfg, edgesvc::EdgeClient& client,
                  des::Simulator& sim, power::PowerManager* power = nullptr);

  /// Run one inference of `demand_s` isolation-seconds remotely.
  ai::RemoteResult execute(const ai::AiTask& task, double demand_s);

  /// Adapter for ai::InferenceEngine::set_remote_executor. The returned
  /// callable references *this.
  ai::InferenceEngine::RemoteExecutor executor();

  const OffloadStats& stats() const { return stats_; }
  const OffloadConfig& config() const { return cfg_; }

 private:
  OffloadConfig cfg_;
  edgesvc::EdgeClient& client_;
  des::Simulator& sim_;
  power::PowerManager* power_;
  OffloadStats stats_;
};

}  // namespace hbosim::offload
