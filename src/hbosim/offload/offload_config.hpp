#pragma once

#include <cstdint>
#include <span>
#include <vector>

/// \file offload_config.hpp
/// The dependency-light half of hbosim::offload: the session switch, its
/// constants and the pure edge-share → per-task plan mapping.
/// core::HboConfig and fleet::FleetSpec embed OffloadConfig from here; the
/// executor that actually talks to edgesvc/power lives in offload.hpp so
/// that config consumers do not drag the whole runtime stack into their
/// includes.

namespace hbosim::offload {

/// Per-session (or fleet-wide, via FleetSpec::offload) offload switch and
/// the constants an enabled session runs with.
struct OffloadConfig {
  /// Master switch: grows the HBO simplex to CPU/GPU/NPU/edge and wires
  /// the remote executor. Off = bitwise pre-offload behavior.
  bool enabled = false;

  /// Cap on the sampled edge coordinate after simplex normalization; the
  /// controller clamps the edge share to this before planning. 1.0 lets
  /// HBO offload every inference; lower values model an operator policy
  /// ("at most 40% of AI traffic may leave the device").
  static constexpr double max_edge_share = 1.0;

  /// Sampled edge shares below this snap to exactly 0 (offload off for
  /// that configuration). Continuous simplex samples almost never hit
  /// the zero-edge face, so without a snap the optimizer can only
  /// *approach* all-local and a hostile link keeps collecting residual
  /// radio wakeups; with it, "don't offload" is a reachable decision.
  /// Mirrors real deployments that gate offload below a minimum
  /// worthwhile batch fraction.
  static constexpr double min_edge_share = 0.05;

  /// Edge-request size per device-millisecond of inference demand, in
  /// edgesvc AiInference `units`. 1.0 means a 30 ms on-device inference
  /// posts 30 units (the server then applies its ai_ms_per_unit speed
  /// ratio); raise it to model chattier models, lower it for compact
  /// feature-upload pipelines.
  static constexpr double units_per_device_ms = 1.0;

  /// Downlink response size (detection boxes / feature maps) before the
  /// client's resolution knob scales it — market-trimmed tenants upload
  /// smaller frames and receive proportionally smaller responses.
  static constexpr std::uint64_t payload_bytes = 24 * 1024;

  /// Radio power while bits are on the air (W): charged for the
  /// exchange's link time (EdgeResponse::link_s) via
  /// power::PowerManager::add_external_energy_j, so a lossy link makes
  /// offloading *cost* energy instead of saving it and the w_energy term
  /// can learn that. Without a power model the energy is tracked in stats
  /// only.
  static constexpr double radio_w = 0.8;

  /// Radio power while the client idle-listens for the rest of the
  /// exchange — server queueing/service and loss timeouts (W). Modern
  /// radios drop to an RRC-connected listen state there; charging them
  /// full TX power would make every queued exchange look like a
  /// transfer.
  static constexpr double radio_idle_w = 0.12;

  /// Per-exchange response deadline (s). An inference answer is only
  /// useful inside the frame budget, so offload exchanges give up far
  /// sooner than the edge client's mesh-download patience (1.5 s) —
  /// passed to EdgeClient::perform as a per-call override. Keeps a
  /// congested link's worst case bounded at one short stall instead of
  /// multi-second retry storms.
  static constexpr double timeout_s = 0.25;

  /// Attempt budget per exchange. One: retrying a stale frame is
  /// pointless — miss the deadline once and the local fallback runs.
  static constexpr int max_attempts = 1;
};

/// Map the sampled edge-simplex coordinate to per-task remote fractions.
/// `edge_share` is the fraction of the session's AI workload to run
/// remotely (clamped to [0, 1]); `expected_ms` gives each task's expected
/// isolation latency. The total remote budget edge_share * n_tasks is
/// assigned greedily to the most expensive tasks first (stable index
/// tie-break), fully offloading each until the budget's fractional tail
/// lands on one task — heavy detectors leave the device before light
/// trackers, which is both what LEAF-style systems do and what keeps the
/// thermal relief per offloaded byte highest. Pure function; the returned
/// vector matches expected_ms in size and order.
std::vector<double> plan_task_shares(double edge_share,
                                     std::span<const double> expected_ms);

}  // namespace hbosim::offload
