#pragma once

#include <cstdint>
#include <string_view>

/// \file market.hpp
/// Vocabulary of the fleet-level resource market (hbosim::marketsvc): the
/// allocation policies, the per-epoch knobs, and the per-tenant demand /
/// allocation records the JointAllocator trades in.
///
/// The market makes the edge an *actor* instead of a bookkeeper. Where the
/// mirror-based edgesvc path hands every session a fixed statistical guess
/// of the other tenants (transfer_flows_per_tenant x (N-1) link flows,
/// per_tenant_rps x (N-1) background arrivals), the market *decides*: on
/// every epoch tick it jointly assigns, across all tenants of the epoch,
///
///  (a) fair-share spectrum on the shared LinkModel — each tenant's mirror
///      sees the background flow activity the allocator admitted, not a
///      hard-coded per-tenant constant;
///  (b) edge compute shares on the EdgeServerSpec cores — the mirror's
///      background arrival process carries the decided aggregate request
///      rate and request size of the *other* admitted tenants;
///  (c) a per-tenant resolution knob r in [min_resolution, 1] — the quality
///      control next to the paper's triangle ratio: payloads and server
///      work scale with r^2, perceived quality with r^gamma, so trimming
///      resolution is how the market sheds load before shedding tenants.
///
/// Everything is deterministic closed-form arithmetic over the epoch's
/// demand vector in tenant order; the fleet calls tick()/observe() only at
/// epoch barriers on the main thread, so market-enabled fleets stay
/// bit-identical on 1 and N worker threads.

namespace hbosim::marketsvc {

/// How the epoch tick divides the congestion budgets among tenants.
enum class MarketPolicy : std::uint8_t {
  /// Weighted proportional fairness: maximize sum w_i * log q_i(r_i)
  /// subject to the link/compute activity budgets; r_i^2 ends up
  /// proportional to w_i / f_i (weight over footprint), water-filled.
  ProportionalFair,
  /// Egalitarian: one common resolution, the largest level every admitted
  /// tenant can hold under both budgets (classic max-min on quality).
  MaxMin,
  /// Posted congestion price with tatonnement dynamics and admission
  /// control: the price climbs while demand overshoots the budgets,
  /// tenants buy the resolution their budget affords, and tenants that
  /// cannot afford even min_resolution are denied (best-effort class).
  Pricing,
};

const char* market_policy_name(MarketPolicy p);
/// Parse "pf" / "maxmin" / "price" (throws hbosim::Error otherwise).
MarketPolicy market_policy_from_name(std::string_view name);

struct MarketConfig {
  MarketPolicy policy = MarketPolicy::ProportionalFair;

  /// Floor of the resolution knob (Constraint-10 analogue for resolution).
  static constexpr double min_resolution = 0.35;
  /// Perceived quality of a tenant running at resolution r is scaled by
  /// r^resolution_gamma (gamma < 1: perceptual diminishing returns).
  static constexpr double resolution_gamma = 0.6;

  /// Link congestion budget: the decided concurrent background flow
  /// activity (sum over admitted tenants of f_i * r_i^2) may not exceed
  /// this, so any active transfer is guaranteed at least
  /// 1 / (1 + max_link_activity) of the shared downlink.
  static constexpr double max_link_activity = 2.0;
  /// Compute budget as a fraction of EdgeServerSpec cores the decided
  /// aggregate service demand may occupy.
  static constexpr double max_compute_utilization = 0.75;

  /// EWMA weight for folding measured per-tenant usage into the demand
  /// estimates the next tick allocates against.
  static constexpr double demand_smoothing = 0.25;
  /// Demand estimates before anything was measured: expected concurrent
  /// downlink flows per tenant at r = 1 (matches the legacy mirror's
  /// transfer_flows_per_tenant default), edge requests per second, and
  /// mean request size in mega-triangles.
  static constexpr double initial_flow_activity = 0.02;
  static constexpr double initial_request_rps = 0.4;
  static constexpr double initial_mean_units = 0.15;

  // --- Pricing policy (ignored by PF / MaxMin) ----------------------------
  /// Initial posted price per unit of flow activity.
  static constexpr double initial_price = 0.5;
  /// Tatonnement step: price multiplies by (1 + step * excess_demand) per
  /// tick, clamped to +-max_price_step.
  static constexpr double price_step = 0.5;
  static constexpr double max_price_step = 0.5;
  static constexpr double min_price = 1e-3;
  /// Per-tenant spending budget (the willingness-to-pay weight).
  static constexpr double tenant_budget = 1.0;
  /// Denied tenants keep a scavenger-class link share: this fraction of
  /// the nominal downlink (their requests mostly time out into on-device
  /// LOD fallbacks, which is the point of denying them).
  static constexpr double denied_bandwidth_frac = 0.01;
};

/// One tenant's demand as the allocator sees it at a tick. Non-positive
/// demand fields mean "use the allocator's learned fleet-wide estimate".
struct TenantDemand {
  std::uint64_t tenant = 0;
  /// PF weight / pricing budget multiplier.
  double weight = 1.0;
  /// Expected concurrent downlink flow activity at r = 1 (duty cycle).
  double flow_activity = -1.0;
  /// Edge requests per second at r = 1.
  double request_rps = -1.0;
  /// Mean request size (mega-triangles) at r = 1.
  double mean_units = -1.0;
};

/// The allocator's decision for one tenant, consumed by
/// edgesvc::EdgeBroker::make_market_client.
struct TenantAllocation {
  std::uint64_t tenant = 0;
  /// Pricing policy only: false when the tenant could not afford even
  /// min_resolution and was bumped to the best-effort scavenger class.
  bool admitted = true;
  /// Resolution knob in [min_resolution, 1].
  double resolution = 1.0;
  /// Share of the downlink an active transfer of this tenant receives:
  /// 1 / (1 + bg_flows). Informational (the mirror consumes bg_flows).
  double bandwidth_frac = 1.0;
  /// Decided share of the server cores this tenant's service demand
  /// occupies (rho_i * r_i^2 / cores). Informational.
  double compute_frac = 0.0;
  /// Background the tenant's deterministic mirror must simulate: the
  /// *decided* activity of the other admitted tenants.
  double bg_flows = 0.0;       ///< Concurrent background link flows.
  double bg_rps = 0.0;         ///< Aggregate background request rate.
  double bg_mean_units = 0.0;  ///< Mean background request size (mtri).
  /// Posted price signal (Pricing policy; 0 under PF / MaxMin). Sessions
  /// feed it into the HBO cost as HboConfig::market_price, so a high
  /// price pushes the optimizer toward cheaper (lower-triangle) configs.
  double price = 0.0;
};

/// What one finished tenant actually consumed, fed back at the barrier.
struct MeasuredUsage {
  std::uint64_t payload_bytes = 0;  ///< Downlink bytes moved.
  std::uint64_t requests = 0;       ///< Edge requests issued.
  double units = 0.0;               ///< Total request size (mtri) issued.
  double service_s = 0.0;           ///< Server core-seconds consumed.
  double duration_s = 0.0;          ///< Simulated seconds covered.
};

/// Roll-up of one epoch tick (and, summed, of the whole market run).
struct MarketTickStats {
  std::size_t tenants = 0;
  std::size_t denied = 0;
  double link_activity = 0.0;        ///< Decided sum f_i * r_i^2.
  double compute_utilization = 0.0;  ///< Decided sum rho_i r_i^2 / cores.
  double mean_resolution = 1.0;
  double price = 0.0;  ///< Posted price after the tick's adjustment.
};

}  // namespace hbosim::marketsvc
