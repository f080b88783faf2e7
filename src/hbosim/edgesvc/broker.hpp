#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "hbosim/edgesvc/edge_client.hpp"
#include "hbosim/marketsvc/allocator.hpp"

/// \file broker.hpp
/// The fleet-facing entry point of hbosim::edgesvc: one EdgeBroker stands
/// for one shared edge box serving every session of a fleet. It stamps
/// out per-session EdgeClients — each a deterministic mirror of the
/// shared server whose background load scales with the tenant count, so
/// what a session experiences depends only on (spec, tenant count,
/// session seed), never on thread scheduling. The fleet rolls every
/// session's client counters up from its SessionResult and merges the
/// mirrors' EdgeServerStats on its main thread, in session-id order
/// (fallback rate, rejection rate, queue depth p95), which
/// fleet::FleetMetrics reports next to ε/Q/B.

namespace hbosim::edgesvc {

/// Everything needed to describe the shared edge service.
struct EdgeServiceSpec {
  EdgeServerSpec server;
  LinkModelConfig link;
  EdgeClientConfig client;
  BackgroundLoadConfig background;
  /// Non-session tenants loading the box on top of the fleet's sessions
  /// (e.g. third-party apps on the same cell). Lets a single session
  /// experience heavy contention without simulating a huge fleet.
  std::size_t extra_tenants = 0;
  /// Estimated concurrent downlink flows contributed per background
  /// tenant (Little's-law style); scales the link's bandwidth sharing.
  double transfer_flows_per_tenant = 0.02;
  /// Salted into every client's Rng seed.
  static constexpr std::uint64_t seed_salt = 0xED6E5EEDull;

  void validate() const;
};

/// Named starting points for experiments: "lan" (fat link, many cores,
/// effectively uncontended), "wifi" (the paper's Fig. 3 setup with mild
/// jitter), "congested" (few cores, shallow queue, bursty lossy cell
/// link — the overload regime).
EdgeServiceSpec edge_service_preset(std::string_view name);

class EdgeBroker {
 public:
  /// `session_tenants` is the number of fleet sessions sharing the box.
  EdgeBroker(EdgeServiceSpec spec, std::size_t session_tenants);

  /// Build the mirror client for one session. Deterministic in (spec,
  /// tenant count, session_seed); callable from any thread.
  std::unique_ptr<EdgeClient> make_client(std::uint64_t tenant_id,
                                          std::uint64_t session_seed) const;

  // --- The edge as an actor (marketsvc) ---------------------------------

  /// Attach the cross-tenant JointAllocator, turning the broker from a
  /// bookkeeper into an actor. Call once, before any market client is
  /// handed out; the fleet then drives market().tick()/observe() at its
  /// epoch barriers (main thread, session-id order).
  void enable_market(const marketsvc::MarketConfig& cfg);
  bool market_enabled() const { return allocator_ != nullptr; }
  marketsvc::JointAllocator& market();
  const marketsvc::JointAllocator& market() const;

  /// Build the mirror client honoring one tick decision: the mirror's
  /// link share and background process carry the *decided* activity of
  /// the other admitted tenants instead of the static per-tenant guess,
  /// the resolution knob is pre-set, and a denied tenant gets the
  /// scavenger-class link (its requests mostly time out into on-device
  /// fallbacks). Deterministic in (spec, allocation, session_seed);
  /// callable from any thread.
  std::unique_ptr<EdgeClient> make_market_client(
      const marketsvc::TenantAllocation& alloc,
      std::uint64_t session_seed) const;

  const EdgeServiceSpec& spec() const { return spec_; }
  /// Background tenants each mirror simulates (sessions - 1 + extra).
  std::size_t background_tenants() const { return background_tenants_; }

 private:
  EdgeServiceSpec spec_;
  std::size_t background_tenants_;
  std::unique_ptr<marketsvc::JointAllocator> allocator_;
};

}  // namespace hbosim::edgesvc
