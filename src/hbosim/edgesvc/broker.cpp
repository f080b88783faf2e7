#include "hbosim/edgesvc/broker.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "hbosim/common/error.hpp"

namespace hbosim::edgesvc {

void EdgeServiceSpec::validate() const {
  server.validate();
  link.validate();
  client.validate();
  background.validate();
  HB_REQUIRE(std::isfinite(transfer_flows_per_tenant) &&
                 transfer_flows_per_tenant >= 0.0,
             "transfer_flows_per_tenant must be finite and >= 0");
}

EdgeServiceSpec edge_service_preset(std::string_view name) {
  EdgeServiceSpec spec;
  if (name == "lan") {
    spec.server.cores = 16;
    spec.server.queue_capacity = 256;
    spec.link.rtt_ms = 2.0;
    spec.link.mbit_per_s = 900.0;
    spec.background.per_tenant_rps = 0.2;
    return spec;
  }
  if (name == "wifi") {
    // The paper's Fig. 3 deployment: a campus AP in front of a mid-size
    // edge box. Mild jitter, rare shallow loss bursts.
    spec.server.cores = 4;
    spec.server.queue_capacity = 64;
    spec.link.rtt_ms = 20.0;
    spec.link.mbit_per_s = 120.0;
    spec.link.rtt_jitter_frac = 0.2;
    spec.link.p_good_to_bad = 0.02;
    spec.link.p_bad_to_good = 0.4;
    spec.link.loss_bad = 0.3;
    spec.background.per_tenant_rps = 0.4;
    return spec;
  }
  if (name == "congested") {
    // Overload regime: a starved cell link in front of a small box.
    spec.server.cores = 2;
    spec.server.queue_capacity = 16;
    spec.link.rtt_ms = 45.0;
    spec.link.mbit_per_s = 40.0;
    spec.link.rtt_jitter_frac = 0.35;
    spec.link.p_good_to_bad = 0.05;
    spec.link.p_bad_to_good = 0.25;
    spec.link.loss_bad = 0.5;
    spec.link.loss_good = 0.005;
    spec.background.per_tenant_rps = 0.8;
    spec.background.mean_units = 0.25;
    spec.client.timeout_s = 0.75;
    spec.transfer_flows_per_tenant = 0.05;
    return spec;
  }
  HB_REQUIRE(false, "unknown edge service preset: " + std::string(name) +
                        " (expected lan | wifi | congested)");
  return spec;
}

EdgeBroker::EdgeBroker(EdgeServiceSpec spec, std::size_t session_tenants)
    : spec_(spec),
      background_tenants_(
          (session_tenants > 0 ? session_tenants - 1 : 0) +
          spec.extra_tenants) {
  spec_.validate();
  HB_REQUIRE(session_tenants >= 1,
             "edge broker needs at least one session tenant");
}

std::unique_ptr<EdgeClient> EdgeBroker::make_client(
    std::uint64_t tenant_id, std::uint64_t session_seed) const {
  LinkModelConfig link = spec_.link;
  link.background_flows += spec_.transfer_flows_per_tenant *
                           static_cast<double>(background_tenants_);
  // Decorrelate the edge stream from the session's engine/BO streams.
  SplitMix64 mix(spec_.seed_salt ^
                 (session_seed * 0x9E3779B97F4A7C15ull + 0x1CEB00DAull));
  return std::make_unique<EdgeClient>(spec_.client, spec_.server,
                                      spec_.background, background_tenants_,
                                      link, tenant_id, mix.next());
}

void EdgeBroker::enable_market(const marketsvc::MarketConfig& cfg) {
  HB_REQUIRE(!allocator_, "market already enabled on this broker");
  // The compute-demand seed uses the decimation service rate — the
  // dominant mesh-bearing class; measured usage replaces it after the
  // first epoch anyway.
  allocator_ = std::make_unique<marketsvc::JointAllocator>(
      cfg, static_cast<double>(spec_.server.cores), spec_.link.mbit_per_s,
      spec_.server.decimation_ms_per_mtri * 1e-3);
}

marketsvc::JointAllocator& EdgeBroker::market() {
  HB_REQUIRE(allocator_, "enable_market() was never called on this broker");
  return *allocator_;
}

const marketsvc::JointAllocator& EdgeBroker::market() const {
  HB_REQUIRE(allocator_, "enable_market() was never called on this broker");
  return *allocator_;
}

std::unique_ptr<EdgeClient> EdgeBroker::make_market_client(
    const marketsvc::TenantAllocation& alloc,
    std::uint64_t session_seed) const {
  HB_REQUIRE(allocator_,
             "enable_market() must precede make_market_client()");
  LinkModelConfig link = spec_.link;
  BackgroundLoadConfig bg = spec_.background;
  std::size_t bg_tenants = 1;  // the decided rate is already an aggregate
  if (alloc.admitted) {
    // Decided background replaces the static per-tenant guesses: the
    // mirror contends with exactly the link activity and request stream
    // the allocator admitted for the *other* tenants.
    link.background_flows = alloc.bg_flows;
    bg.per_tenant_rps = alloc.bg_rps;
    if (alloc.bg_mean_units > 0.0) bg.mean_units = alloc.bg_mean_units;
  } else {
    // Scavenger class: a sliver of the downlink, no reserved compute
    // mirror load — requests mostly blow the timeout and the session
    // degrades through its on-device fallback path, which is the point.
    link.background_flows = 0.0;
    link.mbit_per_s =
        std::max(kMinLinkMbitPerS,
                 spec_.link.mbit_per_s *
                     allocator_->config().denied_bandwidth_frac);
    bg_tenants = 0;
  }
  // Same decorrelation as make_client, so a tenant's edge randomness
  // stays a pure function of its session seed either way.
  SplitMix64 mix(spec_.seed_salt ^
                 (session_seed * 0x9E3779B97F4A7C15ull + 0x1CEB00DAull));
  auto client = std::make_unique<EdgeClient>(spec_.client, spec_.server, bg,
                                             bg_tenants, link, alloc.tenant,
                                             mix.next());
  client->set_resolution(alloc.resolution);
  return client;
}

}  // namespace hbosim::edgesvc
