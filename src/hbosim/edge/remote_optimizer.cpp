#include "hbosim/edge/remote_optimizer.hpp"

#include "hbosim/common/error.hpp"

namespace hbosim::edge {

RemoteOptimizerLink::RemoteOptimizerLink(RemoteOptimizerConfig cfg)
    : cfg_(cfg),
      link_(edgesvc::LinkModelConfig{cfg.rtt_ms, cfg.mbit_per_s}) {
  HB_REQUIRE(cfg_.server_suggest_ms >= 0.0,
             "server suggest time must be non-negative");
}

double RemoteOptimizerLink::round_trip_seconds() const {
  return link_.nominal_seconds(cfg_.upload_bytes) +
         cfg_.server_suggest_ms * 1e-3 +
         link_.nominal_seconds(cfg_.download_bytes);
}

std::optional<double> RemoteOptimizerLink::round_trip_via(
    edgesvc::EdgeClient& client, double now_s) const {
  // The suggest step's cost is priced by the shared server's bo_suggest_ms
  // (units = 1 suggest); the uplink payload is folded into the exchange
  // alongside the downlink, matching the closed-form path's accounting.
  const edgesvc::EdgeResponse resp =
      client.perform(edgesvc::RequestClass::RemoteBo, 1.0,
                     cfg_.upload_bytes + cfg_.download_bytes, now_s);
  if (!resp.ok) return std::nullopt;
  return resp.elapsed_s;
}

std::uint64_t RemoteOptimizerLink::bytes_per_iteration() const {
  return cfg_.upload_bytes + cfg_.download_bytes;
}

bool RemoteOptimizerLink::offload_pays_off(
    double local_suggest_seconds) const {
  HB_REQUIRE(local_suggest_seconds >= 0.0,
             "local suggest time must be non-negative");
  return round_trip_seconds() < local_suggest_seconds;
}

}  // namespace hbosim::edge
