#pragma once

#include <cstdint>
#include <optional>

#include "hbosim/edgesvc/edge_client.hpp"
#include "hbosim/edgesvc/link_model.hpp"

/// \file remote_optimizer.hpp
/// Section VI's offload path: "the Bayesian Optimization algorithm can be
/// executed on a local edge server ... by uploading the obtained
/// performance from the cost calculator to the server and downloading the
/// next configuration to test. The payload for exchanging such
/// information is in the order of a few Bytes."
///
/// This component models that exchange: per BO iteration, one small
/// uplink (the observed cost) and one small downlink (the next
/// configuration), each a few dozen bytes priced at the link's nominal
/// exchange time, plus the server-side suggest time. It lets the
/// controller account for the round-trip when deciding whether offloading
/// pays off on a given link (the ablation bench compares local vs
/// offloaded iteration overhead).

namespace hbosim::edge {

struct RemoteOptimizerConfig {
  // Link of the closed-form round trip, priced at its nominal exchange
  // time.
  double rtt_ms = 20.0;       ///< Base round-trip latency.
  double mbit_per_s = 120.0;  ///< Downlink throughput.
  /// Uplink payload: (z, cost) as packed floats plus framing.
  std::uint64_t upload_bytes = 48;
  /// Downlink payload: the next configuration vector.
  std::uint64_t download_bytes = 40;
  /// Server-side BO suggest time (powerful edge box; effectively the
  /// K^3 term at server speed).
  double server_suggest_ms = 2.0;
};

class RemoteOptimizerLink {
 public:
  explicit RemoteOptimizerLink(RemoteOptimizerConfig cfg = {});

  /// Wall time consumed by one offloaded BO iteration's exchange
  /// (upload + server compute + download), in seconds.
  double round_trip_seconds() const;

  /// The same exchange through a contended edge service: the suggest step
  /// queues behind other tenants and the payloads cross a lossy link.
  /// Returns the elapsed seconds on success, or nullopt when the client
  /// exhausted its attempt budget — the caller should fall back to
  /// running BO locally.
  std::optional<double> round_trip_via(edgesvc::EdgeClient& client,
                                       double now_s) const;

  /// Bytes moved per iteration (for the energy argument in Section VI).
  std::uint64_t bytes_per_iteration() const;

  /// Wall-time comparison helper: true when offloading an iteration is
  /// cheaper than running the suggest step locally.
  bool offload_pays_off(double local_suggest_seconds) const;

  const RemoteOptimizerConfig& config() const { return cfg_; }

 private:
  RemoteOptimizerConfig cfg_;
  edgesvc::LinkModel link_;
};

}  // namespace hbosim::edge
