#pragma once

#include <cstdint>

#include "hbosim/edgesvc/edge_server.hpp"
#include "hbosim/edgesvc/link_model.hpp"

/// \file edge_client.hpp
/// Device-side access to the contended edge server: every exchange runs
/// under a timeout, failed attempts (bounced at the admission queue, lost
/// on the link, or not answered in time) are retried with capped,
/// jittered exponential backoff, and when the attempt budget is exhausted
/// the caller is told to degrade gracefully on-device — the decimation
/// path falls back to the nearest cached LOD and the Section VI
/// warm-start path falls back to local BO (see edge::DecimationService
/// and core::MonitoredSession).
///
/// One EdgeClient belongs to one session (its tenant id) and bundles the
/// session's server mirror, its stochastic link, and a dedicated Rng
/// stream, so all edge randomness is a pure function of the session seed.
/// Clients are handed out by the fleet's EdgeBroker (broker.hpp).
///
/// Time accounting is virtual (simulated seconds): perform() returns the
/// elapsed time the caller should charge to its DES clock. The request
/// uplink is a few bytes and is folded into the response exchange's RTT,
/// mirroring the closed-form single-exchange accounting of the edge
/// decimation service (LinkModel::nominal_seconds) — so an uncontended,
/// jitter-free client reproduces the closed-form delay exactly. A
/// timed-out attempt costs the full timeout; a rejection costs one
/// (sampled) RTT, since the server bounces it immediately.

namespace hbosim::edgesvc {

struct EdgeClientConfig {
  /// Per-attempt response deadline. Sized so an uncontended full-quality
  /// mesh download (a few MB over the default link) fits comfortably;
  /// queueing and loss are what push exchanges over it.
  double timeout_s = 1.5;
  /// 1 initial try + (max_attempts - 1) retries.
  static constexpr int max_attempts = 3;
  static constexpr double backoff_base_s = 0.05;
  static constexpr double backoff_mult = 2.0;
  static constexpr double backoff_cap_s = 1.0;
  /// Backoff is scaled by a uniform factor in [1 - f, 1 + f] (decorrelates
  /// retry storms across tenants).
  static constexpr double backoff_jitter_frac = 0.1;
  void validate() const;
};

enum class EdgeStatus : std::uint8_t {
  Ok,        ///< Response arrived within the timeout.
  Rejected,  ///< Last attempt bounced at the admission queue.
  TimedOut,  ///< Last attempt exceeded the timeout (queued, served late,
             ///< or shed by the deadline policy).
  LinkLost,  ///< Last attempt lost in a link loss burst.
};

struct EdgeResponse {
  bool ok = false;
  EdgeStatus last_status = EdgeStatus::TimedOut;
  int attempts = 0;
  /// Simulated seconds from issue to success — or to giving up, at which
  /// point the caller takes its on-device fallback path.
  double elapsed_s = 0.0;
  /// The on-air subset of `elapsed_s`: link samples that actually moved
  /// bits (responses, NACKs), attempts summed. The rest of the elapsed
  /// time the client radio idle-listens — server queueing, service, and
  /// loss timeouts. Energy models charge the two at different power.
  double link_s = 0.0;
};

struct EdgeClientStats {
  std::uint64_t requests = 0;
  std::uint64_t successes = 0;
  std::uint64_t fallbacks = 0;  ///< Requests that exhausted every attempt.
  std::uint64_t retries = 0;    ///< Attempts beyond each request's first.
  std::uint64_t rejected_attempts = 0;
  std::uint64_t timeout_attempts = 0;
  std::uint64_t lost_attempts = 0;
  double total_elapsed_s = 0.0;  ///< Summed perform() elapsed times.
  /// Downlink demand actually placed on the shared link: response bytes
  /// of every served attempt (lost/late ones still occupied the medium).
  std::uint64_t payload_bytes = 0;
  /// Request units that reached a core, summed over every class:
  /// mega-triangles for Decimation and MeshTransfer, AI compute units for
  /// AiInference and 1 per RemoteBo fetch.
  double units = 0.0;
  double own_service_s = 0.0;  ///< Core-seconds burned by own requests.

  double fallback_rate() const {
    return requests ? static_cast<double>(fallbacks) /
                          static_cast<double>(requests)
                    : 0.0;
  }
};

class EdgeClient {
 public:
  EdgeClient(EdgeClientConfig cfg, const EdgeServerSpec& server,
             const BackgroundLoadConfig& background,
             std::size_t background_tenants, const LinkModelConfig& link,
             std::uint64_t tenant, std::uint64_t seed);

  /// One logical edge exchange (retries included) issued at simulated
  /// time `now_s`. `units` sizes the server-side work (mega-triangles;
  /// ignored for RemoteBo), `payload_bytes` sizes the downlink response.
  /// `timeout_override_s` / `max_attempts_override` replace the config's
  /// per-attempt deadline and attempt budget for this exchange only
  /// (0 keeps the config values, bit for bit) — latency-critical classes
  /// like AiInference give up in a frame budget instead of a mesh
  /// download's patience.
  EdgeResponse perform(RequestClass cls, double units,
                       std::uint64_t payload_bytes, double now_s,
                       double timeout_override_s = 0.0,
                       int max_attempts_override = 0);

  /// Backoff charged before retry number `retry` (1-based), jitter
  /// excluded — exposed so tests can pin the schedule.
  double nominal_backoff_s(int retry) const;

  /// Resolution knob assigned by the market (marketsvc): mesh-bearing
  /// requests (Decimation, MeshTransfer, AiInference) shrink with the
  /// resolution area, scaling `units` and `payload_bytes` by r^2. At the
  /// default 1.0 both scale by one, which is exact.
  void set_resolution(double r);
  double resolution() const { return resolution_; }

  const EdgeClientStats& stats() const { return stats_; }
  const EdgeServerSim& server() const { return server_; }
  EdgeServerSim& server() { return server_; }
  const LinkModel& link() const { return link_; }
  const EdgeClientConfig& config() const { return cfg_; }
  std::uint64_t tenant() const { return tenant_; }

 private:
  EdgeClientConfig cfg_;
  EdgeServerSim server_;
  LinkModel link_;
  Rng rng_;
  std::uint64_t tenant_;
  double resolution_ = 1.0;
  EdgeClientStats stats_;
};

}  // namespace hbosim::edgesvc
