#pragma once

#include <cstdint>

#include "hbosim/common/rng.hpp"

/// \file link_model.hpp
/// Stochastic wireless link to the edge server. Generalizes the
/// closed-form delay (base RTT + payload/throughput, nominal_seconds())
/// with three effects real MAR deployments see:
///
///  - RTT jitter: a bounded multiplicative perturbation of the base RTT,
///    drawn per exchange from the owning session's seeded Rng.
///  - Loss bursts: a two-state Gilbert-Elliott process. The link wanders
///    between a Good and a Bad state with configured transition
///    probabilities; each state has its own per-exchange loss rate, so
///    losses cluster into bursts instead of being i.i.d.
///  - Bandwidth sharing: the downlink throughput is divided across the
///    configured number of concurrent background flows (other tenants of
///    the same edge box), so per-transfer time grows with fleet size.
///
/// Everything random flows through an explicitly passed Rng, so a session
/// using a LinkModel stays bit-identical run to run and across thread
/// counts (the fleet determinism guarantee). With jitter, loss, and
/// background flows all zero, sample() degenerates to exactly the
/// closed-form nominal_seconds() — the delay edge::DecimationService
/// charges on its closed-form path.

namespace hbosim::edgesvc {

struct LinkModelConfig {
  double rtt_ms = 20.0;       ///< Base round-trip latency.
  double mbit_per_s = 120.0;  ///< Nominal downlink throughput.

  /// RTT multiplier is uniform in [1 - f, 1 + f]; 0 disables jitter.
  double rtt_jitter_frac = 0.0;

  // Gilbert-Elliott loss process, stepped once per exchange.
  double p_good_to_bad = 0.0;  ///< P(Good -> Bad) per exchange.
  double p_bad_to_good = 1.0;  ///< P(Bad -> Good) per exchange.
  double loss_good = 0.0;      ///< Loss probability while Good.
  double loss_bad = 0.0;       ///< Loss probability while Bad.

  /// Concurrent background transfers sharing the downlink (fair-share:
  /// effective throughput = mbit_per_s / (1 + share_weight * flows)).
  double background_flows = 0.0;
  static constexpr double share_weight = 1.0;

  /// Throws hbosim::Error on non-finite or out-of-range values — in
  /// particular a zero/near-zero throughput, which would turn payload
  /// transfers into unbounded (inf/NaN) DES event times.
  void validate() const;
};

/// Smallest accepted throughput. Anything below this is treated as a
/// configuration error rather than silently producing week-long transfers.
inline constexpr double kMinLinkMbitPerS = 1e-3;

struct LinkSample {
  double seconds = 0.0;  ///< Exchange time (RTT with jitter + transfer).
  bool lost = false;     ///< Exchange lost; `seconds` is then meaningless.
};

class LinkModel {
 public:
  /// Validates the config (throws hbosim::Error on nonsense).
  explicit LinkModel(LinkModelConfig cfg = {});

  /// One request/response exchange moving `payload_bytes` down, sampled
  /// with jitter and the loss process advanced by one step.
  LinkSample sample(std::uint64_t payload_bytes, Rng& rng);

  /// Deterministic exchange time: jitter-free RTT plus the payload at the
  /// shared effective throughput (rtt + bits / bandwidth when
  /// background_flows == 0).
  double nominal_seconds(std::uint64_t payload_bytes) const;

  /// Throughput after fair-sharing with the background flows.
  double effective_mbit_per_s() const;

  bool in_bad_state() const { return bad_; }
  const LinkModelConfig& config() const { return cfg_; }

 private:
  LinkModelConfig cfg_;
  bool bad_ = false;  ///< Gilbert-Elliott state.
};

}  // namespace hbosim::edgesvc
