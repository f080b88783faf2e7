#include "hbosim/edgesvc/link_model.hpp"

#include <cmath>
#include <string>

#include "hbosim/common/error.hpp"

namespace hbosim::edgesvc {

namespace {

void require_prob(double p, const char* what) {
  HB_REQUIRE(std::isfinite(p) && p >= 0.0 && p <= 1.0,
             std::string(what) + " must be a probability in [0, 1]");
}

}  // namespace

void LinkModelConfig::validate() const {
  HB_REQUIRE(std::isfinite(rtt_ms) && rtt_ms >= 0.0,
             "link rtt_ms must be finite and >= 0");
  HB_REQUIRE(std::isfinite(mbit_per_s) && mbit_per_s >= kMinLinkMbitPerS,
             "link mbit_per_s must be >= " + std::to_string(kMinLinkMbitPerS) +
                 " Mbit/s — zero/near-zero throughput would produce "
                 "unbounded transfer times");
  HB_REQUIRE(std::isfinite(rtt_jitter_frac) && rtt_jitter_frac >= 0.0 &&
                 rtt_jitter_frac < 1.0,
             "link rtt_jitter_frac must be in [0, 1)");
  require_prob(p_good_to_bad, "link p_good_to_bad");
  require_prob(p_bad_to_good, "link p_bad_to_good");
  require_prob(loss_good, "link loss_good");
  require_prob(loss_bad, "link loss_bad");
  HB_REQUIRE(std::isfinite(background_flows) && background_flows >= 0.0,
             "link background_flows must be finite and >= 0");
}

LinkModel::LinkModel(LinkModelConfig cfg) : cfg_(cfg) { cfg_.validate(); }

double LinkModel::effective_mbit_per_s() const {
  return cfg_.mbit_per_s /
         (1.0 + cfg_.share_weight * cfg_.background_flows);
}

double LinkModel::nominal_seconds(std::uint64_t payload_bytes) const {
  const double bits = static_cast<double>(payload_bytes) * 8.0;
  return cfg_.rtt_ms * 1e-3 + bits / (effective_mbit_per_s() * 1e6);
}

LinkSample LinkModel::sample(std::uint64_t payload_bytes, Rng& rng) {
  // Advance the Gilbert-Elliott state once per exchange, then sample loss
  // from the state's rate. Draws are skipped when a probability is exactly
  // 0 so a loss-free config consumes no generator state for losses.
  if (bad_) {
    if (cfg_.p_bad_to_good > 0.0 && rng.uniform() < cfg_.p_bad_to_good)
      bad_ = false;
  } else {
    if (cfg_.p_good_to_bad > 0.0 && rng.uniform() < cfg_.p_good_to_bad)
      bad_ = true;
  }
  const double loss = bad_ ? cfg_.loss_bad : cfg_.loss_good;
  LinkSample out;
  if (loss > 0.0 && rng.uniform() < loss) {
    out.lost = true;
    return out;
  }
  double rtt_scale = 1.0;
  if (cfg_.rtt_jitter_frac > 0.0)
    rtt_scale += cfg_.rtt_jitter_frac * rng.uniform(-1.0, 1.0);
  const double bits = static_cast<double>(payload_bytes) * 8.0;
  out.seconds = cfg_.rtt_ms * 1e-3 * rtt_scale +
                bits / (effective_mbit_per_s() * 1e6);
  return out;
}

}  // namespace hbosim::edgesvc
