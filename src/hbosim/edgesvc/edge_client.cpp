#include "hbosim/edgesvc/edge_client.hpp"

#include <algorithm>
#include <cmath>

#include "hbosim/common/error.hpp"
#include "hbosim/telemetry/telemetry.hpp"

namespace hbosim::edgesvc {

void EdgeClientConfig::validate() const {
  HB_REQUIRE(std::isfinite(timeout_s) && timeout_s > 0.0,
             "edge client timeout_s must be positive");
}

void EdgeClient::set_resolution(double r) {
  HB_REQUIRE(std::isfinite(r) && r > 0.0 && r <= 1.0,
             "edge client resolution must be in (0, 1]");
  resolution_ = r;
}

EdgeClient::EdgeClient(EdgeClientConfig cfg, const EdgeServerSpec& server,
                       const BackgroundLoadConfig& background,
                       std::size_t background_tenants,
                       const LinkModelConfig& link, std::uint64_t tenant,
                       std::uint64_t seed)
    : cfg_(cfg),
      server_(server, background, background_tenants,
              SplitMix64(seed ^ 0xE0D6E5E6Dull).next()),
      link_(link),
      rng_(SplitMix64(seed ^ 0x11AA22BB33CC44DDull).next()),
      tenant_(tenant) {
  cfg_.validate();
}

double EdgeClient::nominal_backoff_s(int retry) const {
  HB_REQUIRE(retry >= 1, "retry index is 1-based");
  const double raw =
      cfg_.backoff_base_s * std::pow(cfg_.backoff_mult, retry - 1);
  return std::min(raw, cfg_.backoff_cap_s);
}

EdgeResponse EdgeClient::perform(RequestClass cls, double units,
                                 std::uint64_t payload_bytes, double now_s,
                                 double timeout_override_s,
                                 int max_attempts_override) {
  HB_REQUIRE(std::isfinite(now_s) && now_s >= 0.0,
             "edge request time must be finite and >= 0");
  HB_REQUIRE(std::isfinite(timeout_override_s) && timeout_override_s >= 0.0,
             "edge timeout override must be finite and >= 0");
  HB_REQUIRE(max_attempts_override >= 0,
             "edge attempt-budget override must be >= 0");
  const double timeout_s =
      timeout_override_s > 0.0 ? timeout_override_s : cfg_.timeout_s;
  const int max_attempts =
      max_attempts_override > 0 ? max_attempts_override : cfg_.max_attempts;
  if (cls != RequestClass::RemoteBo) {
    // Market-trimmed tenant: mesh area (and with it server work and
    // response size) shrinks with the resolution squared.
    const double area = resolution_ * resolution_;
    units *= area;
    payload_bytes = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(payload_bytes) * area));
  }
  ++stats_.requests;
  HB_TELEM_COUNT("edge.requests", 1.0);

  EdgeResponse out;
  double t = now_s;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    out.attempts = attempt;
    if (attempt > 1) {
      ++stats_.retries;
      HB_TELEM_COUNT("edge.retries", 1.0);
      double backoff = nominal_backoff_s(attempt - 1);
      backoff *= 1.0 + cfg_.backoff_jitter_frac * rng_.uniform(-1.0, 1.0);
      t += backoff;
    }

    EdgeRequest req;
    req.tenant = tenant_;
    req.cls = cls;
    req.units = units;
    req.arrival_s = t;
    req.deadline_s = t + timeout_s;
    const AdmissionResult adm = server_.submit(req);

    if (adm.status == AdmissionStatus::Rejected) {
      // Bounced at the queue: the NACK comes back after one exchange RTT.
      out.last_status = EdgeStatus::Rejected;
      ++stats_.rejected_attempts;
      HB_TELEM_COUNT("edge.rejected_attempts", 1.0);
      const LinkSample nack = link_.sample(0, rng_);
      if (!nack.lost) out.link_s += std::min(nack.seconds, timeout_s);
      t += nack.lost ? timeout_s
                     : std::min(nack.seconds, timeout_s);
      continue;
    }
    if (adm.status == AdmissionStatus::Shed) {
      out.last_status = EdgeStatus::TimedOut;
      ++stats_.timeout_attempts;
      HB_TELEM_COUNT("edge.timeout_attempts", 1.0);
      t += timeout_s;
      continue;
    }

    // Served: the response (real payload) crosses the shared link. The
    // attempt's demand is booked here — a lost or late response still
    // burned the core and occupied the downlink.
    stats_.units += units;
    stats_.own_service_s += server_.spec().service_seconds(cls, units);
    stats_.payload_bytes += payload_bytes;
    const LinkSample down = link_.sample(payload_bytes, rng_);
    if (down.lost) {
      out.last_status = EdgeStatus::LinkLost;
      ++stats_.lost_attempts;
      HB_TELEM_COUNT("edge.lost_attempts", 1.0);
      t += timeout_s;
      continue;
    }
    out.link_s += std::min(down.seconds, timeout_s);
    const double response_at = adm.completion_s + down.seconds;
    if (response_at > req.arrival_s + timeout_s) {
      out.last_status = EdgeStatus::TimedOut;
      ++stats_.timeout_attempts;
      HB_TELEM_COUNT("edge.timeout_attempts", 1.0);
      t += timeout_s;
      continue;
    }

    out.ok = true;
    out.last_status = EdgeStatus::Ok;
    out.elapsed_s = response_at - now_s;
    ++stats_.successes;
    stats_.total_elapsed_s += out.elapsed_s;
    if (telemetry::enabled()) {
      HB_TELEM_COUNT("edge.successes", 1.0);
      HB_TELEM_HIST_US("edge.response_sim_us", out.elapsed_s * 1e6);
    }
    return out;
  }

  // Attempt budget exhausted — the caller degrades on-device.
  out.elapsed_s = t - now_s;
  ++stats_.fallbacks;
  stats_.total_elapsed_s += out.elapsed_s;
  HB_TELEM_COUNT("edge.fallbacks", 1.0);
  return out;
}

}  // namespace hbosim::edgesvc
