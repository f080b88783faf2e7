#include "hbosim/offload/offload.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "hbosim/common/error.hpp"
#include "hbosim/telemetry/telemetry.hpp"

namespace hbosim::offload {

std::vector<double> plan_task_shares(double edge_share,
                                     std::span<const double> expected_ms) {
  const std::size_t n = expected_ms.size();
  std::vector<double> shares(n, 0.0);
  if (n == 0) return shares;
  double budget = std::clamp(edge_share, 0.0, 1.0) * static_cast<double>(n);
  if (budget <= 0.0) return shares;

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return expected_ms[a] > expected_ms[b];
                   });
  for (const std::size_t i : order) {
    const double s = std::min(1.0, budget);
    shares[i] = s;
    budget -= s;
    if (budget <= 0.0) break;
  }
  return shares;
}

OffloadExecutor::OffloadExecutor(OffloadConfig cfg, edgesvc::EdgeClient& client,
                                 des::Simulator& sim,
                                 power::PowerManager* power)
    : cfg_(cfg), client_(client), sim_(sim), power_(power) {}

ai::RemoteResult OffloadExecutor::execute(const ai::AiTask& task,
                                          double demand_s) {
  (void)task;
  HB_REQUIRE(std::isfinite(demand_s) && demand_s >= 0.0,
             "offloaded inference demand must be finite and >= 0");
  const double units = demand_s * 1e3 * cfg_.units_per_device_ms;
  const edgesvc::EdgeResponse resp = client_.perform(
      edgesvc::RequestClass::AiInference, units, cfg_.payload_bytes,
      sim_.now(), cfg_.timeout_s, cfg_.max_attempts);
  ++stats_.exchanges;
  stats_.edge_elapsed_s += resp.elapsed_s;
  // The radio was lit for the exchange, fallbacks included: full TX/RX
  // power while bits were on the air, idle-listen power while waiting on
  // the server or a lost response. A lossy link still burns battery
  // without delivering an answer — exactly the signal the w_energy cost
  // needs to steer offload away from bad links — but queueing no longer
  // bills at transfer power.
  const double on_air_s = std::min(resp.link_s, resp.elapsed_s);
  const double radio_j = cfg_.radio_w * on_air_s +
                         cfg_.radio_idle_w * (resp.elapsed_s - on_air_s);
  stats_.radio_energy_j += radio_j;
  if (power_ != nullptr && radio_j > 0.0) {
    power_->add_external_energy_j(radio_j);
  }
  if (resp.ok) {
    ++stats_.successes;
  } else {
    ++stats_.failures;
  }
  if (telemetry::enabled()) {
    HB_TELEM_COUNT("offload.exchanges", 1.0);
    HB_TELEM_HIST_US("offload.exchange_us", resp.elapsed_s * 1e6);
  }
  return ai::RemoteResult{resp.ok, resp.elapsed_s};
}

ai::InferenceEngine::RemoteExecutor OffloadExecutor::executor() {
  return [this](const ai::AiTask& task, double demand_s) {
    return execute(task, demand_s);
  };
}

}  // namespace hbosim::offload
