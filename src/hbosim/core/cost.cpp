#include "hbosim/core/cost.hpp"

namespace hbosim::core {

double reward(double average_quality, double latency_ratio, double w) {
  return average_quality - w * latency_ratio;
}

double cost(double average_quality, double latency_ratio, double w) {
  return -reward(average_quality, latency_ratio, w);
}

double cost_of(const hbosim::app::PeriodMetrics& m, const CostTerms& terms) {
  // Terms accumulate in a fixed order — base, then energy, then market —
  // and a zero weight skips its addition entirely, so a zero-weight term
  // leaves the other terms' sum bit for bit unchanged.
  double phi = cost(m.average_quality, m.latency_ratio, terms.w);
  if (terms.w_energy != 0.0) phi += terms.w_energy * m.avg_power_w;
  if (terms.market_price != 0.0) phi += terms.market_price * m.triangle_ratio;
  return phi;
}

}  // namespace hbosim::core
