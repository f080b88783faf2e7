#include "hbosim/core/cost.hpp"

namespace hbosim::core {

double reward(double average_quality, double latency_ratio, double w) {
  return average_quality - w * latency_ratio;
}

double cost(double average_quality, double latency_ratio, double w) {
  return -reward(average_quality, latency_ratio, w);
}

double cost_of(const hbosim::app::PeriodMetrics& m, const CostTerms& terms) {
  // Terms accumulate in a fixed order: base, then energy, then market.
  return cost(m.average_quality, m.latency_ratio, terms.w) +
         terms.w_energy * m.avg_power_w +
         terms.market_price * m.triangle_ratio;
}

}  // namespace hbosim::core
