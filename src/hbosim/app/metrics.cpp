#include "hbosim/app/metrics.hpp"

namespace hbosim::app {

double PeriodMetrics::mean_task_latency_ms() const {
  if (task_latency_ms.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& [label, ms] : task_latency_ms) acc += ms;
  return acc / static_cast<double>(task_latency_ms.size());
}

void SessionStats::add(const PeriodMetrics& m, double w, SimTime now) {
  const double b = m.reward(w);
  reward_trace.emplace_back(now, b);
  quality.add(m.average_quality);
  latency_ratio.add(m.latency_ratio);
  reward.add(b);
}

}  // namespace hbosim::app
