#include "hbosim/ai/latency_stats.hpp"

#include "hbosim/common/error.hpp"

namespace hbosim::ai {

double average_latency_ratio(const std::vector<LatencySample>& samples) {
  HB_REQUIRE(!samples.empty(), "Eq. 4 needs at least one task sample");
  double acc = 0.0;
  for (const LatencySample& s : samples) {
    HB_REQUIRE(s.expected_ms > 0.0, "expected latency must be positive");
    acc += (s.measured_ms - s.expected_ms) / s.expected_ms;
  }
  return acc / static_cast<double>(samples.size());
}

}  // namespace hbosim::ai
