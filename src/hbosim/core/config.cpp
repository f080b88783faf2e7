#include "hbosim/core/config.hpp"

#include <cmath>

#include "hbosim/common/error.hpp"

namespace hbosim::core {

void HboConfig::validate() const {
  // An infinite weight or price makes every measured cost infinite, which
  // the optimizer rejects mid-run; an infinite period never ends.
  HB_REQUIRE(std::isfinite(w_energy) && w_energy >= 0.0,
             "weight w_energy must be finite and non-negative");
  HB_REQUIRE(std::isfinite(market_price) && market_price >= 0.0,
             "market_price must be finite and non-negative");
  HB_REQUIRE(n_initial >= 1, "need at least one initial configuration");
  HB_REQUIRE(n_iterations >= 0, "iteration count must be non-negative");
  HB_REQUIRE(selection_candidates >= 1, "need at least one selection candidate");
  HB_REQUIRE(std::isfinite(control_period_s) && control_period_s > 0.0,
             "control period must be finite and positive");
  HB_REQUIRE(std::isfinite(monitor_period_s) && monitor_period_s > 0.0,
             "monitor period must be finite and positive");
}

}  // namespace hbosim::core
