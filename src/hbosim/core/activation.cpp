#include "hbosim/core/activation.hpp"

#include <algorithm>
#include <cmath>

#include "hbosim/common/error.hpp"
#include "hbosim/core/config.hpp"

namespace hbosim::core {

double EventActivationPolicy::reference() const {
  HB_REQUIRE(has_reference_, "no reference reward recorded yet");
  return reference_;
}

void EventActivationPolicy::set_reference(double reward) {
  reference_ = reward;
  has_reference_ = true;
}

bool EventActivationPolicy::should_activate(double current_reward) const {
  ++evaluations_;
  if (!has_reference_) return true;
  const double base = std::max(std::abs(reference_), reference_floor);
  const double delta = current_reward - reference_;
  if (delta > HboConfig::up_fraction * base) return true;
  if (delta < -HboConfig::down_fraction * base) return true;
  return false;
}

PeriodicActivationPolicy::PeriodicActivationPolicy(std::size_t period_ticks)
    : period_ticks_(period_ticks) {
  HB_REQUIRE(period_ticks_ > 0, "period must be positive");
}

bool PeriodicActivationPolicy::should_activate() {
  const bool fire = (tick_ % period_ticks_) == 0;
  ++tick_;
  return fire;
}

}  // namespace hbosim::core
