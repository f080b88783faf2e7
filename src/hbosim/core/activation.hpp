#pragma once

#include <cstddef>

/// \file activation.hpp
/// Section IV-E: the event-based activation policy. HBO runs once after
/// the first object placement to establish a reference reward B_ref, then
/// monitors B_t periodically and re-activates only when the reward departs
/// from the reference by more than a fixed fraction — upward (e.g. the
/// user stepped back and quality headroom appeared; paper threshold +5%)
/// or downward (e.g. a heavy object landed and AI latency spiked; paper
/// threshold -10%). A periodic policy is provided for the Fig. 8b
/// comparison.

namespace hbosim::core {

/// Fires on HboConfig::up_fraction / down_fraction (the paper's 5% / 10%)
/// of max(|reference|, reference_floor).
class EventActivationPolicy {
 public:
  /// The floor sets the absolute threshold scale when the reference
  /// reward is small: it keeps the 5%/10% fractions above the
  /// reward-measurement noise of a 2-second control window (NPU-collision
  /// jitter alone moves a window's epsilon by a few percent).
  static constexpr double reference_floor = 2.0;

  bool has_reference() const { return has_reference_; }
  double reference() const;

  /// Install a new reference (after an activation completes).
  void set_reference(double reward);

  /// Monitor tick: returns true when HBO should (re)activate. The first
  /// call before any reference exists always returns true (initial
  /// activation after first object placement).
  bool should_activate(double current_reward) const;

  std::size_t evaluations() const { return evaluations_; }

 private:
  bool has_reference_ = false;
  double reference_ = 0.0;
  mutable std::size_t evaluations_ = 0;
};

/// Fig. 8b's strawman: activate every `period_ticks` monitor ticks
/// regardless of the reward.
class PeriodicActivationPolicy {
 public:
  explicit PeriodicActivationPolicy(std::size_t period_ticks);

  /// Monitor tick; true every period_ticks-th call (and on the first).
  bool should_activate();

  std::size_t evaluations() const { return tick_; }

 private:
  std::size_t period_ticks_;
  std::size_t tick_ = 0;
};

}  // namespace hbosim::core
