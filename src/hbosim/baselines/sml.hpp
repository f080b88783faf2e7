#pragma once

#include "hbosim/baselines/baseline.hpp"

/// \file sml.hpp
/// Static Match Latency (SML): static best-in-isolation allocation, with
/// the total triangle count "gradually reduced until the average latency
/// is similar to that of HBO" (Section V-A). Quantifies how much quality
/// a static allocator must burn to buy HBO's latency.

namespace hbosim::baselines {

struct SmlConfig {
  double target_latency_ratio = 0.0;  ///< HBO's epsilon to match.
  static constexpr double step = 0.05;    ///< Ratio decrement per probe.
  static constexpr double probe_s = 2.0;  ///< Measurement window per probe.
};

/// Scans x down from 1 by SmlConfig::step, never below the system-wide
/// R_min of Constraint 10 (core::HboConfig::r_min; the paper's SML bottoms
/// out at 0.2 in the user study), then measures kSettleS.
BaselineOutcome run_sml(app::MarApp& app, const SmlConfig& cfg);

}  // namespace hbosim::baselines
