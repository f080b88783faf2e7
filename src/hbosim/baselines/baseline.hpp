#pragma once

#include <string>
#include <vector>

#include "hbosim/app/mar_app.hpp"

/// \file baseline.hpp
/// Common result shape for the paper's four baselines (Section V-A).
/// Every baseline is a procedure that drives a MarApp into its steady
/// configuration and measures one settle period.

namespace hbosim::baselines {

/// Length of the settle period every baseline measures its final
/// configuration over.
inline constexpr double kSettleS = 4.0;

struct BaselineOutcome {
  std::string name;
  std::vector<soc::Delegate> allocation;
  double triangle_ratio = 1.0;        ///< Total ratio x actually applied.
  std::vector<double> object_ratios;  ///< Per-object ratios applied.
  app::PeriodMetrics metrics;         ///< Measured at the final config.
};

}  // namespace hbosim::baselines
