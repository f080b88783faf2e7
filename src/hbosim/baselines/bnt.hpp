#pragma once

#include "hbosim/baselines/baseline.hpp"
#include "hbosim/core/config.hpp"

/// \file bnt.hpp
/// Bayesian No Triangle (BNT): HBO's Bayesian machinery and heuristic
/// allocation, but the triangle ratio is pinned at 1 (objects stay at full
/// quality) and the cost function is the average latency alone. Shows that
/// reallocating AI tasks without regulating object quality cannot reach
/// HBO's latency.

namespace hbosim::baselines {

/// `cfg` supplies the BO settings (initial samples, iterations, kernel);
/// its w is ignored because BNT's cost is epsilon only.
BaselineOutcome run_bnt(app::MarApp& app, const core::HboConfig& cfg);

}  // namespace hbosim::baselines
