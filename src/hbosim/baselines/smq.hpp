#pragma once

#include "hbosim/baselines/baseline.hpp"

/// \file smq.hpp
/// Static Match Quality (SMQ): keeps the exact triangle distribution HBO
/// chose — so the average virtual-object quality matches HBO's — but pins
/// every AI task to its statically best delegate. Quantifies what HBO's
/// *dynamic allocation* contributes on top of quality control.

namespace hbosim::baselines {

/// `hbo_object_ratios` / `hbo_triangle_ratio` come from HBO's best
/// configuration on an identical app.
BaselineOutcome run_smq(app::MarApp& app,
                        const std::vector<double>& hbo_object_ratios,
                        double hbo_triangle_ratio);

}  // namespace hbosim::baselines
