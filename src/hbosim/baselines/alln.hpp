#pragma once

#include "hbosim/baselines/baseline.hpp"

/// \file alln.hpp
/// All NNAPI (AllN): every AI task runs through Android's NNAPI delegate
/// (per-operator splitting across CPU/GPU/NPU), objects stay at full
/// quality — the state-of-the-practice the paper compares against. Models
/// with no NNAPI path ("NA" in Table I) fall back to their best supported
/// delegate, as the Android runtime does.

namespace hbosim::baselines {

BaselineOutcome run_alln(app::MarApp& app);

}  // namespace hbosim::baselines
