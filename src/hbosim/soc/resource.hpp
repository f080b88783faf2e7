#pragma once

#include <string>

/// \file resource.hpp
/// Physical compute units of a mobile SoC and the coarse-grained allocation
/// choices (delegates) HBO schedules over.
///
/// The distinction mirrors the paper: an AI task is allocated to a
/// *delegate* (CPU inference, the GPU delegate, or the NNAPI delegate),
/// while execution consumes one or more *physical units* (CPU cluster, GPU,
/// NPU). The NNAPI delegate in particular splits a model's operations
/// across the NPU and the GPU (paper footnotes 1-2), which is why heavy
/// rendering degrades NNAPI latency.

namespace hbosim::soc {

/// Physical compute unit kinds.
enum class Unit { Cpu = 0, Gpu = 1, Npu = 2 };
inline constexpr int kNumUnits = 3;

/// Coarse-grained allocation choices (the paper's N resources).
enum class Delegate { Cpu = 0, Gpu = 1, Nnapi = 2 };
inline constexpr int kNumDelegates = 3;

/// Full name, e.g. "NNAPI".
const char* delegate_name(Delegate d);

/// One-letter code used in the paper's Fig. 2 annotations (C/G/N).
char delegate_code(Delegate d);

/// All delegates in index order {Cpu, Gpu, Nnapi}.
Delegate delegate_from_index(int i);

}  // namespace hbosim::soc
