#pragma once

#include <vector>

/// \file latency_stats.hpp
/// The paper's latency metric (Eq. 4): the average, across the M AI tasks,
/// of each task's *excess* latency relative to its isolation expectation,
///   epsilon = (1/M) * sum_m (tau^a_m - tau^e_m) / tau^e_m.
/// epsilon == 0 means every task runs exactly as fast as it would alone on
/// its best resource; epsilon == 1 means tasks take twice as long.

namespace hbosim::ai {

struct LatencySample {
  double measured_ms;  ///< tau^a: average observed latency this period.
  double expected_ms;  ///< tau^e: isolation latency on the best resource.
};

/// Eq. 4. Requires a non-empty sample set and positive expectations.
double average_latency_ratio(const std::vector<LatencySample>& samples);

}  // namespace hbosim::ai
