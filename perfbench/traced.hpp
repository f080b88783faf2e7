#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark run reports on its last line.
struct RunOutcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// The traced run: one fleet batch, then as many of its sessions as fit
/// in `seconds` re-run on the calling thread three ways (untraced, as a
/// MonitoredSession with timed ticks, and as a replay of the same public
/// calls with a span around each), plus short drives of the edge client
/// and power manager. Turns the spans into per-layer costs and shares.
RunOutcome run_traced(const Workload& w, hbosim::fleet::FleetSimulator& fleet,
                      double seconds);

}  // namespace perfbench
