#pragma once

#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "hbosim/common/types.hpp"

/// \file trace.hpp
/// Named time-series recorder. Benches use it to collect figure data
/// (e.g., per-task latency over time for Fig. 2) and dump it as CSV.

namespace hbosim::des {

struct TracePoint {
  SimTime time;
  double value;
};

/// One recorded series.
using TraceSeries = std::vector<TracePoint>;

class TraceRecorder {
 public:
  /// Append a sample to the named series, creating it on first use.
  void record(const std::string& series, SimTime t, double value);

  /// Append a point-event marker (e.g., "allocation change C5"); markers
  /// render as annotation rows in dumps.
  void mark(SimTime t, const std::string& label);

  bool has_series(const std::string& series) const;
  const TraceSeries& series(const std::string& name) const;
  /// All series names, sorted.
  std::vector<std::string> series_names() const;
  const std::vector<std::pair<SimTime, std::string>>& markers() const {
    return markers_;
  }

  /// Average value of a series over [t0, t1] (samples within the window).
  double window_mean(const std::string& series, SimTime t0, SimTime t1) const;

  /// Emit `time,value` CSV for one series.
  void dump_series_csv(const std::string& series, std::ostream& os) const;

 private:
  std::map<std::string, TraceSeries> series_;  ///< Keyed (so sorted) by name.
  std::vector<std::pair<SimTime, std::string>> markers_;
};

}  // namespace hbosim::des
