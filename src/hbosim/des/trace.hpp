#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "hbosim/common/types.hpp"

/// \file trace.hpp
/// Named time-series recorder. Benches use it to collect figure data
/// (e.g., per-task latency over time for Fig. 2) and dump it as CSV.
///
/// Two recording APIs share one store: the string API hashes the series
/// name on every call (fine for cold paths), while `series_id()` interns
/// the name once and `record(SeriesId, ...)` appends with a plain vector
/// index — the right shape for per-event recording inside a DES loop.

namespace hbosim::des {

struct TracePoint {
  SimTime time;
  double value;
};

/// Stable handle for a recorder series; valid until clear().
using SeriesId = std::size_t;

/// One recorded series.
using TraceSeries = std::vector<TracePoint>;

class TraceRecorder {
 public:
  /// Append a sample to the named series (hashes the name every call).
  void record(const std::string& series, SimTime t, double value);

  /// Intern a series name; repeated calls with the same name return the
  /// same id. Creates the (empty) series if it does not exist yet.
  SeriesId series_id(const std::string& series);

  /// Append a sample via an interned handle — no hashing, no allocation
  /// beyond vector growth.
  void record(SeriesId id, SimTime t, double value);

  /// Append a point-event marker (e.g., "allocation change C5"); markers
  /// render as annotation rows in dumps.
  void mark(SimTime t, const std::string& label);

  bool has_series(const std::string& series) const;
  const TraceSeries& series(const std::string& name) const;
  const TraceSeries& series(SeriesId id) const;
  /// All series names, sorted.
  std::vector<std::string> series_names() const;
  const std::vector<std::pair<SimTime, std::string>>& markers() const {
    return markers_;
  }

  /// Average value of a series over [t0, t1] (samples within the window).
  double window_mean(const std::string& series, SimTime t0, SimTime t1) const;

  /// Emit `time,value` CSV for one series.
  void dump_series_csv(const std::string& series, std::ostream& os) const;

  /// Emit every series and marker as one long-format `time,series,value`
  /// table, rows in time order (ties keep series-registration order, with
  /// markers last). Markers dump as series "marker" with the label in the
  /// value column.
  void dump_all_csv(std::ostream& os) const;

  void clear();

 private:
  struct Series {
    std::string name;
    TraceSeries points;
  };

  const Series* find(const std::string& name) const;

  std::vector<Series> series_;
  std::unordered_map<std::string, SeriesId> index_;
  std::vector<std::pair<SimTime, std::string>> markers_;
};

}  // namespace hbosim::des
