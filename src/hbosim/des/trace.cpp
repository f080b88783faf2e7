#include "hbosim/des/trace.hpp"

#include "hbosim/common/error.hpp"
#include "hbosim/common/table.hpp"

namespace hbosim::des {

void TraceRecorder::record(const std::string& series, SimTime t, double value) {
  series_[series].push_back(TracePoint{t, value});
}

void TraceRecorder::mark(SimTime t, const std::string& label) {
  markers_.emplace_back(t, label);
}

bool TraceRecorder::has_series(const std::string& series) const {
  return series_.contains(series);
}

const TraceSeries& TraceRecorder::series(const std::string& name) const {
  const auto it = series_.find(name);
  HB_REQUIRE(it != series_.end(), "unknown trace series: " + name);
  return it->second;
}

std::vector<std::string> TraceRecorder::series_names() const {
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, points] : series_) out.push_back(name);
  return out;
}

double TraceRecorder::window_mean(const std::string& name, SimTime t0,
                                  SimTime t1) const {
  const auto& pts = series(name);
  double acc = 0.0;
  std::size_t n = 0;
  for (const auto& p : pts) {
    if (p.time >= t0 && p.time <= t1) {
      acc += p.value;
      ++n;
    }
  }
  return n ? acc / static_cast<double>(n) : 0.0;
}

void TraceRecorder::dump_series_csv(const std::string& name,
                                    std::ostream& os) const {
  os << "time,";
  write_csv_field(os, name);
  os << '\n';
  for (const auto& p : series(name)) os << p.time << ',' << p.value << '\n';
}

}  // namespace hbosim::des
