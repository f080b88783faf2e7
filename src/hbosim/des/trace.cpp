#include "hbosim/des/trace.hpp"

#include <algorithm>

#include "hbosim/common/error.hpp"
#include "hbosim/common/table.hpp"

namespace hbosim::des {

SeriesId TraceRecorder::series_id(const std::string& series) {
  auto it = index_.find(series);
  if (it != index_.end()) return it->second;
  const SeriesId id = series_.size();
  series_.push_back(Series{series, {}});
  index_.emplace(series, id);
  return id;
}

void TraceRecorder::record(const std::string& series, SimTime t, double value) {
  record(series_id(series), t, value);
}

void TraceRecorder::record(SeriesId id, SimTime t, double value) {
  HB_REQUIRE(id < series_.size(), "invalid trace series id");
  series_[id].points.push_back(TracePoint{t, value});
}

void TraceRecorder::mark(SimTime t, const std::string& label) {
  markers_.emplace_back(t, label);
}

const TraceRecorder::Series* TraceRecorder::find(
    const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : &series_[it->second];
}

bool TraceRecorder::has_series(const std::string& series) const {
  return find(series) != nullptr;
}

const TraceSeries& TraceRecorder::series(const std::string& name) const {
  const Series* s = find(name);
  HB_REQUIRE(s != nullptr, "unknown trace series: " + name);
  return s->points;
}

const TraceSeries& TraceRecorder::series(SeriesId id) const {
  HB_REQUIRE(id < series_.size(), "invalid trace series id");
  return series_[id].points;
}

std::vector<std::string> TraceRecorder::series_names() const {
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const Series& s : series_) out.push_back(s.name);
  std::sort(out.begin(), out.end());
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

void TraceRecorder::dump_all_csv(std::ostream& os) const {
  struct Row {
    SimTime time;
    const std::string* series;
    const TracePoint* point;   // null for marker rows
    const std::string* label;  // null for sample rows
  };
  static const std::string kMarkerSeries = "marker";

  std::vector<Row> rows;
  std::size_t total = markers_.size();
  for (const Series& s : series_) total += s.points.size();
  rows.reserve(total);
  for (const Series& s : series_)
    for (const TracePoint& p : s.points)
      rows.push_back(Row{p.time, &s.name, &p, nullptr});
  for (const auto& [t, label] : markers_)
    rows.push_back(Row{t, &kMarkerSeries, nullptr, &label});

  // Stable: equal-time rows keep series-registration order, markers last.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) { return a.time < b.time; });

  os << "time,series,value\n";
  for (const Row& r : rows) {
    os << r.time << ',';
    write_csv_field(os, *r.series);
    os << ',';
    if (r.point != nullptr)
      os << r.point->value;
    else
      write_csv_field(os, *r.label);
    os << '\n';
  }
}

void TraceRecorder::clear() {
  series_.clear();
  index_.clear();
  markers_.clear();
}

}  // namespace hbosim::des
