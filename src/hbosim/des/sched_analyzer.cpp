#include "hbosim/des/sched_analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <limits>
#include <numeric>
#include <ostream>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "hbosim/common/error.hpp"
#include "hbosim/common/stats.hpp"
#include "hbosim/common/table.hpp"
#include "hbosim/telemetry/telemetry.hpp"

namespace hbosim::des {

namespace {

constexpr const char* kUntagged = "(untagged)";

/// Service below this (seconds of rate-1 work in a window) is floating-
/// point residue from clamped accrual, not real attained service.
constexpr double kServiceEps = 1e-12;

const char* tag_name(const char* cls) {
  return cls != nullptr ? cls : kUntagged;
}

/// Orders dense class ids by class name.
auto by_class_name(const std::vector<const char*>& names) {
  return [&names](std::uint32_t a, std::uint32_t b) {
    return std::strcmp(names[a], names[b]) < 0;
  };
}

/// The starvation rule, for the analyzer and the meter alike: a completed
/// job starves when its wait exceeds k x max(class median wait, floor).
double starvation_limit(const SchedAnalyzerConfig& cfg, double median_s) {
  return cfg.starvation_k * std::max(median_s, cfg.min_wait_floor_s);
}
bool starves(double wait_s, double limit_s) { return wait_s > limit_s; }

/// Dense class ids in first-appearance order, keyed by pointer for speed
/// and by name for identity: two copies of one tag are one class.
struct ClassTable {
  std::unordered_map<const char*, std::uint32_t> by_ptr;
  std::unordered_map<std::string_view, std::uint32_t> by_name;
  std::vector<const char*> names;  ///< Class id -> tag.

  std::uint32_t id(const char* cls) {
    if (const auto it = by_ptr.find(cls); it != by_ptr.end())
      return it->second;
    const char* name = tag_name(cls);
    const auto [it, fresh] = by_name.try_emplace(
        std::string_view(name), static_cast<std::uint32_t>(names.size()));
    if (fresh) names.push_back(name);
    by_ptr.emplace(cls, it->second);
    return it->second;
  }
};

/// The exact replay of one resource's stream, shared by SchedAnalyzer (fed
/// from a ring) and SchedMeter (fed as records happen). Between records
/// the active set and per-job rate are constant (every rate change emits
/// a record), so each interval is served window by window.
class Replay {
 public:
  /// A job in service; its record waits in recs_, so the walk stays small.
  struct Job {
    JobId id = 0;
    double remaining = 0.0;   ///< Demand not yet served.
    std::uint32_t cls = 0;    ///< Dense class id.
    std::uint32_t slot = 0;   ///< Its record in recs_.
    std::size_t ordinal = 0;  ///< Admission order on the resource.
  };

  Replay(ClassTable& classes, double window_s, std::uint16_t resource)
      : classes_(&classes), window_s_(window_s), resource_(resource) {}

  /// Apply one record; `closed(rec, job)` sees each job it ends.
  template <typename Closed>
  void step(const SchedEvent& ev, Closed&& closed) {
    accrue(ev.time);
    t_prev_ = ev.time;
    switch (ev.kind) {
      case SchedEventKind::Submit: {
        HB_REQUIRE(admitted_ == 0 || ev.job > last_id_,
                   "sched trace job ids must increase with submission on "
                   "each resource");
        last_id_ = ev.job;
        const std::uint32_t c = classes_->id(ev.cls);
        if (c >= service_.size()) service_.resize(c + 1, 0.0);
        if (free_.empty()) {
          free_.push_back(static_cast<std::uint32_t>(recs_.size()));
          recs_.emplace_back();
        }
        live_.push_back({ev.job, ev.demand, c, free_.back(), admitted_++});
        free_.pop_back();
        recs_[live_.back().slot] = {
            .resource = resource_, .job = ev.job, .cls = ev.cls,
            .submit_s = ev.time, .demand = ev.demand, .cores = ev.cores,
            .ideal_s = ev.solo_rate > 0.0 ? ev.demand / ev.solo_rate : 0.0};
        break;
      }
      case SchedEventKind::Complete: {
        const auto it = std::lower_bound(
            live_.begin(), live_.end(), ev.job,
            [](const Job& j, JobId id) { return j.id < id; });
        if (it != live_.end() && it->id == ev.job) {
          close(*it, ev.time, true, closed);
          live_.erase(it);
        }
        // else: the Submit fell off a wrapped ring — the job is not
        // reconstructable; the drop counter already accounts for it.
        break;
      }
      case SchedEventKind::Rescale:
        break;
    }
    share_ = ev.share;
  }

  /// End of stream: close the open window; jobs still in service close
  /// uncompleted at the last record's time.
  template <typename Closed>
  void finish(Closed&& closed) {
    close_window();
    for (const Job& job : live_) close(job, t_prev_, false, closed);
    live_.clear();
  }

  std::vector<FairnessWindow> windows;  ///< Closed windows with service.
  double service_s = 0.0;               ///< Service delivered, by window.

 private:
  /// Finalize a job leaving service, hand it to `closed`, free its slot.
  template <typename Closed>
  void close(const Job& job, double end_s, bool completed, Closed& closed) {
    SchedJobRecord& rec = recs_[job.slot];
    rec.end_s = end_s;
    rec.turnaround_s = end_s - rec.submit_s;
    if (rec.ideal_s > 0.0) {
      rec.wait_s = std::max(0.0, rec.turnaround_s - rec.ideal_s);
      rec.slowdown = rec.turnaround_s / rec.ideal_s;
    } else {
      rec.wait_s = rec.turnaround_s;
      rec.slowdown = 1.0;
    }
    rec.completed = completed;
    closed(rec, job);
    free_.push_back(job.slot);
  }

  void accrue(double to) {
    if (live_.empty()) return;  // the open window closes at next service
    double t = t_prev_;
    while (t < to) {
      const auto widx = static_cast<std::uint64_t>(std::floor(t / window_s_));
      const double wend = (static_cast<double>(widx) + 1.0) * window_s_;
      const double t_next = std::min(to, wend);
      const double dt = t_next - t;
      if (dt > 0.0 && share_ > 0.0) {
        if (widx != open_) {
          close_window();
          open_ = widx;
        }
        serve(share_ * dt);
      }
      if (t_next <= t) break;  // window_s underflow guard
      t = t_next;
    }
  }

  /// Serve `progress` to every live job: share * dt clamped to its
  /// remaining demand — the arithmetic PsResource::advance_progress
  /// performs. Neighbouring jobs often share a class (a saturated unit is
  /// mostly one model's backlog), so that class's running sum stays in
  /// `sum` until the class changes; each class still adds its jobs'
  /// service in job order, so no sum changes.
  void serve(double progress) {
    std::uint32_t cls = live_.front().cls;
    double sum = service_[cls];
    for (Job& job : live_) {
      const double used = std::min(progress, job.remaining);
      if (used > 0.0) {
        job.remaining -= used;
        if (job.cls != cls) {
          service_[cls] = sum;
          cls = job.cls;
          sum = service_[cls];
        }
        // Zero until the class first accrues in this window.
        if (sum == 0.0) served_.push_back(cls);
        sum += used;
      }
    }
    service_[cls] = sum;
  }

  /// Close the open window: its Jain index over the classes that attained
  /// service. Classes are summed in name order, so no floating-point
  /// summation order depends on class ids or allocation addresses.
  void close_window() {
    std::sort(served_.begin(), served_.end(), by_class_name(classes_->names));
    double sum = 0.0, sum_sq = 0.0, total = 0.0;
    std::size_t n = 0;
    for (const std::uint32_t c : served_) {
      const double x = std::exchange(service_[c], 0.0);
      total += x;
      if (x > kServiceEps) {
        sum += x;
        sum_sq += x * x;
        ++n;
      }
    }
    served_.clear();
    if (n == 0) return;
    FairnessWindow w;
    w.resource = resource_;
    w.begin_s = static_cast<double>(open_) * window_s_;
    w.end_s = w.begin_s + window_s_;
    w.jain = (sum * sum) / (static_cast<double>(n) * sum_sq);
    w.classes = n;
    windows.push_back(w);
    service_s += total;
  }

  ClassTable* classes_;
  double window_s_;
  std::uint16_t resource_;
  std::vector<Job> live_;  ///< In service, in admission (id) order.
  std::vector<SchedJobRecord> recs_;  ///< Live jobs' records, by slot.
  std::vector<std::uint32_t> free_;   ///< Unused slots of recs_.
  std::vector<double> service_;  ///< Open window's service per class id.
  std::vector<std::uint32_t> served_;  ///< Classes with service in it.
  double share_ = 0.0;
  double t_prev_ = 0.0;
  std::uint64_t open_ = 0;  ///< Tumbling window `service_` accrues into.
  std::size_t admitted_ = 0;
  JobId last_id_ = 0;  ///< Last admitted job id.
};

}  // namespace

SchedAnalyzer::SchedAnalyzer(const SchedTrace& trace, SchedAnalyzerConfig cfg)
    : cfg_(cfg) {
  health_.events = trace.total_recorded();
  health_.dropped_events = trace.total_dropped();
  replay(trace);
  summarize();
  health_.jobs = 0;
  for (const SchedResourceStats& r : resources_) health_.jobs += r.wait.count;
  health_.worst_p99_slowdown = 0.0;
  for (const SchedResourceStats& r : resources_) {
    if (r.wait.count > 0)
      health_.worst_p99_slowdown =
          std::max(health_.worst_p99_slowdown, r.slowdown.p99);
  }
  health_.fairness_floor = 1.0;
  for (const FairnessWindow& w : windows_)
    health_.fairness_floor = std::min(health_.fairness_floor, w.jain);
  health_.starved_jobs = starved_.size();
}

void SchedAnalyzer::replay(const SchedTrace& trace) {
  const std::size_t n_res = trace.resources();
  resource_names_.resize(n_res);
  resources_.resize(n_res);
  resource_jobs_.assign(n_res + 1, 0);
  // Each job leaves a Submit and a Complete record.
  jobs_.reserve(static_cast<std::size_t>(
      (trace.total_recorded() - trace.total_dropped()) / 2));
  job_class_.reserve(jobs_.capacity());

  ClassTable classes;
  for (std::size_t r = 0; r < n_res; ++r) {
    const auto rid = static_cast<std::uint16_t>(r);
    resource_names_[r] = trace.resource_name(rid);
    resources_[r].resource = resource_names_[r];
    const std::size_t base = resource_jobs_[r] = jobs_.size();
    // A job's record lands at its admission ordinal, so jobs_ comes out
    // in (resource, submit, id) order without a sort.
    auto closed = [&](const SchedJobRecord& rec, const Replay::Job& job) {
      const std::size_t j = base + job.ordinal;
      jobs_.resize(std::max(jobs_.size(), j + 1));
      job_class_.resize(jobs_.size());
      jobs_[j] = rec;
      job_class_[j] = job.cls;
    };
    Replay stream(classes, cfg_.fairness_window_s, rid);
    const SchedTrace::Runs runs = trace.runs(rid);
    for (const SchedEvent& ev : runs.older) stream.step(ev, closed);
    for (const SchedEvent& ev : runs.newer) stream.step(ev, closed);
    // Jobs still in service when the trace ended stay in the Gantt (end =
    // last event time) but are excluded from wait/slowdown stats.
    stream.finish(closed);
    windows_.insert(windows_.end(), stream.windows.begin(),
                    stream.windows.end());
    resources_[r].service_s = stream.service_s;
  }
  resource_jobs_[n_res] = jobs_.size();
  class_names_ = std::move(classes.names);
}

void SchedAnalyzer::summarize() {
  const std::size_t n_classes = class_names_.size();
  // Class ids in name order: the per-class tables list classes by name.
  std::vector<std::uint32_t> by_name(n_classes);
  std::iota(by_name.begin(), by_name.end(), 0u);
  std::sort(by_name.begin(), by_name.end(), by_class_name(class_names_));

  std::vector<double> threshold(n_classes);
  for (std::size_t r = 0; r < resources_.size(); ++r) {
    SchedResourceStats& rs = resources_[r];
    std::vector<double> waits, slowdowns;
    std::vector<std::vector<double>> class_waits(n_classes);
    std::vector<std::vector<double>> class_slowdowns(n_classes);
    std::vector<double> attained(n_classes, 0.0);
    for (std::size_t j = resource_jobs_[r]; j < resource_jobs_[r + 1]; ++j) {
      const SchedJobRecord& job = jobs_[j];
      if (!job.completed) continue;
      const std::uint32_t c = job_class_[j];
      waits.push_back(job.wait_s);
      slowdowns.push_back(job.slowdown);
      class_waits[c].push_back(job.wait_s);
      class_slowdowns[c].push_back(job.slowdown);
      attained[c] += job.demand;
    }
    rs.wait = hbosim::summarize(std::move(waits));
    rs.slowdown = hbosim::summarize(std::move(slowdowns));
    for (const std::uint32_t c : by_name) {
      threshold[c] = std::numeric_limits<double>::infinity();
      if (class_waits[c].empty()) continue;
      SchedClassStats cs;
      cs.cls = class_names_[c];
      cs.attained_service_s = attained[c];
      cs.wait = hbosim::summarize(std::move(class_waits[c]));
      cs.slowdown = hbosim::summarize(std::move(class_slowdowns[c]));
      threshold[c] = starvation_limit(cfg_, cs.wait.p50);
      rs.classes.push_back(std::move(cs));
    }
    detect_starvation(r, threshold);
  }
}

void SchedAnalyzer::detect_starvation(std::size_t r,
                                      const std::vector<double>& threshold) {
  const std::size_t begin = resource_jobs_[r], end = resource_jobs_[r + 1];
  const std::size_t first = starved_.size();
  for (std::size_t j = begin; j < end; ++j) {
    const SchedJobRecord& job = jobs_[j];
    const double limit = threshold[job_class_[j]];
    if (!job.completed || !starves(job.wait_s, limit)) continue;
    StarvedJob sj;
    sj.job = job;
    sj.threshold_s = limit;
    // The job's wait grows monotonically from 0 once its ideal service
    // time has elapsed, so it crossed the threshold at:
    sj.flagged_at_s = job.submit_s + job.ideal_s + limit;
    starved_.push_back(std::move(sj));
  }

  // Contenders: one sweep over the flagging instants in time order. Jobs
  // join the active list in submit (= id) order once the sweep passes
  // their submit time and leave it for good once they ended, so the cost
  // is O(jobs + contenders reported) after sorting the flagged jobs.
  std::vector<std::size_t> queries(starved_.size() - first);
  std::iota(queries.begin(), queries.end(), first);
  std::sort(queries.begin(), queries.end(),
            [this](std::size_t a, std::size_t b) {
              return starved_[a].flagged_at_s < starved_[b].flagged_at_s;
            });
  std::vector<std::size_t> active;
  std::size_t next = begin;
  for (const std::size_t q : queries) {
    StarvedJob& sj = starved_[q];
    const double t = sj.flagged_at_s;
    while (next < end && jobs_[next].submit_s <= t) active.push_back(next++);
    std::erase_if(active, [&](std::size_t j) { return jobs_[j].end_s <= t; });
    sj.contenders.reserve(active.size());
    for (const std::size_t j : active) {
      if (jobs_[j].job != sj.job.job)
        sj.contenders.emplace_back(jobs_[j].job, tag_name(jobs_[j].cls));
    }
  }
}

void SchedAnalyzer::write_gantt_csv(std::ostream& os) const {
  CsvWriter csv(os, {"resource", "job", "class", "submit_s", "end_s",
                     "demand_s", "cores", "ideal_s", "wait_s", "slowdown",
                     "completed"});
  std::ostringstream num;
  num << std::setprecision(17);
  auto fmt = [&num](double v) {
    num.str("");
    num << v;
    return num.str();
  };
  for (const SchedJobRecord& j : jobs_) {
    csv.row(std::vector<std::string>{
        resource_names_[j.resource], std::to_string(j.job), tag_name(j.cls),
        fmt(j.submit_s), fmt(j.end_s), fmt(j.demand), fmt(j.cores),
        fmt(j.ideal_s), fmt(j.wait_s), fmt(j.slowdown),
        j.completed ? "1" : "0"});
  }
}

void SchedAnalyzer::export_perfetto_gantt(std::uint64_t track) const {
  if (!telemetry::enabled()) return;
  for (const SchedJobRecord& j : jobs_) {
    if (!j.completed) continue;
    const char* name = j.cls != nullptr
                           ? j.cls
                           : telemetry::intern(resource_names_[j.resource]);
    telemetry::sim_span("sched", name, track, j.submit_s, j.end_s);
  }
}

void SchedAnalyzer::print_report(std::ostream& os) const {
  os << "scheduler forensics: " << health_.jobs << " jobs from "
     << health_.events << " events";
  if (health_.dropped_events > 0)
    os << " (" << health_.dropped_events << " dropped: ring wrapped)";
  os << "\n";
  os << "  worst p99 slowdown " << std::fixed << std::setprecision(2)
     << health_.worst_p99_slowdown << "  fairness floor "
     << std::setprecision(3) << health_.fairness_floor << "  starved jobs "
     << health_.starved_jobs << "\n";

  TextTable table({"resource", "jobs", "wait p50/p95/p99 (ms)",
                   "slowdown p50/p95/p99"});
  auto dist3 = [](const Summary& d, double scale, int prec) {
    std::ostringstream s;
    s << std::fixed << std::setprecision(prec) << d.p50 * scale << " / "
      << d.p95 * scale << " / " << d.p99 * scale;
    return s.str();
  };
  for (const SchedResourceStats& rs : resources_) {
    if (rs.wait.count == 0) continue;
    table.add_row({rs.resource, std::to_string(rs.wait.count),
                   dist3(rs.wait, 1e3, 2), dist3(rs.slowdown, 1.0, 2)});
  }
  table.print(os);

  TextTable classes({"resource", "class", "jobs", "service (s)",
                     "wait p50/p99 (ms)", "slowdown p99"});
  for (const SchedResourceStats& rs : resources_) {
    for (const SchedClassStats& cs : rs.classes) {
      std::ostringstream wait2, sl, svc;
      wait2 << std::fixed << std::setprecision(2) << cs.wait.p50 * 1e3
            << " / " << cs.wait.p99 * 1e3;
      sl << std::fixed << std::setprecision(2) << cs.slowdown.p99;
      svc << std::fixed << std::setprecision(3) << cs.attained_service_s;
      classes.add_row({rs.resource, cs.cls, std::to_string(cs.wait.count),
                       svc.str(), wait2.str(), sl.str()});
    }
  }
  classes.print(os);

  if (!windows_.empty()) {
    double mean = 0.0;
    const FairnessWindow* floor = &windows_.front();
    for (const FairnessWindow& w : windows_) {
      mean += w.jain;
      if (w.jain < floor->jain) floor = &w;
    }
    mean /= static_cast<double>(windows_.size());
    os << "  fairness: " << windows_.size() << " windows of " << std::fixed
       << std::setprecision(1) << cfg_.fairness_window_s << " s, mean Jain "
       << std::setprecision(3) << mean << ", floor " << floor->jain << " on "
       << resource_names_[floor->resource] << " at ["
       << std::setprecision(1) << floor->begin_s << ", " << floor->end_s
       << ") s\n";
  }

  if (starved_.empty()) {
    os << "  no starved jobs (k=" << std::fixed << std::setprecision(1)
       << cfg_.starvation_k << ")\n";
  } else {
    os << "  " << starved_.size()
       << " starved jobs (wait > k x class median, k=" << std::fixed
       << std::setprecision(1) << cfg_.starvation_k << "), worst first:\n";
    // Worst offenders only: rank by how far past the threshold each job
    // got; the full set is in starved() / the Gantt CSV.
    std::vector<const StarvedJob*> ranked;
    ranked.reserve(starved_.size());
    for (const StarvedJob& sj : starved_) ranked.push_back(&sj);
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const StarvedJob* a, const StarvedJob* b) {
                       return a->job.wait_s / a->threshold_s >
                              b->job.wait_s / b->threshold_s;
                     });
    if (ranked.size() > 10) ranked.resize(10);
    for (const StarvedJob* sjp : ranked) {
      const StarvedJob& sj = *sjp;
      os << "    " << resource_names_[sj.job.resource] << " job "
         << sj.job.job << " [" << tag_name(sj.job.cls) << "] waited "
         << std::fixed << std::setprecision(2) << sj.job.wait_s * 1e3
         << " ms (threshold " << sj.threshold_s * 1e3 << " ms), "
         << sj.contenders.size() << " contenders at t=" << std::setprecision(3)
         << sj.flagged_at_s << " s:";
      std::size_t shown = 0;
      for (const auto& [id, cls] : sj.contenders) {
        if (shown++ == 6) {
          os << " ...";
          break;
        }
        os << " #" << id << "[" << cls << "]";
      }
      os << "\n";
    }
    if (starved_.size() > ranked.size()) {
      os << "    ... and " << starved_.size() - ranked.size() << " more\n";
    }
  }
}

struct SchedMeter::State {
  /// One resource's replay and what health needs of its completed jobs.
  struct Stream {
    Replay replay;
    const char* name;  ///< Interned; names the untagged jobs' slices.
    std::vector<double> slowdowns;
    std::vector<std::vector<double>> waits;  ///< By class id.

    void operator()(const SchedJobRecord& rec, const Replay::Job& job) {
      if (!rec.completed) return;
      slowdowns.push_back(rec.slowdown);
      if (job.cls >= waits.size()) waits.resize(job.cls + 1);
      waits[job.cls].push_back(rec.wait_s);
      if (telemetry::enabled())
        telemetry::sim_span("sched", rec.cls != nullptr ? rec.cls : name,
                            rec.submit_s, rec.end_s);
    }
  };

  SchedAnalyzerConfig cfg;
  ClassTable classes;
  std::vector<Stream> streams;
  std::uint64_t events = 0;
};

SchedMeter::SchedMeter(SchedAnalyzerConfig cfg)
    : state_(std::make_unique<State>(State{cfg, {}, {}, 0})) {}

SchedMeter::~SchedMeter() = default;

std::uint16_t SchedMeter::register_resource(const std::string& name) {
  HB_REQUIRE(state_->streams.size() < 0xFFFFu,
             "too many sched-metered resources");
  const auto id = static_cast<std::uint16_t>(state_->streams.size());
  state_->streams.push_back(
      {Replay(state_->classes, state_->cfg.fairness_window_s, id),
       telemetry::intern(name), {}, {}});
  return id;
}

void SchedMeter::record(const SchedEvent& ev) {
  ++state_->events;
  State::Stream& st = state_->streams.at(ev.resource);
  st.replay.step(ev, st);
}

SchedHealth SchedMeter::finish() {
  State& s = *state_;
  SchedHealth h;
  h.events = s.events;
  for (State::Stream& st : s.streams) {
    st.replay.finish(st);
    for (const FairnessWindow& w : st.replay.windows)
      h.fairness_floor = std::min(h.fairness_floor, w.jain);
    if (st.slowdowns.empty()) continue;
    h.jobs += st.slowdowns.size();
    h.worst_p99_slowdown = std::max(h.worst_p99_slowdown,
                                    percentile_select(st.slowdowns, 99.0));
    for (std::vector<double>& waits : st.waits) {
      if (waits.empty()) continue;
      const double limit =
          starvation_limit(s.cfg, percentile_select(waits, 50.0));
      for (const double w : waits) {
        if (starves(w, limit)) ++h.starved_jobs;
      }
    }
  }
  return h;
}

}  // namespace hbosim::des
