// Tests for hbosim::des scheduler forensics: the SchedTrace lifecycle
// event stream and its on-demand rings, the SchedAnalyzer's exact replay
// (closed-form wait / slowdown / Jain / starvation answers on
// hand-constructed schedules), a differential check against a
// straightforward reference analyzer on random streams, the SchedMeter's
// health against the analyzer's, queueing-theory and conservation
// oracles, and the two observational guarantees — attaching a sink
// changes no simulated result, and the fleet SchedHealth roll-up is
// thread-count invariant.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "hbosim/common/error.hpp"
#include "hbosim/common/rng.hpp"
#include "hbosim/common/stats.hpp"
#include "hbosim/des/ps_resource.hpp"
#include "hbosim/des/sched_analyzer.hpp"
#include "hbosim/des/sched_trace.hpp"
#include "hbosim/des/simulator.hpp"
#include "hbosim/fleet/fleet_simulator.hpp"

namespace hbosim {
namespace {

// ---------------------------------------------------------------------------
// SchedTrace: ring mechanics.

TEST(SchedTrace, RecordsAndRoundsCapacityToPowerOfTwo) {
  des::SchedTraceConfig cfg;
  cfg.capacity_per_resource = 3;  // rounds up to 4
  des::SchedTrace trace(cfg);
  const std::uint16_t rid = trace.register_resource("cpu");
  EXPECT_EQ(trace.resources(), 1u);
  EXPECT_EQ(trace.resource_name(rid), "cpu");

  for (int i = 0; i < 6; ++i) {
    des::SchedEvent ev;
    ev.time = static_cast<double>(i);
    ev.resource = rid;
    ev.job = static_cast<JobId>(i + 1);
    trace.record(ev);
  }
  EXPECT_EQ(trace.recorded(rid), 6u);
  EXPECT_EQ(trace.dropped(rid), 2u);  // ring holds 4, oldest 2 gone
  // Oldest-first among the retained records, split where the ring wrapped.
  const des::SchedTrace::Runs runs = trace.runs(rid);
  std::vector<JobId> order;
  for (const des::SchedEvent& ev : runs.older) order.push_back(ev.job);
  for (const des::SchedEvent& ev : runs.newer) order.push_back(ev.job);
  EXPECT_EQ(order, (std::vector<JobId>{3, 4, 5, 6}));
  EXPECT_EQ(trace.total_recorded(), 6u);
  EXPECT_EQ(trace.total_dropped(), 2u);
}

// Rings are allocated as records arrive, not at registration: a trace
// holds memory for what it recorded, never more than its capacity.
TEST(SchedTrace, RingsGrowOnDemandUpToCapacity) {
  // One record per 64-byte cache line, the unit the ring budget is in.
  EXPECT_EQ(sizeof(des::SchedEvent), 64u);

  des::SchedTrace trace;  // default capacity: 64 Ki records per resource
  for (const char* name : {"cpu", "gpu", "npu"}) trace.register_resource(name);
  EXPECT_EQ(trace.memory_bytes(), 0u);
  for (int i = 0; i < 10; ++i) {
    des::SchedEvent ev;
    ev.job = static_cast<JobId>(i + 1);
    trace.record(ev);
  }
  EXPECT_GT(trace.memory_bytes(), 0u);
  EXPECT_LE(trace.memory_bytes(), 64u * sizeof(des::SchedEvent));

  des::SchedTraceConfig cfg;
  cfg.capacity_per_resource = 8;
  des::SchedTrace capped(cfg);
  capped.register_resource("cpu");
  for (int i = 0; i < 100; ++i) {
    des::SchedEvent ev;
    ev.job = static_cast<JobId>(i + 1);
    capped.record(ev);
  }
  EXPECT_EQ(capped.memory_bytes(), 8u * sizeof(des::SchedEvent));
  EXPECT_EQ(capped.dropped(0), 92u);
  const des::SchedTrace::Runs runs = capped.runs(0);
  ASSERT_EQ(runs.older.size() + runs.newer.size(), 8u);
  EXPECT_EQ(runs.older.front().job, 93u);
  EXPECT_EQ(runs.newer.back().job, 100u);
}

// ---------------------------------------------------------------------------
// SchedAnalyzer: closed-form schedules.

TEST(SchedAnalyzer, SoloJobHasUnitSlowdownAndZeroWait) {
  des::Simulator sim;
  des::SchedTrace trace;
  sim.set_sched_trace(&trace);
  des::PsResource cpu(sim, "cpu", 1.0, 1.0);
  cpu.submit(0.25, [] {}, "solo");
  sim.run();

  des::SchedAnalyzer an(trace);
  ASSERT_EQ(an.jobs().size(), 1u);
  const des::SchedJobRecord& j = an.jobs().front();
  EXPECT_TRUE(j.completed);
  EXPECT_DOUBLE_EQ(j.ideal_s, 0.25);
  EXPECT_DOUBLE_EQ(j.turnaround_s, 0.25);
  EXPECT_DOUBLE_EQ(j.wait_s, 0.0);
  EXPECT_DOUBLE_EQ(j.slowdown, 1.0);
  EXPECT_EQ(an.health().jobs, 1u);
  EXPECT_DOUBLE_EQ(an.health().worst_p99_slowdown, 1.0);
  EXPECT_TRUE(an.starved().empty());
}

// Two equal jobs sharing one unit: each runs at rate 1/2, so turnaround
// is exactly twice the solo service time — slowdown 2, wait = ideal.
TEST(SchedAnalyzer, TwoEqualJobsHaveSlowdownExactlyTwo) {
  des::Simulator sim;
  des::SchedTrace trace;
  sim.set_sched_trace(&trace);
  des::PsResource cpu(sim, "cpu", 1.0, 1.0);
  cpu.submit(0.05, [] {}, "pair");
  cpu.submit(0.05, [] {}, "pair");
  sim.run();

  des::SchedAnalyzer an(trace);
  ASSERT_EQ(an.jobs().size(), 2u);
  for (const des::SchedJobRecord& j : an.jobs()) {
    EXPECT_TRUE(j.completed);
    EXPECT_DOUBLE_EQ(j.ideal_s, 0.05);
    EXPECT_DOUBLE_EQ(j.turnaround_s, 0.1);
    EXPECT_DOUBLE_EQ(j.slowdown, 2.0);
    EXPECT_NEAR(j.wait_s, 0.05, 1e-15);
  }
  ASSERT_EQ(an.resources().size(), 1u);
  EXPECT_DOUBLE_EQ(an.resources()[0].slowdown.p99, 2.0);
  EXPECT_DOUBLE_EQ(an.health().worst_p99_slowdown, 2.0);
}

// A mid-service rescale (the DVFS governor halving the clock) must be
// replayed exactly: demand 0.1 runs at rate 1 for 0.05 s, then at rate
// 0.5 for the remaining 0.05 of virtual work -> completes at 0.15,
// slowdown 1.5 against the rate-1 ideal snapshotted at submit.
TEST(SchedAnalyzer, RescaleMidServiceIsReplayedExactly) {
  des::Simulator sim;
  des::SchedTrace trace;
  sim.set_sched_trace(&trace);
  des::PsResource cpu(sim, "cpu", 1.0, 1.0);
  cpu.submit(0.1, [] {}, "dvfs");
  sim.schedule_at(0.05, [&] { cpu.set_max_rate_per_job(0.5); });
  sim.run();

  des::SchedAnalyzer an(trace);
  ASSERT_EQ(an.jobs().size(), 1u);
  const des::SchedJobRecord& j = an.jobs().front();
  EXPECT_NEAR(j.turnaround_s, 0.15, 1e-12);
  EXPECT_DOUBLE_EQ(j.ideal_s, 0.1);
  EXPECT_NEAR(j.slowdown, 1.5, 1e-12);

  // The stream carries the rescale with the post-event share.
  bool saw_rescale = false;
  for (const des::SchedEvent& ev : trace.runs(0).older) {
    if (ev.kind == des::SchedEventKind::Rescale) {
      saw_rescale = true;
      EXPECT_DOUBLE_EQ(ev.share, 0.5);
    }
  }
  EXPECT_TRUE(saw_rescale);
}

// Jain fairness closed form: classes A (two jobs) and B (one job), all
// backlogged with equal per-job shares, so in every window A attains 2/3
// of the service and B 1/3. J = (x_A+x_B)^2 / (2(x_A^2+x_B^2)) = 0.9.
TEST(SchedAnalyzer, JainIndexMatchesTwoVersusOneClosedForm) {
  des::Simulator sim;
  des::SchedTrace trace;
  sim.set_sched_trace(&trace);
  des::PsResource cpu(sim, "cpu", 1.0, 1.0);
  cpu.submit(10.0, [] {}, "A");
  cpu.submit(10.0, [] {}, "A");
  cpu.submit(10.0, [] {}, "B");
  sim.run();

  des::SchedAnalyzerConfig cfg;
  cfg.fairness_window_s = 1.0;
  des::SchedAnalyzer an(trace, cfg);
  ASSERT_FALSE(an.fairness_windows().empty());
  for (const des::FairnessWindow& w : an.fairness_windows()) {
    EXPECT_EQ(w.classes, 2u);
    EXPECT_NEAR(w.jain, 0.9, 1e-12) << "window [" << w.begin_s << ", "
                                    << w.end_s << ")";
  }
  EXPECT_NEAR(an.health().fairness_floor, 0.9, 1e-12);
}

TEST(SchedAnalyzer, EqualClassesArePerfectlyFair) {
  des::Simulator sim;
  des::SchedTrace trace;
  sim.set_sched_trace(&trace);
  des::PsResource cpu(sim, "cpu", 1.0, 1.0);
  cpu.submit(5.0, [] {}, "A");
  cpu.submit(5.0, [] {}, "B");
  sim.run();

  des::SchedAnalyzerConfig cfg;
  cfg.fairness_window_s = 1.0;
  des::SchedAnalyzer an(trace, cfg);
  ASSERT_FALSE(an.fairness_windows().empty());
  for (const des::FairnessWindow& w : an.fairness_windows())
    EXPECT_NEAR(w.jain, 1.0, 1e-12);
  EXPECT_NEAR(an.health().fairness_floor, 1.0, 1e-12);
}

// Starvation closed form: five uncontended "fast" jobs establish a ~0
// class median wait (threshold falls back to k x the 1 ms floor = 4 ms).
// A sixth fast job lands together with nine long "hog" jobs and waits
// 90 ms -- flagged, with exactly the nine hogs as contenders. The hogs
// themselves all wait the same amount, so none exceeds 4x their own
// median and none is flagged.
TEST(SchedAnalyzer, StarvationDetectorFlagsKnownVictimWithContenders) {
  des::Simulator sim;
  des::SchedTrace trace;
  sim.set_sched_trace(&trace);
  des::PsResource cpu(sim, "cpu", 1.0, 1.0);
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(0.1 * i, [&] { cpu.submit(0.01, [] {}, "fast"); });
  }
  sim.schedule_at(1.0, [&] {
    for (int i = 0; i < 9; ++i) cpu.submit(1.0, [] {}, "hog");
    cpu.submit(0.01, [] {}, "fast");  // the victim: share 1/10
  });
  sim.run();

  des::SchedAnalyzer an(trace);
  ASSERT_EQ(an.starved().size(), 1u);
  const des::StarvedJob& sj = an.starved().front();
  EXPECT_STREQ(sj.job.cls, "fast");
  EXPECT_NEAR(sj.job.wait_s, 0.09, 1e-9);
  // k=4 x max(median ~ 0, floor 1e-3).
  EXPECT_DOUBLE_EQ(sj.threshold_s, 4e-3);
  EXPECT_NEAR(sj.flagged_at_s, 1.0 + 0.01 + 4e-3, 1e-9);
  ASSERT_EQ(sj.contenders.size(), 9u);
  for (const auto& [id, cls] : sj.contenders) EXPECT_STREQ(cls, "hog");
  EXPECT_EQ(an.health().starved_jobs, 1u);
}

// Jobs still in service when the stream ends keep their place in the
// Gantt, ending at the last record, and stay out of the health numbers.
TEST(SchedAnalyzer, JobsInServiceAtTraceEndStayInTheGantt) {
  des::Simulator sim;
  des::SchedTrace trace;
  sim.set_sched_trace(&trace);
  des::PsResource cpu(sim, "cpu", 1.0, 1.0);
  cpu.submit(10.0, [] {}, "long");
  cpu.submit(0.1, [] {}, "short");  // shares the unit: done at 0.2 s
  sim.schedule_at(0.5, [&] { cpu.submit(5.0, [] {}, "late"); });
  sim.run_until(1.0);

  const des::SchedAnalyzer an(trace);
  ASSERT_EQ(an.jobs().size(), 3u);
  EXPECT_STREQ(an.jobs()[0].cls, "long");
  EXPECT_FALSE(an.jobs()[0].completed);
  EXPECT_EQ(an.jobs()[0].end_s, 0.5);
  EXPECT_TRUE(an.jobs()[1].completed);
  EXPECT_STREQ(an.jobs()[2].cls, "late");
  EXPECT_FALSE(an.jobs()[2].completed);
  EXPECT_EQ(an.jobs()[2].end_s, 0.5);
  EXPECT_EQ(an.health().jobs, 1u);
}

// When the ring wraps, jobs whose Submit record fell off are simply not
// reconstructable; the analyzer reports the drop count instead of
// silently under-counting, and still reconstructs the retained suffix.
TEST(SchedAnalyzer, RingWrapKeepsSuffixAndReportsDrops) {
  des::SchedTraceConfig cfg;
  cfg.capacity_per_resource = 4;
  des::Simulator sim;
  des::SchedTrace trace(cfg);
  sim.set_sched_trace(&trace);
  des::PsResource cpu(sim, "cpu", 1.0, 1.0);
  // Eight strictly sequential jobs: 16 records, ring keeps the last 4
  // (submit+complete of the last two jobs).
  for (int i = 0; i < 8; ++i) {
    sim.schedule_at(1.0 * i, [&] { cpu.submit(0.5, [] {}, "seq"); });
  }
  sim.run();

  des::SchedAnalyzer an(trace);
  EXPECT_EQ(an.health().events, 16u);
  EXPECT_EQ(an.health().dropped_events, 12u);
  EXPECT_EQ(an.health().jobs, 2u);
}

TEST(SchedAnalyzer, GanttCsvHasHeaderAndOneRowPerJob) {
  des::Simulator sim;
  des::SchedTrace trace;
  sim.set_sched_trace(&trace);
  des::PsResource cpu(sim, "cpu", 1.0, 1.0);
  cpu.submit(0.05, [] {}, "a");
  cpu.submit(0.05, [] {});  // untagged
  sim.run();

  des::SchedAnalyzer an(trace);
  std::ostringstream os;
  an.write_gantt_csv(os);
  std::istringstream is(os.str());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(is, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);  // header + 2 jobs
  EXPECT_EQ(lines[0],
            "resource,job,class,submit_s,end_s,demand_s,cores,ideal_s,"
            "wait_s,slowdown,completed");
  EXPECT_NE(lines[1].find("cpu,"), std::string::npos);
  EXPECT_NE(lines[2].find("(untagged)"), std::string::npos);
}

/// Split one CSV record per RFC 4180: quoted fields, inner quotes doubled.
std::vector<std::string> split_csv_record(const std::string& line) {
  std::vector<std::string> fields(1);
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted && c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
      fields.back() += '"';
      ++i;
    } else if (c == '"') {
      quoted = !quoted;
    } else if (!quoted && c == ',') {
      fields.emplace_back();
    } else {
      fields.back() += c;
    }
  }
  return fields;
}

// A class tag is the model name plus "@delegate", and a device accepts
// any model name: a tag holding a comma or a quote is quoted, so its
// Gantt row still splits into the header's 11 fields.
TEST(SchedAnalyzer, GanttCsvQuotesClassTagsPerRfc4180) {
  des::Simulator sim;
  des::SchedTrace trace;
  sim.set_sched_trace(&trace);
  des::PsResource gpu(sim, "gpu", 1.0, 1.0);
  gpu.submit(0.05, [] {}, "det,\"v2\"@GPU");
  sim.run();

  des::SchedAnalyzer an(trace);
  std::ostringstream os;
  an.write_gantt_csv(os);
  std::istringstream is(os.str());
  std::string header, row, extra;
  ASSERT_TRUE(std::getline(is, header));
  ASSERT_TRUE(std::getline(is, row));
  EXPECT_FALSE(std::getline(is, extra));
  EXPECT_EQ(split_csv_record(header).size(), 11u);
  const std::vector<std::string> fields = split_csv_record(row);
  ASSERT_EQ(fields.size(), 11u);
  EXPECT_EQ(fields[0], "gpu");
  EXPECT_EQ(fields[2], "det,\"v2\"@GPU");
  EXPECT_EQ(fields[10], "1");
}

// Job records come out in submission order without a sort because a
// PsResource numbers its jobs in submission order; a stream that breaks
// this is rejected rather than mis-ordered — by the analyzer and by the
// meter, which share the replay step that checks it.
TEST(SchedAnalyzer, RejectsJobIdsThatDecreaseWithSubmission) {
  auto feed = [](des::SchedSink& sink) {
    const std::uint16_t rid = sink.register_resource("cpu");
    for (const JobId id : {JobId{2}, JobId{1}}) {
      des::SchedEvent ev;
      ev.time = static_cast<double>(3 - id);
      ev.resource = rid;
      ev.kind = des::SchedEventKind::Submit;
      ev.job = id;
      ev.demand = 1.0;
      ev.share = 0.5;
      ev.solo_rate = 1.0;
      sink.record(ev);
    }
  };
  des::SchedTrace trace;
  feed(trace);
  EXPECT_THROW(des::SchedAnalyzer{trace}, Error);
  des::SchedMeter meter;
  EXPECT_THROW(feed(meter), Error);
}

// The starvation rule is strict: a job starves when its wait exceeds
// k x max(class median, floor), not when it reaches it. Five sequential
// jobs of one class (ideal 1 s each) wait 0, 0.5, 1, 4 and 4.5 s; the
// median is 1 s, above the 1 ms floor, so with k = 4 the limit is exactly
// 4 s, and only the last job starves — in the analyzer and in the meter.
TEST(SchedAnalyzer, WaitAtTheStarvationLimitDoesNotStarve) {
  auto feed = [](des::SchedSink& sink) {
    const std::uint16_t rid = sink.register_resource("cpu");
    const double spans[][2] = {
        {0.0, 1.0}, {1.0, 2.5}, {2.5, 4.5}, {4.5, 9.5}, {9.5, 15.0}};
    JobId id = 0;
    for (const auto& [submit, end] : spans) {
      des::SchedEvent ev;
      ev.resource = rid;
      ev.cls = "c";
      ev.job = ++id;
      ev.time = submit;
      ev.kind = des::SchedEventKind::Submit;
      ev.demand = 1.0;
      ev.solo_rate = 1.0;
      ev.share = 1.0 / (end - submit);
      sink.record(ev);
      ev.time = end;
      ev.kind = des::SchedEventKind::Complete;
      ev.share = 0.0;
      sink.record(ev);
    }
  };
  des::SchedTrace trace;
  feed(trace);
  const des::SchedAnalyzer an(trace);
  ASSERT_EQ(an.starved().size(), 1u);
  EXPECT_EQ(an.starved().front().job.job, 5u);
  EXPECT_EQ(an.starved().front().threshold_s, 4.0);
  des::SchedMeter meter;
  feed(meter);
  EXPECT_EQ(meter.finish().starved_jobs, 1u);
}

// ---------------------------------------------------------------------------
// Differential check. The reference is the direct reading of the replay:
// walk every live job on every record (min(share * dt, remaining) each),
// name-keyed maps, fully sorted samples and an all-pairs contender scan.
// The analyzer (dense class ids, jobs kept in submission order, a
// contender sweep) must agree with it bit for bit on random multi-class
// streams with rescales and wrapped rings: job records, per-resource and
// per-class distributions, fairness windows and service, starved jobs and
// contenders.

struct Reference {
  std::vector<des::SchedJobRecord> jobs;
  std::vector<des::SchedResourceStats> resources;
  std::vector<des::FairnessWindow> windows;
  std::vector<des::StarvedJob> starved;
};

std::string tag_of(const char* cls) {
  return cls != nullptr ? cls : "(untagged)";
}

Summary reference_dist(std::vector<double> v) {
  Summary d;
  d.count = v.size();
  if (v.empty()) return d;
  double acc = 0.0;
  for (const double x : v) acc += x;
  d.mean = acc / static_cast<double>(v.size());
  std::sort(v.begin(), v.end());
  d.min = v.front();
  d.max = v.back();
  d.p50 = percentile_sorted(v, 50.0);
  d.p90 = percentile_sorted(v, 90.0);
  d.p95 = percentile_sorted(v, 95.0);
  d.p99 = percentile_sorted(v, 99.0);
  return d;
}

Reference reference_analyze(const des::SchedTrace& trace,
                            const des::SchedAnalyzerConfig& cfg) {
  Reference out;
  const double ws = cfg.fairness_window_s;
  out.resources.resize(trace.resources());
  for (std::size_t r = 0; r < trace.resources(); ++r) {
    const auto rid = static_cast<std::uint16_t>(r);
    out.resources[r].resource = trace.resource_name(rid);
    const des::SchedTrace::Runs runs = trace.runs(rid);
    std::vector<des::SchedEvent> events(runs.older.begin(), runs.older.end());
    events.insert(events.end(), runs.newer.begin(), runs.newer.end());
    if (events.empty()) continue;

    struct Live {
      des::SchedJobRecord rec;
      double solo_rate = 0.0;
      double remaining = 0.0;
    };
    std::map<JobId, Live> live;
    std::map<std::uint64_t, std::map<std::string, double>> service;
    double share = 0.0;
    double t_prev = events.front().time;
    auto finalize = [&](const Live& l, double end_s, bool completed) {
      des::SchedJobRecord rec = l.rec;
      rec.end_s = end_s;
      rec.turnaround_s = end_s - rec.submit_s;
      rec.ideal_s = l.solo_rate > 0.0 ? rec.demand / l.solo_rate : 0.0;
      if (rec.ideal_s > 0.0) {
        rec.wait_s = std::max(0.0, rec.turnaround_s - rec.ideal_s);
        rec.slowdown = rec.turnaround_s / rec.ideal_s;
      } else {
        rec.wait_s = rec.turnaround_s;
        rec.slowdown = 1.0;
      }
      rec.completed = completed;
      out.jobs.push_back(rec);
    };
    for (const des::SchedEvent& ev : events) {
      for (double t = t_prev; t < ev.time;) {
        const auto widx = static_cast<std::uint64_t>(std::floor(t / ws));
        const double t_next =
            std::min(ev.time, (static_cast<double>(widx) + 1.0) * ws);
        if (t_next <= t) break;
        for (auto& [id, l] : live) {
          const double used = std::min(share * (t_next - t), l.remaining);
          if (used > 0.0) {
            l.remaining -= used;
            service[widx][tag_of(l.rec.cls)] += used;
          }
        }
        t = t_next;
      }
      t_prev = ev.time;
      if (ev.kind == des::SchedEventKind::Submit) {
        Live l;
        l.rec.resource = rid;
        l.rec.job = ev.job;
        l.rec.cls = ev.cls;
        l.rec.submit_s = ev.time;
        l.rec.demand = ev.demand;
        l.rec.cores = ev.cores;
        l.solo_rate = ev.solo_rate;
        l.remaining = ev.demand;
        live[ev.job] = l;
      } else if (ev.kind == des::SchedEventKind::Complete) {
        const auto it = live.find(ev.job);
        if (it != live.end()) {
          finalize(it->second, ev.time, true);
          live.erase(it);
        }
      }
      share = ev.share;
    }
    for (const auto& [id, l] : live) finalize(l, t_prev, false);
    for (const auto& [widx, by_class] : service) {
      double sum = 0.0, sum_sq = 0.0, total = 0.0;
      std::size_t n = 0;
      for (const auto& [cls, x] : by_class) {
        total += x;
        if (x > 1e-12) {
          sum += x;
          sum_sq += x * x;
          ++n;
        }
      }
      if (n == 0) continue;
      des::FairnessWindow w;
      w.resource = rid;
      w.begin_s = static_cast<double>(widx) * ws;
      w.end_s = w.begin_s + ws;
      w.jain = (sum * sum) / (static_cast<double>(n) * sum_sq);
      w.classes = n;
      out.windows.push_back(w);
      out.resources[r].service_s += total;
    }
  }
  auto by_submit = [](const auto& a, const auto& b) {
    const des::SchedJobRecord& x = a;
    const des::SchedJobRecord& y = b;
    if (x.resource != y.resource) return x.resource < y.resource;
    if (x.submit_s != y.submit_s) return x.submit_s < y.submit_s;
    return x.job < y.job;
  };
  std::stable_sort(out.jobs.begin(), out.jobs.end(), by_submit);

  for (std::size_t r = 0; r < out.resources.size(); ++r) {
    des::SchedResourceStats& rs = out.resources[r];
    std::vector<double> waits, slowdowns;
    std::map<std::string, std::vector<const des::SchedJobRecord*>> by_class;
    for (const des::SchedJobRecord& j : out.jobs) {
      if (j.resource != r || !j.completed) continue;
      waits.push_back(j.wait_s);
      slowdowns.push_back(j.slowdown);
      by_class[tag_of(j.cls)].push_back(&j);
    }
    rs.wait = reference_dist(waits);
    rs.slowdown = reference_dist(slowdowns);
    for (const auto& [cls, members] : by_class) {
      des::SchedClassStats cs;
      cs.cls = cls;
      std::vector<double> w, s;
      for (const des::SchedJobRecord* j : members) {
        w.push_back(j->wait_s);
        s.push_back(j->slowdown);
        cs.attained_service_s += j->demand;
      }
      cs.wait = reference_dist(w);
      cs.slowdown = reference_dist(s);
      const double threshold =
          cfg.starvation_k * std::max(cs.wait.p50, cfg.min_wait_floor_s);
      for (const des::SchedJobRecord* j : members) {
        if (j->wait_s <= threshold) continue;
        des::StarvedJob sj;
        sj.job = *j;
        sj.threshold_s = threshold;
        sj.flagged_at_s = j->submit_s + j->ideal_s + threshold;
        for (const des::SchedJobRecord& other : out.jobs) {
          if (other.resource == r && other.job != j->job &&
              other.submit_s <= sj.flagged_at_s &&
              sj.flagged_at_s < other.end_s)
            sj.contenders.emplace_back(other.job, other.cls);
        }
        out.starved.push_back(sj);
      }
      rs.classes.push_back(cs);
    }
  }
  std::stable_sort(out.starved.begin(), out.starved.end(),
                   [&](const des::StarvedJob& a, const des::StarvedJob& b) {
                     return by_submit(a.job, b.job);
                   });
  return out;
}

/// A random multi-class processor-sharing workload on two units: Poisson
/// arrivals, exponential demands, 1- and 2-core jobs, an untagged class,
/// DVFS-style capacity and rate-cap steps and render-load changes. The GPU
/// runs close to saturation, so jobs starve there.
void run_random_stream(des::SchedSink& sink, std::uint64_t seed,
                       std::size_t jobs) {
  des::Simulator sim;
  sim.set_sched_trace(&sink);
  des::PsResource cpu(sim, "cpu", 4.0, 1.0);
  des::PsResource gpu(sim, "gpu", 1.0, 1.0);
  static const char* const kClasses[] = {"detect@gpu", "track@cpu",
                                         "segment@gpu", nullptr};
  Rng rng(seed);
  auto exponential = [&rng](double mean) {
    return -mean * std::log(1.0 - rng.uniform());
  };
  double t = 0.0;
  for (std::size_t i = 0; i < jobs; ++i) {
    t += exponential(0.02);
    des::PsResource* res = rng.uniform() < 0.4 ? &gpu : &cpu;
    const double demand = exponential(res == &gpu ? 0.03 : 0.08);
    const double cores = res == &cpu && rng.uniform() < 0.3 ? 2.0 : 1.0;
    const char* cls = kClasses[rng.uniform_index(4)];
    sim.schedule_at(t, [res, demand, cores, cls] {
      res->submit(demand, cores, [] {}, cls);
    });
  }
  for (double s = 0.3; s < t; s += 0.7) {
    const double capacity = rng.uniform() < 0.5 ? 3.0 : 4.0;
    const double rate_cap = rng.uniform() < 0.5 ? 0.7 : 1.0;
    const double background = rng.uniform(0.0, 0.5);
    sim.schedule_at(s, [&cpu, &gpu, capacity, rate_cap, background] {
      cpu.set_capacity(capacity);
      cpu.set_max_rate_per_job(rate_cap);
      gpu.set_background_utilization(background);
    });
  }
  sim.run();
}

void expect_same_dist(const Summary& a, const Summary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p90, b.p90);
  EXPECT_EQ(a.p95, b.p95);
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_EQ(a.max, b.max);
}

TEST(SchedAnalyzer, MatchesReferenceOnRandomStreams) {
  std::size_t starved = 0, wrapped = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const std::size_t capacity : {std::size_t{1} << 16, std::size_t{512}}) {
      for (const double window : {1.0, 0.25}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " capacity " +
                     std::to_string(capacity) + " window " +
                     std::to_string(window));
        des::SchedTraceConfig tcfg;
        tcfg.capacity_per_resource = capacity;
        des::SchedTrace trace(tcfg);
        run_random_stream(trace, seed, 2000);
        if (trace.total_dropped() > 0) ++wrapped;
        des::SchedAnalyzerConfig cfg;
        cfg.fairness_window_s = window;
        const des::SchedAnalyzer an(trace, cfg);
        const Reference ref = reference_analyze(trace, cfg);

        ASSERT_EQ(an.jobs().size(), ref.jobs.size());
        for (std::size_t i = 0; i < ref.jobs.size(); ++i) {
          const des::SchedJobRecord& a = an.jobs()[i];
          const des::SchedJobRecord& b = ref.jobs[i];
          EXPECT_EQ(a.resource, b.resource) << "job " << i;
          EXPECT_EQ(a.job, b.job) << "job " << i;
          EXPECT_EQ(a.cls, b.cls) << "job " << i;
          EXPECT_EQ(a.submit_s, b.submit_s) << "job " << i;
          EXPECT_EQ(a.end_s, b.end_s) << "job " << i;
          EXPECT_EQ(a.demand, b.demand) << "job " << i;
          EXPECT_EQ(a.cores, b.cores) << "job " << i;
          EXPECT_EQ(a.ideal_s, b.ideal_s) << "job " << i;
          EXPECT_EQ(a.wait_s, b.wait_s) << "job " << i;
          EXPECT_EQ(a.slowdown, b.slowdown) << "job " << i;
          EXPECT_EQ(a.completed, b.completed) << "job " << i;
        }

        ASSERT_EQ(an.resources().size(), ref.resources.size());
        for (std::size_t r = 0; r < ref.resources.size(); ++r) {
          const des::SchedResourceStats& a = an.resources()[r];
          const des::SchedResourceStats& b = ref.resources[r];
          EXPECT_EQ(a.resource, b.resource);
          EXPECT_EQ(a.service_s, b.service_s);
          expect_same_dist(a.wait, b.wait);
          expect_same_dist(a.slowdown, b.slowdown);
          ASSERT_EQ(a.classes.size(), b.classes.size());
          for (std::size_t c = 0; c < b.classes.size(); ++c) {
            EXPECT_EQ(a.classes[c].cls, b.classes[c].cls);
            EXPECT_EQ(a.classes[c].attained_service_s,
                      b.classes[c].attained_service_s);
            expect_same_dist(a.classes[c].wait, b.classes[c].wait);
            expect_same_dist(a.classes[c].slowdown, b.classes[c].slowdown);
          }
        }

        ASSERT_EQ(an.fairness_windows().size(), ref.windows.size());
        for (std::size_t w = 0; w < ref.windows.size(); ++w) {
          const des::FairnessWindow& a = an.fairness_windows()[w];
          const des::FairnessWindow& b = ref.windows[w];
          EXPECT_EQ(a.resource, b.resource);
          EXPECT_EQ(a.begin_s, b.begin_s);
          EXPECT_EQ(a.end_s, b.end_s);
          EXPECT_EQ(a.classes, b.classes);
          EXPECT_EQ(a.jain, b.jain);
        }

        ASSERT_EQ(an.starved().size(), ref.starved.size());
        starved += ref.starved.size();
        for (std::size_t s = 0; s < ref.starved.size(); ++s) {
          const des::StarvedJob& a = an.starved()[s];
          const des::StarvedJob& b = ref.starved[s];
          EXPECT_EQ(a.job.job, b.job.job);
          EXPECT_EQ(a.job.resource, b.job.resource);
          EXPECT_EQ(a.threshold_s, b.threshold_s);
          EXPECT_EQ(a.flagged_at_s, b.flagged_at_s);
          ASSERT_EQ(a.contenders.size(), b.contenders.size());
          for (std::size_t k = 0; k < b.contenders.size(); ++k) {
            EXPECT_EQ(a.contenders[k].first, b.contenders[k].first);
            EXPECT_EQ(std::string(a.contenders[k].second),
                      tag_of(b.contenders[k].second));
          }
        }
      }
    }
  }
  // The streams actually exercised the starvation sweep and ring wraps.
  EXPECT_GT(starved, 0u);
  EXPECT_GT(wrapped, 0u);
}

// The meter runs the analyzer's replay step on each record as it happens
// and reduces by selection instead of sorting, so its health must be the
// analyzer's bit for bit on a trace of the same run that did not wrap.
TEST(SchedMeter, MatchesAnalyzerOnRandomStreams) {
  std::size_t starved = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const double window : {1.0, 0.25}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " window " +
                   std::to_string(window));
      des::SchedAnalyzerConfig cfg;
      cfg.fairness_window_s = window;
      des::SchedMeter meter(cfg);
      run_random_stream(meter, seed, 2000);
      const des::SchedHealth m = meter.finish();

      des::SchedTraceConfig tcfg;
      tcfg.capacity_per_resource = std::size_t{1} << 16;
      des::SchedTrace trace(tcfg);
      run_random_stream(trace, seed, 2000);
      ASSERT_EQ(trace.total_dropped(), 0u);
      const des::SchedHealth a = des::SchedAnalyzer(trace, cfg).health();

      EXPECT_EQ(m.jobs, a.jobs);
      EXPECT_EQ(m.events, a.events);
      EXPECT_EQ(m.dropped_events, 0u);
      EXPECT_EQ(m.worst_p99_slowdown, a.worst_p99_slowdown);  // bitwise
      EXPECT_EQ(m.fairness_floor, a.fairness_floor);
      EXPECT_EQ(m.starved_jobs, a.starved_jobs);
      EXPECT_GT(m.jobs, 0u);
      EXPECT_LT(m.fairness_floor, 1.0);
      starved += m.starved_jobs;
    }
  }
  EXPECT_GT(starved, 0u);  // the streams exercised the starvation count
}

// ---------------------------------------------------------------------------
// Oracles that do not come from the analyzer's own past output.

struct Mg1Run {
  std::size_t jobs = 0;
  std::size_t completed = 0;
  double demand_sum = 0.0;
  double work_done = 0.0;
  double end_time = 0.0;
};

/// One M/G/1 processor-sharing queue: Poisson arrivals at `lambda`,
/// demands drawn by `demand(rng)`, run until every job completed or
/// `max_events` events fired.
template <typename Demand>
Mg1Run run_mg1_ps(des::SchedTrace& trace, std::uint64_t seed,
                  std::size_t jobs, double lambda, Demand demand,
                  std::uint64_t max_events = UINT64_MAX) {
  des::Simulator sim;
  sim.set_sched_trace(&trace);
  des::PsResource server(sim, "server", 1.0, 1.0);
  Rng rng(seed);
  Mg1Run out;
  out.jobs = jobs;
  double t = 0.0;
  for (std::size_t i = 0; i < jobs; ++i) {
    t += -std::log(1.0 - rng.uniform()) / lambda;
    const double d = demand(rng);
    out.demand_sum += d;
    sim.schedule_at(t, [&server, &out, d] {
      server.submit(d, [&out] { ++out.completed; }, "job");
    });
  }
  sim.run(max_events);
  out.work_done = server.work_done();
  out.end_time = sim.now();
  return out;
}

/// Exponential demand with mean 0.05 s.
double exponential_demand(Rng& rng) {
  return -0.05 * std::log(1.0 - rng.uniform());
}

// Processor sharing is insensitive to the service distribution: the mean
// sojourn of M/G/1-PS is E[S] / (1 - rho). At rho = 0.5 and E[S] = 0.05 s
// it is 0.1 s for exponential and for deterministic demands alike. 20 000
// jobs put the sample mean within a few percent (about 2.5 % standard
// error).
TEST(SchedOracles, MeanSojournMatchesMg1PsClosedForm) {
  const std::size_t jobs = 20000;
  auto mean_sojourn = [&](auto demand) {
    des::SchedTrace trace;
    run_mg1_ps(trace, 7, jobs, 10.0, demand);
    const des::SchedAnalyzer an(trace);
    EXPECT_EQ(an.health().jobs, jobs);
    double sum = 0.0;
    for (const des::SchedJobRecord& j : an.jobs()) sum += j.turnaround_s;
    return sum / static_cast<double>(jobs);
  };
  EXPECT_NEAR(mean_sojourn(exponential_demand), 0.1, 0.01);
  EXPECT_NEAR(mean_sojourn([](Rng&) { return 0.05; }), 0.1, 0.01);
}

// The same closed form at a low arrival rate, so the stream runs out to
// ~40 000 simulated s. Past 2^14 s half an ulp of the clock exceeds
// PsResource's 1e-12 s completion epsilon, so a residue can have an ETA
// that rounds to `now`; it must still complete. Every job costs one
// arrival and one completion event, so the cap turns a stalled clock into
// a failure instead of a hang. rho = 0.025: E[T] = 0.05 / 0.975.
TEST(SchedOracles, LongHorizonStreamCompletesAndMatchesClosedForm) {
  const std::size_t jobs = 20000;
  des::SchedTrace trace;
  const Mg1Run run =
      run_mg1_ps(trace, 7, jobs, 0.5, exponential_demand, 4 * jobs);
  ASSERT_EQ(run.completed, jobs);
  EXPECT_GT(run.end_time, 30000.0);
  const des::SchedAnalyzer an(trace);
  ASSERT_EQ(an.health().jobs, jobs);
  double sum = 0.0;
  for (const des::SchedJobRecord& j : an.jobs()) sum += j.turnaround_s;
  EXPECT_NEAR(sum / static_cast<double>(jobs), 0.05 / 0.975, 0.0025);
  EXPECT_NEAR(run.work_done, run.demand_sum, 1e-9 * run.demand_sum);
}

// Little's law holds exactly on a sample path that starts and ends empty:
// the area under the number-in-system curve (from the active_jobs field
// PsResource records) equals the summed turnaround the analyzer
// reconstructs. Work is conserved too: the service the analyzer's replay
// attributes equals the demand served and the resource's own work
// counter.
TEST(SchedOracles, LittlesLawAndWorkConservationHoldOnTheSamplePath) {
  des::SchedTrace trace;
  const Mg1Run run = run_mg1_ps(trace, 11, 5000, 16.0, exponential_demand);
  ASSERT_EQ(trace.total_dropped(), 0u);
  const des::SchedAnalyzer an(trace);
  ASSERT_EQ(an.health().jobs, run.jobs);

  const std::span<const des::SchedEvent> events = trace.runs(0).older;
  double area = 0.0;
  for (std::size_t i = 0; i + 1 < events.size(); ++i)
    area += events[i].active_jobs * (events[i + 1].time - events[i].time);
  double turnaround = 0.0;
  for (const des::SchedJobRecord& j : an.jobs()) turnaround += j.turnaround_s;
  EXPECT_NEAR(area, turnaround, 1e-9 * turnaround);

  const double served = an.resources()[0].service_s;
  EXPECT_NEAR(served, run.demand_sum, 1e-9 * run.demand_sum);
  EXPECT_NEAR(served, run.work_done, 1e-9 * run.work_done);
}

// ---------------------------------------------------------------------------
// The observational guarantee at the DES level: attaching a trace changes
// nothing the simulation computes — completion times and work counters
// are bit-identical with tracing on and off.

TEST(SchedTrace, AttachingATraceIsObservationallyInvisible) {
  auto run = [](des::SchedSink* sink) {
    des::Simulator sim;
    if (sink != nullptr) sim.set_sched_trace(sink);
    des::PsResource cpu(sim, "cpu", 4.0, 1.0);
    std::vector<double> completion_times;
    for (int i = 0; i < 12; ++i) {
      sim.schedule_at(0.01 * i, [&, i] {
        cpu.submit(0.02 + 0.003 * i, 1.0 + (i % 3),
                   [&] { completion_times.push_back(sim.now()); }, "mix");
      });
    }
    sim.schedule_at(0.05, [&] { cpu.set_capacity(2.0); });
    sim.schedule_at(0.09, [&] { cpu.set_background_utilization(0.25); });
    sim.run();
    completion_times.push_back(cpu.work_done());
    completion_times.push_back(sim.now());
    return completion_times;
  };

  des::SchedTrace trace;
  des::SchedMeter meter;
  const std::vector<double> untraced = run(nullptr);
  const std::vector<double> traced = run(&trace);
  const std::vector<double> metered = run(&meter);
  ASSERT_EQ(untraced.size(), traced.size());
  ASSERT_EQ(untraced.size(), metered.size());
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    EXPECT_EQ(untraced[i], traced[i]) << "index " << i;  // bitwise
    EXPECT_EQ(untraced[i], metered[i]) << "index " << i;
  }
  EXPECT_GT(trace.total_recorded(), 0u);
  EXPECT_EQ(meter.finish().events, trace.total_recorded());
}

// ---------------------------------------------------------------------------
// Fleet integration.

/// Same truncated config the other fleet tests use, small enough for CI.
fleet::FleetSpec fast_fleet(std::size_t sessions, std::size_t threads) {
  fleet::FleetSpec spec;
  spec.sessions = sessions;
  spec.threads = threads;
  spec.duration_s = 14.0;
  spec.session.hbo.n_initial = 2;
  spec.session.hbo.n_iterations = 2;
  spec.session.hbo.selection_candidates = 1;
  spec.session.hbo.control_period_s = 1.0;
  spec.session.hbo.monitor_period_s = 1.0;
  spec.session.reference_periods = 2;
  spec.scenarios = {{scenario::ObjectSet::SC2, scenario::TaskSet::CF2, 1.0}};
  return spec;
}

TEST(FleetSched, ValidateRejectsNonsenseKnobs) {
  fleet::FleetSpec spec = fast_fleet(1, 1);
  spec.sched.enabled = true;
  spec.sched.capacity_per_resource = 0;
  EXPECT_THROW(fleet::FleetSimulator{spec}, Error);

  spec = fast_fleet(1, 1);
  spec.sched.enabled = true;
  spec.sched_analysis.fairness_window_s = 0.0;
  EXPECT_THROW(fleet::FleetSimulator{spec}, Error);
}

// The bitwise-parity acceptance criterion: enabling sched tracing changes
// no simulated result — every non-sched SessionResult field is identical
// (not merely close) to the untraced run's.
TEST(FleetSched, TracingChangesNoSessionResult) {
  fleet::FleetResult off = fleet::FleetSimulator(fast_fleet(6, 1)).run();
  fleet::FleetSpec traced_spec = fast_fleet(6, 1);
  traced_spec.sched.enabled = true;
  fleet::FleetResult on = fleet::FleetSimulator(traced_spec).run();

  ASSERT_EQ(off.sessions.size(), on.sessions.size());
  for (std::size_t i = 0; i < off.sessions.size(); ++i) {
    const fleet::SessionResult& a = off.sessions[i];
    const fleet::SessionResult& b = on.sessions[i];
    EXPECT_EQ(a.device, b.device);
    EXPECT_EQ(a.scenario, b.scenario);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.sim_seconds, b.sim_seconds) << "session " << i;
    EXPECT_EQ(a.periods, b.periods);
    EXPECT_EQ(a.mean_quality, b.mean_quality) << "session " << i;
    EXPECT_EQ(a.mean_latency_ratio, b.mean_latency_ratio) << "session " << i;
    EXPECT_EQ(a.mean_reward, b.mean_reward) << "session " << i;
    EXPECT_EQ(a.activations, b.activations);
    EXPECT_EQ(a.warm_starts, b.warm_starts);
    EXPECT_EQ(a.energy_j, b.energy_j);
    // The traced run actually traced.
    EXPECT_FALSE(a.sched_traced);
    EXPECT_TRUE(b.sched_traced);
    EXPECT_GT(b.sched_events, 0u);
    EXPECT_GT(b.sched_jobs, 0u);
  }
  EXPECT_FALSE(off.metrics.sched.enabled);
  EXPECT_TRUE(on.metrics.sched.enabled);
  EXPECT_GT(on.metrics.sched.jobs, 0u);
}

// The roll-up acceptance criterion: SchedHealth is identical on 1 and 4
// fleet threads (order-independent reductions + session-id-order feed).
TEST(FleetSched, SchedHealthIsThreadCountInvariant) {
  auto sched_fleet = [](std::size_t threads) {
    fleet::FleetSpec spec = fast_fleet(16, threads);
    spec.sched.enabled = true;
    return spec;
  };
  fleet::FleetResult serial = fleet::FleetSimulator(sched_fleet(1)).run();
  fleet::FleetResult threaded = fleet::FleetSimulator(sched_fleet(4)).run();

  ASSERT_EQ(serial.sessions.size(), threaded.sessions.size());
  for (std::size_t i = 0; i < serial.sessions.size(); ++i) {
    const fleet::SessionResult& a = serial.sessions[i];
    const fleet::SessionResult& b = threaded.sessions[i];
    EXPECT_EQ(a.sched_jobs, b.sched_jobs) << "session " << i;
    EXPECT_EQ(a.sched_events, b.sched_events) << "session " << i;
    EXPECT_EQ(a.sched_worst_p99_slowdown, b.sched_worst_p99_slowdown)
        << "session " << i;
    EXPECT_EQ(a.sched_fairness_floor, b.sched_fairness_floor)
        << "session " << i;
    EXPECT_EQ(a.sched_starved_jobs, b.sched_starved_jobs) << "session " << i;
  }
  const fleet::FleetMetrics::SchedHealth& sa = serial.metrics.sched;
  const fleet::FleetMetrics::SchedHealth& sb = threaded.metrics.sched;
  EXPECT_EQ(sa.jobs, sb.jobs);
  EXPECT_EQ(sa.events, sb.events);
  EXPECT_EQ(sa.dropped_events, sb.dropped_events);
  EXPECT_EQ(sa.worst_p99_slowdown, sb.worst_p99_slowdown);
  EXPECT_EQ(sa.fairness_floor, sb.fairness_floor);
  EXPECT_EQ(sa.starved_jobs, sb.starved_jobs);
  EXPECT_EQ(sa.p99_slowdown.p50, sb.p99_slowdown.p50);
  EXPECT_EQ(sa.p99_slowdown.max, sb.p99_slowdown.max);
  EXPECT_EQ(sa.starved_session_fraction, sb.starved_session_fraction);
}

// A ring's capacity must not change a session's health: the fleet's
// meter keeps no ring, so the capacity only sizes callers' traces and
// every sched field is the same at any capacity, with nothing dropped
// (a 64-record ring per unit would wrap in every session here).
TEST(FleetSched, HealthDoesNotDependOnRingCapacity) {
  auto sched_fleet = [](std::size_t capacity) {
    fleet::FleetSpec spec = fast_fleet(4, 1);
    spec.sched.enabled = true;
    spec.sched.capacity_per_resource = capacity;
    return fleet::FleetSimulator(spec).run();
  };
  const fleet::FleetResult small = sched_fleet(64);
  const fleet::FleetResult full =
      sched_fleet(des::SchedTraceConfig{}.capacity_per_resource);
  ASSERT_EQ(small.sessions.size(), full.sessions.size());
  for (std::size_t i = 0; i < full.sessions.size(); ++i) {
    const fleet::SessionResult& a = small.sessions[i];
    const fleet::SessionResult& b = full.sessions[i];
    EXPECT_TRUE(a.sched_traced);
    EXPECT_EQ(a.sched_jobs, b.sched_jobs) << "session " << i;
    EXPECT_EQ(a.sched_events, b.sched_events) << "session " << i;
    EXPECT_EQ(a.sched_worst_p99_slowdown, b.sched_worst_p99_slowdown)
        << "session " << i;
    EXPECT_EQ(a.sched_fairness_floor, b.sched_fairness_floor)
        << "session " << i;
    EXPECT_EQ(a.sched_starved_jobs, b.sched_starved_jobs) << "session " << i;
    EXPECT_EQ(a.sched_dropped_events, 0u) << "session " << i;
    EXPECT_EQ(b.sched_dropped_events, 0u) << "session " << i;
    // More jobs than a 64-record ring per unit could hold.
    EXPECT_GT(a.sched_jobs, 3u * 64u) << "session " << i;
  }
  EXPECT_EQ(small.metrics.sched.dropped_events, 0u);
}

// The deep-dive path behind `fleet_demo --sched`: re-running one session
// with a caller-owned trace reproduces the fleet run's numbers exactly,
// and analyzing that trace reproduces, bit for bit, the SchedHealth
// fields the fleet's meter derived as the session ran.
TEST(FleetSched, RunSessionTracedReproducesTheFleetTrajectory) {
  fleet::FleetSpec spec = fast_fleet(4, 2);
  spec.sched.enabled = true;
  fleet::FleetSimulator sim(spec);
  fleet::FleetResult result = sim.run();
  ASSERT_EQ(result.sessions.size(), 4u);

  const fleet::SessionResult& fleet_run = result.sessions[2];
  des::SchedTrace trace(spec.sched);
  const fleet::SessionResult redo = sim.run_session_traced(
      sim.session_spec(2), trace);

  EXPECT_EQ(redo.mean_quality, fleet_run.mean_quality);
  EXPECT_EQ(redo.mean_reward, fleet_run.mean_reward);
  EXPECT_EQ(redo.activations, fleet_run.activations);
  EXPECT_EQ(redo.sched_jobs, fleet_run.sched_jobs);
  EXPECT_EQ(redo.sched_events, fleet_run.sched_events);
  EXPECT_EQ(redo.sched_worst_p99_slowdown, fleet_run.sched_worst_p99_slowdown);
  EXPECT_EQ(redo.sched_fairness_floor, fleet_run.sched_fairness_floor);
  EXPECT_EQ(redo.sched_starved_jobs, fleet_run.sched_starved_jobs);

  des::SchedAnalyzer an(trace, spec.sched_analysis);
  EXPECT_EQ(an.health().jobs, fleet_run.sched_jobs);
  EXPECT_EQ(an.health().events, fleet_run.sched_events);
  EXPECT_EQ(an.health().worst_p99_slowdown,
            fleet_run.sched_worst_p99_slowdown);
  EXPECT_EQ(an.health().fairness_floor, fleet_run.sched_fairness_floor);
  EXPECT_EQ(an.health().starved_jobs, fleet_run.sched_starved_jobs);
}

}  // namespace
}  // namespace hbosim
