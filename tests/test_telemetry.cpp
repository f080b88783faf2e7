// Tests for hbosim::telemetry: ring wraparound, histogram bucket edges,
// export well-formedness, cross-thread shard aggregation, the profile
// tree, and call-site handle re-resolution across sessions.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hbosim/common/error.hpp"
#include "hbosim/common/thread_pool.hpp"
#include "hbosim/des/ps_resource.hpp"
#include "hbosim/des/sched_analyzer.hpp"
#include "hbosim/des/sched_trace.hpp"
#include "hbosim/des/simulator.hpp"
#include "hbosim/fleet/fleet_simulator.hpp"
#include "hbosim/telemetry/report.hpp"
#include "hbosim/telemetry/telemetry.hpp"

namespace {

using namespace hbosim;
using namespace hbosim::telemetry;

/// Minimal structural JSON validator: enough to catch unbalanced
/// containers, bad commas, and unterminated strings in the exporters.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '\\') {
        pos_ += 2;
        continue;
      }
      if (c == '"') { ++pos_; return true; }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(Telemetry, DisabledByDefault) {
  EXPECT_FALSE(telemetry::enabled());
  EXPECT_EQ(TelemetrySession::active(), nullptr);
  // All macros must be safe no-ops without a session.
  HB_TRACE_SCOPE("test", "noop");
  HB_TRACE_COUNTER("test", "noop", 1.0);
  telemetry::instant("test", "noop");
  HB_TELEM_COUNT("noop", 1.0);
  HB_TELEM_HIST_US("noop_us", 1.0);
}

TEST(Telemetry, SessionTogglesEnabled) {
  {
    TelemetrySession session;
    EXPECT_TRUE(telemetry::enabled());
    EXPECT_EQ(TelemetrySession::active(), &session);
  }
  EXPECT_FALSE(telemetry::enabled());
  EXPECT_EQ(TelemetrySession::active(), nullptr);
}

TEST(Telemetry, SecondSessionThrows) {
  TelemetrySession session;
  EXPECT_THROW(TelemetrySession{}, Error);
}

TEST(Telemetry, RingWraparoundKeepsNewestEvents) {
  TelemetryConfig cfg;
  cfg.events_per_thread = 8;  // already a power of two
  TelemetrySession session(cfg);

  const char* name = "wrap";
  for (int i = 0; i < 20; ++i) telemetry::counter("test", name, i);

  const std::vector<ThreadSnapshot> snaps = session.snapshot();
  const ThreadSnapshot* main_snap = nullptr;
  for (const ThreadSnapshot& s : snaps)
    if (!s.events.empty()) main_snap = &s;
  ASSERT_NE(main_snap, nullptr);

  ASSERT_EQ(main_snap->events.size(), 8u);
  EXPECT_EQ(main_snap->dropped, 12u);
  // Oldest-first snapshot of the newest 8 values: 12, 13, ..., 19.
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_DOUBLE_EQ(main_snap->events[i].value, 12.0 + static_cast<double>(i));
  EXPECT_EQ(session.events_recorded(), 20u);
  EXPECT_EQ(session.events_dropped(), 12u);
}

TEST(Telemetry, CapacityRoundsUpToPowerOfTwo) {
  TelemetryConfig cfg;
  cfg.events_per_thread = 6;  // rounds to 8
  TelemetrySession session(cfg);
  for (int i = 0; i < 10; ++i) telemetry::instant("test", "i");
  EXPECT_EQ(session.events_dropped(), 2u);
}

TEST(Metrics, CounterAccumulates) {
  MetricsRegistry reg;
  const MetricId id = reg.counter("jobs");
  reg.add(id, 2.0);
  reg.add(id, 3.0);
  reg.add(id, 0.5);
  const MetricsSnapshot snap = reg.snapshot();
  const MetricValue* m = snap.find("jobs");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::Counter);
  EXPECT_DOUBLE_EQ(m->value, 5.5);
  EXPECT_EQ(m->count, 3u);  // add() calls, not a hard-coded 1
}

TEST(Metrics, RegistrationIsIdempotentAndKindChecked) {
  MetricsRegistry reg;
  const MetricId a = reg.counter("x");
  const MetricId b = reg.counter("x");
  EXPECT_EQ(a, b);
  EXPECT_THROW(reg.histogram("x", {1.0}), Error);
}

TEST(Metrics, HistogramBucketEdges) {
  MetricsRegistry reg;
  // Buckets: (-inf,1], (1,10], (10,100], (100, inf).
  const MetricId id = reg.histogram("lat", {1.0, 10.0, 100.0});

  reg.observe(id, 1.0);    // exactly on the first bound -> bucket 0
  reg.observe(id, 1.5);    // bucket 1
  reg.observe(id, 10.0);   // exactly on the second bound -> bucket 1
  reg.observe(id, 99.0);   // bucket 2
  reg.observe(id, 1000.0); // overflow bucket

  const MetricsSnapshot snap = reg.snapshot();
  const MetricValue* m = snap.find("lat");
  ASSERT_NE(m, nullptr);
  const HistogramSummary& h = m->hist;
  EXPECT_EQ(h.count, 5u);
  EXPECT_DOUBLE_EQ(h.sum, 1111.5);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 1000.0);
  ASSERT_EQ(h.counts.size(), 4u);  // 3 finite + overflow
  EXPECT_EQ(h.counts[0], 1u);
  EXPECT_EQ(h.counts[1], 2u);
  EXPECT_EQ(h.counts[2], 1u);
  EXPECT_EQ(h.counts[3], 1u);
  // Percentiles are clamped to the observed range and monotone.
  EXPECT_GE(h.p50, h.min);
  EXPECT_LE(h.p50, h.p95);
  EXPECT_LE(h.p95, h.p99);
  EXPECT_LE(h.p99, h.max);
}

TEST(Metrics, HistogramPercentileSingleValue) {
  MetricsRegistry reg;
  const MetricId id = reg.histogram("one", {1.0, 10.0});
  for (int i = 0; i < 100; ++i) reg.observe(id, 5.0);
  const MetricsSnapshot snap = reg.snapshot();
  const HistogramSummary& h = snap.find("one")->hist;
  // Every observation is 5.0; clamping to [min,max] pins all percentiles.
  EXPECT_DOUBLE_EQ(h.p50, 5.0);
  EXPECT_DOUBLE_EQ(h.p95, 5.0);
  EXPECT_DOUBLE_EQ(h.p99, 5.0);
}

TEST(Metrics, ShardsAggregateAcrossThreadPool) {
  MetricsRegistry reg;
  const MetricId counter_id = reg.counter("work");
  const MetricId hist_id = reg.histogram("work_us", {10.0, 100.0, 1000.0});

  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  {
    ThreadPool pool(kThreads);
    std::vector<std::future<void>> futures;
    for (int t = 0; t < kThreads; ++t) {
      futures.push_back(pool.submit([&] {
        for (int i = 0; i < kPerThread; ++i) {
          reg.add(counter_id, 1.0);
          reg.observe(hist_id, static_cast<double>(i % 500));
        }
      }));
    }
    for (auto& f : futures) f.get();
  }

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.find("work")->value, kThreads * kPerThread);
  EXPECT_EQ(snap.find("work_us")->hist.count,
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(Metrics, JsonAndCsvExports) {
  MetricsRegistry reg;
  reg.add(reg.counter("a.count"), 3.0);
  const MetricId h = reg.histogram("c \"quoted\"", {1.0, 10.0});
  reg.observe(h, 2.0);

  std::ostringstream json;
  reg.snapshot().write_json(json);
  EXPECT_TRUE(JsonChecker(json.str()).valid()) << json.str();
  EXPECT_NE(json.str().find("a.count"), std::string::npos);
  EXPECT_NE(json.str().find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.str().find("\"histograms\""), std::string::npos);
}

TEST(Telemetry, ChromeTraceIsWellFormedJson) {
  TelemetrySession session;
  {
    HB_TRACE_SCOPE("test", "outer");
    HB_TRACE_SCOPE("test", "inner");
    HB_TRACE_COUNTER("test", "depth", 3.0);
    telemetry::instant("test", "ping");
  }
  telemetry::set_current_track(7);
  telemetry::sim_span("test", "simwork", 1.25, 2.5);

  std::ostringstream os;
  session.write_chrome_trace(os);
  const std::string text = os.str();
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  EXPECT_NE(text.find("\"outer\""), std::string::npos);
  EXPECT_NE(text.find("\"simwork\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"b\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"e\""), std::string::npos);
  telemetry::set_current_track(0);
}

TEST(Telemetry, ThreadTracksAppearInTrace) {
  TelemetrySession session;
  {
    ThreadPool pool(2);
    std::vector<std::future<void>> futures;
    for (int t = 0; t < 2; ++t) {
      futures.push_back(pool.submit([] {
        telemetry::set_thread_name("worker", /*append_index=*/true);
        HB_TRACE_SCOPE("test", "task");
      }));
    }
    for (auto& f : futures) f.get();
  }
  std::ostringstream os;
  session.write_chrome_trace(os);
  const std::string text = os.str();
  EXPECT_TRUE(JsonChecker(text).valid());
  EXPECT_NE(text.find("thread_name"), std::string::npos);
  EXPECT_NE(text.find("worker-"), std::string::npos);
}

TEST(Telemetry, ProfileReportNestsScopes) {
  TelemetrySession session;
  for (int i = 0; i < 3; ++i) {
    HB_TRACE_SCOPE("test", "parent");
    {
      HB_TRACE_SCOPE("test", "child");
    }
  }
  const ProfileReport report = session.report();
  const ProfileNode* parent = report.root.child("parent");
  ASSERT_NE(parent, nullptr);
  EXPECT_EQ(parent->count, 3u);
  const ProfileNode* child = parent->child("child");
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->count, 3u);
  EXPECT_LE(child->incl_ns, parent->incl_ns);
  // Exclusive = inclusive - children.
  EXPECT_EQ(parent->excl_ns(), parent->incl_ns - child->incl_ns);

  std::ostringstream os;
  report.print(os);
  EXPECT_NE(os.str().find("parent"), std::string::npos);
  EXPECT_NE(os.str().find("child"), std::string::npos);
}

void bump_shared_counter() { HB_TELEM_COUNT("handle.epoch", 1.0); }

TEST(Telemetry, HandlesReresolveAcrossSessions) {
  {
    TelemetrySession first;
    bump_shared_counter();
    bump_shared_counter();
    EXPECT_DOUBLE_EQ(first.metrics().snapshot().find("handle.epoch")->value,
                     2.0);
  }
  bump_shared_counter();  // no session: dropped
  {
    TelemetrySession second;
    bump_shared_counter();
    // The call-site static handle must re-register against the new
    // session's registry instead of reusing the stale id.
    EXPECT_DOUBLE_EQ(second.metrics().snapshot().find("handle.epoch")->value,
                     1.0);
  }
}

TEST(Metrics, ConcurrentRegistrationKeepsObserveBoundsStable) {
  MetricsRegistry reg;
  const MetricId h = reg.histogram("hot", {1.0, 2.0, 4.0, 8.0});
  std::atomic<bool> stop{false};
  // Grow the descriptor container from one thread while another reads the
  // hot histogram's bounds unlocked on the observe() fast path; under
  // ASan/TSan this is the regression test for descriptor address
  // stability.
  std::thread registrar([&] {
    for (int i = 0; i < 2000; ++i) reg.counter("churn." + std::to_string(i));
    stop.store(true);
  });
  std::uint64_t n = 0;
  while (!stop.load()) {
    reg.observe(h, 3.0);
    ++n;
  }
  registrar.join();
  EXPECT_EQ(reg.snapshot().find("hot")->hist.count, n);
}

TEST(Telemetry, ScopeStraddlingSessionTeardownIsDropped) {
  auto first = std::make_unique<TelemetrySession>();
  auto scope = std::make_unique<ScopeTimer>("test", "straddler");
  first.reset();  // session ends while the scope is still open
  TelemetrySession second;
  scope.reset();  // closes with a stale epoch: must not crash or pollute
  std::ostringstream os;
  second.write_chrome_trace(os);
  EXPECT_EQ(os.str().find("straddler"), std::string::npos);
}

TEST(Telemetry, InternReturnsStablePointers) {
  const char* a = telemetry::intern("some.dynamic.name");
  const char* b = telemetry::intern(std::string("some.dynamic.") + "name");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "some.dynamic.name");
}

TEST(Telemetry, FleetRunProducesSessionSpans) {
  TelemetrySession session;

  fleet::FleetSpec spec;
  spec.sessions = 3;
  spec.threads = 2;
  spec.duration_s = 6.0;
  spec.use_shared_pool = true;
  spec.session.hbo.n_initial = 2;
  spec.session.hbo.n_iterations = 2;
  spec.session.hbo.selection_candidates = 1;
  spec.session.hbo.control_period_s = 1.0;
  spec.session.hbo.monitor_period_s = 1.0;

  fleet::FleetSimulator simulator(spec);
  const fleet::FleetResult result = simulator.run();
  ASSERT_EQ(result.sessions.size(), 3u);

  std::ostringstream os;
  session.write_chrome_trace(os);
  const std::string text = os.str();
  EXPECT_TRUE(JsonChecker(text).valid());
  EXPECT_NE(text.find("fleet-worker-"), std::string::npos);
  EXPECT_NE(text.find("session 0"), std::string::npos);
  EXPECT_NE(text.find("hbo.period"), std::string::npos);

  const MetricsSnapshot snap = session.metrics().snapshot();
  EXPECT_DOUBLE_EQ(snap.find("fleet.sessions_completed")->value, 3.0);
  ASSERT_NE(snap.find("des.events_executed"), nullptr);
  EXPECT_GT(snap.find("des.events_executed")->value, 0.0);
  ASSERT_NE(snap.find("ai.inference_us"), nullptr);
  EXPECT_GT(snap.find("ai.inference_us")->hist.count, 0u);

  const ProfileReport report = session.report();
  EXPECT_NE(report.root.child("fleet.run"), nullptr);
}

// ---------------------------------------------------------------------------
// Structural checks on the sim-time async tracks: every "b" on pid 2 has
// a matching "e" with the same (tid, cat, name) key and a non-negative
// duration, and the running begin/end balance never goes negative.

/// One flat Chrome-trace event pulled back out of the exported JSON.
/// The exporter writes sim-time events without nested objects, so a
/// brace-to-brace scan plus field finds is a faithful parse for them.
struct FlatTraceEvent {
  std::string ph, cat, name;
  int pid = -1;
  long long tid = -1;
  double ts = 0.0;
};

std::vector<FlatTraceEvent> parse_flat_events(const std::string& text) {
  std::vector<FlatTraceEvent> out;
  std::size_t pos = 0;
  auto field = [](const std::string& obj, const std::string& key) {
    const std::size_t at = obj.find("\"" + key + "\": ");
    if (at == std::string::npos) return std::string();
    std::size_t begin = at + key.size() + 4;
    std::size_t end = obj.find_first_of(",}", begin);
    std::string v = obj.substr(begin, end - begin);
    if (!v.empty() && v.front() == '"') v = v.substr(1, v.size() - 2);
    return v;
  };
  while ((pos = text.find("{\"ph\": ", pos)) != std::string::npos) {
    const std::size_t end = text.find('}', pos);
    if (end == std::string::npos) break;
    const std::string obj = text.substr(pos, end - pos + 1);
    FlatTraceEvent ev;
    ev.ph = field(obj, "ph");
    ev.cat = field(obj, "cat");
    ev.name = field(obj, "name");
    if (!field(obj, "pid").empty()) ev.pid = std::stoi(field(obj, "pid"));
    if (!field(obj, "tid").empty()) ev.tid = std::stoll(field(obj, "tid"));
    if (!field(obj, "ts").empty()) ev.ts = std::stod(field(obj, "ts"));
    out.push_back(std::move(ev));
    pos = end + 1;
  }
  return out;
}

TEST(Telemetry, SimTimeAsyncTracksPairBeginAndEnd) {
  TelemetrySession session;
  // Overlapping spans on two tracks, plus a nested same-track pair.
  telemetry::sim_span("simtest", "alpha", 3, 0.0, 2.0);
  telemetry::sim_span("simtest", "beta", 4, 0.5, 1.5);
  telemetry::sim_span("simtest", "alpha", 3, 0.25, 0.75);

  std::ostringstream os;
  session.write_chrome_trace(os);
  const std::string text = os.str();
  ASSERT_TRUE(JsonChecker(text).valid());

  std::map<std::string, int> balance;
  std::map<std::string, int> begins, ends;
  double last_begin_ts = 0.0;
  std::size_t sim_events = 0;
  for (const FlatTraceEvent& ev : parse_flat_events(text)) {
    if (ev.pid != 2 || (ev.ph != "b" && ev.ph != "e")) continue;
    ++sim_events;
    const std::string key =
        std::to_string(ev.tid) + "/" + ev.cat + "/" + ev.name;
    if (ev.ph == "b") {
      ++balance[key];
      ++begins[key];
      last_begin_ts = ev.ts;
    } else {
      --balance[key];
      ++ends[key];
      // The exporter writes each span's end right after its begin.
      EXPECT_GE(ev.ts, last_begin_ts) << key;
    }
    EXPECT_GE(balance[key], 0) << "unmatched end on " << key;
  }
  EXPECT_EQ(sim_events, 6u);  // three spans, two phases each
  for (const auto& [key, n] : begins) {
    EXPECT_EQ(n, ends[key]) << "unbalanced track " << key;
  }
  EXPECT_EQ(begins.size(), 2u);  // (3, alpha) and (4, beta)
}

TEST(Telemetry, SchedGanttSlicesLandOnSimTimePid) {
  TelemetrySession session;

  des::Simulator sim;
  des::SchedTrace trace;
  sim.set_sched_trace(&trace);
  des::PsResource cpu(sim, "cpu", 1.0, 1.0);
  cpu.submit(0.05, [] {}, "detect@gpu");
  cpu.submit(0.05, [] {}, "detect@gpu");
  cpu.submit(0.02, [] {});  // untagged -> named after the resource
  sim.run();

  des::SchedAnalyzer analyzer(trace);
  analyzer.export_perfetto_gantt(/*track=*/9);

  std::ostringstream os;
  session.write_chrome_trace(os);
  const std::string text = os.str();
  ASSERT_TRUE(JsonChecker(text).valid());

  std::size_t sched_begins = 0, sched_ends = 0;
  for (const FlatTraceEvent& ev : parse_flat_events(text)) {
    if (ev.cat != "sched") continue;
    // Every Gantt slice is an async pair on the sim-time pid, track 9.
    EXPECT_EQ(ev.pid, 2);
    EXPECT_EQ(ev.tid, 9);
    EXPECT_TRUE(ev.ph == "b" || ev.ph == "e") << ev.ph;
    EXPECT_TRUE(ev.name == "detect@gpu" || ev.name == "cpu") << ev.name;
    if (ev.ph == "b") ++sched_begins;
    if (ev.ph == "e") ++sched_ends;
  }
  EXPECT_EQ(sched_begins, 3u);  // three completed jobs
  EXPECT_EQ(sched_ends, 3u);
}

// A metered fleet exports its Gantt as the jobs complete: one "sched"
// async pair per completed job on its session's sim-time track, which
// together total the fleet's FleetMetrics::sched.jobs.
TEST(Telemetry, MeteredFleetEmitsOneSchedSlicePerCompletedJob) {
  TelemetryConfig cfg;
  cfg.events_per_thread = 1 << 18;
  TelemetrySession session(cfg);

  fleet::FleetSpec spec;
  spec.sessions = 2;
  spec.threads = 2;
  spec.duration_s = 6.0;
  spec.session.hbo.n_initial = 2;
  spec.session.hbo.n_iterations = 2;
  spec.session.hbo.selection_candidates = 1;
  spec.session.hbo.control_period_s = 1.0;
  spec.session.hbo.monitor_period_s = 1.0;
  spec.sched.enabled = true;
  const fleet::FleetResult result = fleet::FleetSimulator(spec).run();
  ASSERT_TRUE(result.metrics.sched.enabled);
  ASSERT_GT(result.metrics.sched.jobs, 0u);

  std::ostringstream os;
  session.write_chrome_trace(os);
  ASSERT_EQ(session.events_dropped(), 0u);
  std::map<long long, std::size_t> begins, ends;
  for (const FlatTraceEvent& ev : parse_flat_events(os.str())) {
    if (ev.cat != "sched") continue;
    EXPECT_EQ(ev.pid, 2);
    if (ev.ph == "b") ++begins[ev.tid];
    if (ev.ph == "e") ++ends[ev.tid];
  }
  std::size_t pairs = 0;
  for (const auto& [track, n] : begins) {
    EXPECT_LT(track, 2) << "track of a session id";
    EXPECT_EQ(n, ends[track]) << "track " << track;
    pairs += n;
  }
  EXPECT_EQ(begins.size(), 2u);  // both sessions' tracks
  EXPECT_EQ(pairs, result.metrics.sched.jobs);
}

}  // namespace
