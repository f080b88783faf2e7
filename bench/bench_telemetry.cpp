// Telemetry overhead bench: the cost of instrumentation points with
// tracing off (the always-paid price embedded in every hot path) and on
// (ring push / metric update), plus the end-to-end effect of a live
// TelemetrySession on fleet simulation wall-clock.
//
// Not a paper artefact — this guards the observability layer's overhead
// budget: disabled instrumentation must stay in low single-digit
// nanoseconds per site. With tracing *on*, a DES-dense fleet run pays for
// real event recording (~20% wall on the densest micro-runs; far less on
// BO-heavy workloads) — that price is only paid when profiling.
//
// Usage: bench_telemetry [--smoke] [--json <path>]
//   --smoke   shorter repetitions (CI)
//   --json    write a machine-readable summary (default: BENCH_telemetry.json)
// Any other argument exits 2 with "bench_telemetry: <message>".

#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "bench_util.hpp"
#include "hbosim/fleet/fleet_simulator.hpp"
#include "hbosim/telemetry/report.hpp"
#include "hbosim/telemetry/telemetry.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nanoseconds per iteration of `op`, repeated until `min_seconds` of work
/// has accumulated. The loop re-times in blocks so short ops still get a
/// trustworthy average.
template <typename Op>
double time_ns(Op&& op, double min_seconds) {
  std::uint64_t iters = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    for (int i = 0; i < 10000; ++i) op();
    iters += 10000;
    elapsed = seconds_since(t0);
  } while (elapsed < min_seconds);
  return elapsed / static_cast<double>(iters) * 1e9;
}

hbosim::fleet::FleetSpec small_fleet(std::size_t sessions) {
  hbosim::fleet::FleetSpec spec;
  spec.sessions = sessions;
  spec.threads = 2;
  spec.duration_s = 20.0;
  spec.use_shared_pool = true;
  spec.session.hbo.n_initial = 3;
  spec.session.hbo.n_iterations = 6;
  spec.session.hbo.selection_candidates = 1;
  return spec;
}

double fleet_wall_seconds(std::size_t sessions) {
  const auto t0 = Clock::now();
  (void)hbosim::fleet::FleetSimulator(small_fleet(sessions)).run();
  return seconds_since(t0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hbosim;

  const auto args =
      benchutil::parse_args(argc, argv, "bench_telemetry", "BENCH_telemetry.json");
  if (!args) return 2;
  const bool smoke = args->smoke;
  const std::string& json_path = args->json_path;

  benchutil::banner("bench_telemetry",
                    "instrumentation cost, tracing off and on");
  const double min_seconds = smoke ? 0.02 : 0.2;

  // --- disabled path: the price every hot path always pays ----------------
  benchutil::section("disabled instrumentation (no TelemetrySession)");
  if (telemetry::enabled()) {
    std::cerr << "telemetry unexpectedly enabled\n";
    return 1;
  }
  const double off_scope_ns =
      time_ns([] { HB_TRACE_SCOPE("bench", "scope"); }, min_seconds);
  const double off_counter_ns =
      time_ns([] { HB_TRACE_COUNTER("bench", "ctr", 1.0); }, min_seconds);
  const double off_metric_ns =
      time_ns([] { HB_TELEM_COUNT("bench.count", 1.0); }, min_seconds);
  std::cout << std::fixed << std::setprecision(2)
            << "  HB_TRACE_SCOPE   " << std::setw(8) << off_scope_ns
            << " ns/site\n"
            << "  HB_TRACE_COUNTER " << std::setw(8) << off_counter_ns
            << " ns/site\n"
            << "  HB_TELEM_COUNT   " << std::setw(8) << off_metric_ns
            << " ns/site\n";

  // --- enabled path: record cost -----------------------------------------
  benchutil::section("enabled record path (live session)");
  double on_scope_ns = 0.0, on_counter_ns = 0.0;
  double on_metric_ns = 0.0, on_hist_ns = 0.0;
  std::uint64_t trace_events = 0;
  {
    telemetry::TelemetrySession session;
    on_scope_ns =
        time_ns([] { HB_TRACE_SCOPE("bench", "scope"); }, min_seconds);
    on_counter_ns =
        time_ns([] { HB_TRACE_COUNTER("bench", "ctr", 1.0); }, min_seconds);
    on_metric_ns =
        time_ns([] { HB_TELEM_COUNT("bench.count", 1.0); }, min_seconds);
    on_hist_ns =
        time_ns([] { HB_TELEM_HIST_US("bench.hist_us", 3.0); }, min_seconds);
    trace_events = session.events_recorded();
  }
  std::cout << "  HB_TRACE_SCOPE   " << std::setw(8) << on_scope_ns
            << " ns/event (clock + ring push)\n"
            << "  HB_TRACE_COUNTER " << std::setw(8) << on_counter_ns
            << " ns/event\n"
            << "  HB_TELEM_COUNT   " << std::setw(8) << on_metric_ns
            << " ns/update (sharded cell)\n"
            << "  HB_TELEM_HIST_US " << std::setw(8) << on_hist_ns
            << " ns/observation\n"
            << "  (" << trace_events << " events recorded)\n";

  // --- end-to-end fleet overhead ------------------------------------------
  const std::size_t sessions = smoke ? 4 : 16;
  benchutil::section("fleet wall-clock overhead (" +
                     std::to_string(sessions) + " sessions, 2 threads)");
  const double fleet_off_s = fleet_wall_seconds(sessions);
  double fleet_on_s = 0.0;
  std::uint64_t fleet_events = 0, fleet_dropped = 0;
  std::size_t trace_bytes = 0;
  {
    telemetry::TelemetrySession session;
    fleet_on_s = fleet_wall_seconds(sessions);
    fleet_events = session.events_recorded();
    fleet_dropped = session.events_dropped();
    std::ostringstream trace;
    session.write_chrome_trace(trace);
    trace_bytes = trace.str().size();
  }
  const double overhead_pct = (fleet_on_s / fleet_off_s - 1.0) * 100.0;
  std::cout << std::setprecision(3) << "  tracing off: " << fleet_off_s
            << " s\n  tracing on : " << fleet_on_s << " s\n  overhead   : "
            << std::setprecision(1) << overhead_pct << " % ("
            << fleet_events << " events, " << fleet_dropped
            << " dropped, trace " << trace_bytes / 1024 << " KiB)\n";

  benchutil::section("recap");
  benchutil::recap_line("disabled site cost", "~1 branch",
                        std::to_string(off_metric_ns) + " ns");
  benchutil::recap_line("fleet overhead, tracing on", "< 25 %",
                        std::to_string(overhead_pct) + " %");

  // --- machine-readable summary -------------------------------------------
  std::ofstream json(json_path);
  json << std::setprecision(4) << std::fixed;
  json << "{\n  \"bench\": \"bench_telemetry\",\n  \"smoke\": "
       << (smoke ? "true" : "false")
       << ",\n  \"host\": " << benchutil::host_json()
       << ",\n  \"disabled_ns\": {"
       << "\"scope\": " << off_scope_ns
       << ", \"counter\": " << off_counter_ns
       << ", \"metric\": " << off_metric_ns << "},\n  \"enabled_ns\": {"
       << "\"scope\": " << on_scope_ns << ", \"counter\": " << on_counter_ns
       << ", \"metric\": " << on_metric_ns << ", \"histogram\": " << on_hist_ns
       << "},\n  \"fleet\": {\"sessions\": " << sessions
       << ", \"threads\": 2, \"off_wall_s\": " << fleet_off_s
       << ", \"on_wall_s\": " << fleet_on_s
       << ", \"overhead_pct\": " << overhead_pct
       << ", \"events\": " << fleet_events
       << ", \"dropped\": " << fleet_dropped
       << ", \"trace_kib\": " << trace_bytes / 1024 << "}\n}\n";
  std::cout << "\nJSON summary written to " << json_path << "\n";

  // Budget gate (skipped in smoke runs, which are too short to be stable):
  // a disabled site must cost under 15 ns even on busy CI hardware.
  const bool ok = off_scope_ns < 15.0 && off_counter_ns < 15.0 &&
                  off_metric_ns < 15.0;
  return ok || smoke ? 0 : 1;
}
