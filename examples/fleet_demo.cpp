// Fleet demo: simulate a small fleet of MAR sessions across the paper's
// two phones and four Table II workloads, with the shared cross-session
// solution pool enabled, and print the fleet-wide roll-up.
//
// This is the Section VI "optimization results should be shared across
// users" direction in action: the first session to converge in each
// (device, scenario, environment) bucket pays the full ~20-period Bayesian
// activation; sessions of later pool epochs (4 sessions each) warm-start
// from the pooled solution in a couple of control periods. The pool is
// frozen at each epoch's barrier, so the printout is the same on any
// thread count and on every run.
//
// Observability flags:
//   --trace <file.json>    capture a Chrome/Perfetto trace of the run
//                          (open at https://ui.perfetto.dev)
//   --metrics <file.json>  dump the telemetry metrics snapshot as JSON
// Either flag activates a TelemetrySession and prints the wall-clock
// profile report at exit.
//
//   --edge [preset]        route decimation and warm-start fetches through
//                          a shared contended edge server (preset: lan |
//                          wifi | congested, default wifi) and print the
//                          edge-health roll-up.
//
//   --power                attach the battery/thermal/DVFS model to every
//                          session (hbosim::power), add the ThermalSoak
//                          workload to the scenario mix so some sessions
//                          actually heat into their throttle band, and
//                          print the thermal/energy roll-up.
//
//   --policy [prior|bandit|off]
//                          enable the learned policy layer (hbosim::policy,
//                          default off). `prior` fits warm-start GP priors
//                          from fleet traffic at epoch barriers; `bandit`
//                          replaces HBO with the LinUCB agent. Disables the
//                          shared solution pool so the per-epoch convergence
//                          printout isolates what the *policy* learned. The
//                          demo prints a warm-vs-cold comparison: epoch 0
//                          runs cold (nothing learned yet), later epochs
//                          read the frozen artifact trained on everything
//                          before them.
//
//   --market [pf|maxmin|price]
//                          make the edge an actor (hbosim::marketsvc,
//                          default pf): a cross-tenant JointAllocator
//                          ticks at every epoch barrier and jointly
//                          assigns link shares, compute shares, and a
//                          per-tenant resolution knob under congestion
//                          budgets. Implies --edge (wifi preset unless
//                          --edge chose one) and keeps the shared solution
//                          pool, which freezes at its own barriers in the
//                          same fleet loop. Combines with --policy prior.
//                          Prints the market roll-up: admission rate,
//                          resolution distribution, decided link / compute
//                          load, and the posted price.
//
//   --offload              put the edge inside every session's HBO decision
//                          space (hbosim::offload): sessions search the
//                          4-target CPU/GPU/NPU/edge simplex and route the
//                          decided share of their inferences to the edge
//                          mirror, with radio energy charged to the session
//                          battery. Implies --edge (wifi preset unless
//                          --edge chose one) and --power (the radio energy
//                          term needs a battery). Prints the energy/offload
//                          roll-up: offload rate, mean edge share, Wh
//                          consumed, and the projected hours-of-AR-per-
//                          charge figure the frontier bench optimizes.
//
//   --sched                scheduler forensics: every session folds its
//                          per-job lifecycle records into a des::SchedMeter
//                          as they happen, the fleet prints the SchedHealth
//                          roll-up (worst p99 slowdown, fairness floor,
//                          starvation count), and the worst session is
//                          deterministically re-run with a SchedTrace to
//                          print the des::SchedAnalyzer's full forensics
//                          report. Metering and tracing change no
//                          simulated result. Disables the shared solution
//                          pool: the deep-dive re-run attaches no pool
//                          snapshot, yet must reproduce the fleet's
//                          trajectory bit for bit.
//   --gantt <file.csv>     with --sched: write the re-run worst session's
//                          per-job Gantt timeline as CSV.
//
//   --sessions N           fleet size (a positive integer, default 24).
//                          Large fleets (> 96 sessions) switch to a fast
//                          session profile (shorter duration, truncated
//                          activations) so a 10^5-session run finishes in
//                          minutes.
//
//   --stream               run the streaming roll-up path
//                          (retain_results=false): per-session results are
//                          folded into P² sketches as they complete instead
//                          of being retained, so memory stays flat in fleet
//                          size. Prints per-epoch throughput (sessions/s)
//                          and RSS heartbeats, and the peak RSS at exit.
//                          The per-session table is skipped (nothing is
//                          retained to print).

#include <charconv>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>

#include "hbosim/common/error.hpp"
#include "hbosim/common/meminfo.hpp"
#include "hbosim/fleet/fleet_simulator.hpp"
#include "hbosim/marketsvc/market.hpp"
#include "hbosim/telemetry/report.hpp"
#include "hbosim/telemetry/telemetry.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace hbosim;

  std::string trace_path;
  std::string metrics_path;
  bool use_edge = false;
  bool use_power = false;
  bool use_offload = false;
  bool use_sched = false;
  bool stream = false;
  std::string gantt_path;
  std::size_t sessions_override = 0;
  std::string edge_preset = "wifi";
  std::string policy_mode = "off";
  bool use_market = false;
  std::string market_policy = "pf";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--sessions" && i + 1 < argc) {
      const char* count = argv[++i];
      const char* end = count + std::strlen(count);
      const auto parsed = std::from_chars(count, end, sessions_override);
      if (parsed.ec != std::errc() || parsed.ptr != end ||
          sessions_override == 0) {
        std::cerr << "--sessions needs a positive count\n";
        return 2;
      }
    } else if (arg == "--stream") {
      stream = true;
    } else if (arg == "--edge") {
      use_edge = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') edge_preset = argv[++i];
    } else if (arg == "--power") {
      use_power = true;
    } else if (arg == "--offload") {
      use_offload = true;
      use_edge = true;   // the edge coordinate needs a mirror to route to
      use_power = true;  // the radio energy term needs a battery
    } else if (arg == "--sched") {
      use_sched = true;
    } else if (arg == "--gantt" && i + 1 < argc) {
      gantt_path = argv[++i];
    } else if (arg == "--market") {
      use_market = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') market_policy = argv[++i];
      if (market_policy != "pf" && market_policy != "maxmin" &&
          market_policy != "price") {
        std::cerr << "unknown --market policy '" << market_policy
                  << "' (expected pf|maxmin|price)\n";
        return 2;
      }
    } else if (arg == "--policy") {
      policy_mode = "prior";
      if (i + 1 < argc && argv[i + 1][0] != '-') policy_mode = argv[++i];
      if (policy_mode != "prior" && policy_mode != "bandit" &&
          policy_mode != "off") {
        std::cerr << "unknown --policy mode '" << policy_mode
                  << "' (expected prior|bandit|off)\n";
        return 2;
      }
    } else {
      std::cerr << "usage: fleet_demo [--trace out.json] [--metrics out.json]"
                   " [--edge [lan|wifi|congested]]"
                   " [--market [pf|maxmin|price]] [--power] [--offload]"
                   " [--sched] [--gantt out.csv]"
                   " [--policy [prior|bandit|off]]"
                   " [--sessions N] [--stream]\n";
      return 2;
    }
  }

  std::unique_ptr<telemetry::TelemetrySession> telem;
  if (!trace_path.empty() || !metrics_path.empty()) {
    telemetry::TelemetryConfig tcfg;
    // Deep rings (~16 MiB/thread): a 24-session fleet emits a few hundred
    // thousand events and the demo would rather keep them all than wrap.
    tcfg.events_per_thread = 1 << 18;
    telem = std::make_unique<telemetry::TelemetrySession>(tcfg);
  }

  fleet::FleetSpec spec;
  spec.sessions = 24;
  spec.threads = 0;  // size to the machine
  spec.duration_s = 40.0;
  spec.base_seed = 2024;
  spec.use_shared_pool = true;
  // Freeze the pool every 4 sessions: at the default 32-session epoch the
  // whole 24-session demo would read the empty first snapshot.
  spec.policy.epoch_sessions = 4;
  // Shorten activations so the demo runs in seconds.
  spec.session.hbo.n_initial = 3;
  spec.session.hbo.n_iterations = 4;
  spec.session.hbo.selection_candidates = 1;
  spec.session.hbo.control_period_s = 1.0;
  spec.session.hbo.monitor_period_s = 1.0;
  if (use_edge || use_market) {
    spec.use_edge_service = true;
    spec.edge = edgesvc::edge_service_preset(edge_preset);
  }
  if (use_market) {
    spec.market.enabled = true;
    spec.market.allocator.policy =
        marketsvc::market_policy_from_name(market_policy);
    // Eight tenants contend per allocation round.
    spec.market.epoch_sessions = 8;
  }
  if (policy_mode != "off") {
    spec.policy.mode = policy_mode == "prior" ? fleet::PolicyMode::Prior
                                              : fleet::PolicyMode::Bandit;
    // Four epochs of six: epoch 0 is the cold control group, epochs 1-3
    // read artifacts trained on progressively more traffic.
    spec.policy.epoch_sessions = 6;
    // Isolate the policy layer's contribution: no raw-solution sharing.
    spec.use_shared_pool = false;
  }
  if (sessions_override != 0) {
    spec.sessions = sessions_override;
    if (spec.sessions > 96) {
      // Mega profile: a 10^5-session fleet at the demo's default per-
      // session cost would run for hours; shorten the simulated horizon
      // and truncate activations so each session costs a few ms.
      spec.duration_s = 12.0;
      spec.session.hbo.n_initial = 2;
      spec.session.hbo.n_iterations = 3;
    }
  }
  if (stream) {
    spec.retain_results = false;
    // ~20 heartbeats over the run, whatever the fleet size.
    spec.progress_every = std::max<std::size_t>(spec.sessions / 20, 1);
    spec.on_progress = [](const fleet::FleetProgress& p) {
      const double sps =
          p.wall_seconds > 0.0
              ? static_cast<double>(p.completed) / p.wall_seconds
              : 0.0;
      std::cout << "  [" << p.completed << "/" << p.sessions << "] "
                << std::fixed << std::setprecision(1) << p.wall_seconds
                << " s elapsed, " << std::setprecision(0) << sps
                << " sessions/s, rss "
                << current_rss_bytes() / (1 << 20) << " MB (peak "
                << peak_rss_bytes() / (1 << 20) << " MB)\n";
    };
  }
  if (use_sched) {
    spec.sched.enabled = true;
    // The worst-session re-run below attaches no pool snapshot, so a
    // pooled fleet's warm starts would make it diverge from the fleet run.
    spec.use_shared_pool = false;
  }
  if (use_offload) {
    spec.offload.enabled = true;
    // A joint cost without an energy term would never *prefer* the edge on
    // a cool die; weight battery draw into phi so the optimizer trades
    // quality against hours-of-AR-per-charge (see bench_offload).
    spec.session.hbo.w_energy = 0.05;
  }
  if (use_power) {
    spec.use_power_model = true;
    // Weight the soak workload heavily so the 40-second demo shows real
    // throttling, and bias the ambient warm so the RC climb is shorter.
    spec.scenarios = {{scenario::ObjectSet::SC1, scenario::TaskSet::CF1, 1.0},
                      {scenario::ObjectSet::SC2, scenario::TaskSet::CF2, 1.0},
                      {scenario::ObjectSet::ThermalSoak,
                       scenario::TaskSet::CF1, 2.0}};
    spec.power.ambient_c = 31.0;
    // Devices start warm (prior use) and sessions run longer, so the soak
    // workload reaches the governor's throttle band instead of spending
    // the whole demo on the RC climb from a cold die.
    spec.power.initial_temp_c = 60.0;
    spec.duration_s = 90.0;
  }

  fleet::FleetSimulator simulator(spec);
  std::cout << "Simulating a fleet of " << spec.sessions
            << " MAR sessions (Pixel 7 / Galaxy S22, SC1/SC2 x CF1/CF2)"
            << (use_edge ? " sharing a '" + edge_preset + "' edge server"
                         : std::string())
            << "...\n\n";
  const fleet::FleetResult result = simulator.run();

  std::cout << std::fixed << std::setprecision(3);
  if (!result.sessions.empty()) {
    std::cout << "  id  device      scenario  activ  warm(shared)  mean_Q  "
                 "mean_eps  mean_B\n";
  }
  for (const fleet::SessionResult& s : result.sessions) {
    std::cout << "  " << std::setw(2) << s.session_id << "  " << std::left
              << std::setw(10) << s.device << "  " << std::setw(8)
              << s.scenario << std::right << "  " << std::setw(5)
              << s.activations << "  " << std::setw(4) << s.warm_starts
              << " (" << s.shared_warm_starts << ")     " << std::setw(6)
              << s.mean_quality << "  " << std::setw(8)
              << s.mean_latency_ratio << "  " << std::setw(6)
              << s.mean_reward << "\n";
  }

  const fleet::FleetMetrics& m = result.metrics;
  std::cout << "\nFleet: " << m.sessions << " sessions, "
            << m.total_sim_seconds << " simulated s in " << m.wall_seconds
            << " wall s (" << std::setprecision(1) << m.sessions_per_sec
            << " sessions/s)\n"
            << std::setprecision(3) << "  reward  mean=" << m.reward.mean
            << " p50=" << m.reward.p50 << " p90=" << m.reward.p90
            << " p99=" << m.reward.p99 << "\n"
            << "  quality mean=" << m.quality.mean
            << "  latency ratio mean=" << m.latency_ratio.mean << "\n"
            << "  activations=" << m.total_activations << " warm starts="
            << m.total_warm_starts << " (shared " << m.total_shared_warm_starts
            << "), warm-start rate=" << m.warm_start_rate << "\n"
            << "  pool: " << m.pool.size << " entries, hit rate "
            << m.pool.hit_rate() << ", " << m.pool.stores << " stores, "
            << m.pool.evictions << " evictions\n";
  if (stream) {
    std::cout << "  streaming roll-up (percentiles via P2 sketches), peak rss "
              << peak_rss_bytes() / (1 << 20) << " MB\n";
  }
  if (m.edge.enabled) {
    std::cout << "  edge: " << m.edge.requests << " requests, "
              << m.edge.retries << " retries, " << m.edge.fallbacks
              << " fallbacks (" << m.edge.decim_fallbacks << " nearest-LOD, "
              << m.edge.bo_fallbacks << " local-BO)\n"
              << "        rejection rate=" << m.edge.rejection_rate
              << " fallback rate=" << m.edge.fallback_rate
              << " queue depth p95=" << std::setprecision(1)
              << m.edge.queue_depth_p95 << " mean wait="
              << std::setprecision(3) << m.edge.mean_wait_ms << " ms\n"
              << "        mean exchange=" << m.edge.mean_exchange_ms
              << " ms request units=" << m.edge.units
              << " own service=" << m.edge.own_service_s
              << " s mean service=" << m.edge.mean_service_ms << " ms\n";
  }
  if (m.market.enabled) {
    std::cout << "  market (" << m.market.policy << "): " << m.market.ticks
              << " allocation ticks, admission rate " << std::setprecision(2)
              << m.market.admission_rate << " (" << m.market.denied_sessions
              << " denied)\n"
              << "          resolution mean=" << std::setprecision(3)
              << m.market.resolution.mean << " p50="
              << m.market.resolution.p50 << " min=" << m.market.resolution.min
              << "\n"
              << "          decided link activity="
              << m.market.link_activity << " compute utilization="
              << m.market.compute_utilization;
    if (m.market.policy == "price") {
      std::cout << " posted price=" << m.market.final_price;
    }
    std::cout << "\n";
  }
  if (m.power.enabled) {
    std::cout << "  power: " << std::setprecision(1) << m.power.total_energy_j
              << " J total, mean draw " << std::setprecision(2)
              << m.power.mean_power_w.mean << " W (p90 "
              << m.power.mean_power_w.p90 << "), drain "
              << m.power.drain_pct_per_hour.mean << " %/h\n"
              << "         die temp max p50=" << std::setprecision(1)
              << m.power.max_die_temp_c.p50 << " C p99="
              << m.power.max_die_temp_c.p99 << " C, "
              << m.power.throttle_events << " throttle steps across "
              << std::setprecision(0)
              << m.power.throttled_session_fraction * 100.0
              << "% of sessions, deepest OPP " << std::setprecision(2)
              << m.power.min_freq_scale << "x\n"
              << std::setprecision(3);
  }

  if (m.offload.enabled) {
    const double wh = m.offload.radio_energy_j / 3600.0;
    const double total_wh = m.power.total_energy_j / 3600.0;
    const double drain = m.power.drain_pct_per_hour.mean;
    std::cout << "  offload: rate " << std::setprecision(2)
              << m.offload.offload_rate << " (" << m.offload.remote_inferences
              << "/" << m.offload.completed_inferences << " inferences, "
              << m.offload.fallbacks << " fallbacks)\n"
              << "           edge share mean=" << std::setprecision(3)
              << m.offload.edge_share.mean << " p90="
              << m.offload.edge_share.p90 << "\n"
              << "           energy " << std::setprecision(2) << total_wh
              << " Wh total (" << wh << " Wh radio), projected "
              << (drain > 0.0 ? 100.0 / drain : 0.0)
              << " h of AR per charge\n" << std::setprecision(3);
  }

  if (m.sched.enabled) {
    std::cout << "  sched: " << m.sched.jobs << " jobs from "
              << m.sched.events << " lifecycle events ("
              << m.sched.dropped_events << " dropped)\n"
              << "         worst p99 slowdown " << std::setprecision(2)
              << m.sched.worst_p99_slowdown << " (p50 over sessions "
              << m.sched.p99_slowdown.p50 << "), fairness floor "
              << std::setprecision(3) << m.sched.fairness_floor << ", "
              << m.sched.starved_jobs << " starved jobs across "
              << std::setprecision(0)
              << m.sched.starved_session_fraction * 100.0
              << "% of sessions\n" << std::setprecision(3);
  }

  if (m.policy.enabled) {
    std::cout << "  policy (" << m.policy.mode << "): " << m.policy.epochs
              << " epochs of " << spec.policy.epoch_sessions << " sessions";
    if (spec.policy.mode == fleet::PolicyMode::Prior) {
      std::cout << ", " << m.policy.priors_fitted << " priors fitted over "
                << m.policy.store_keys << " env keys, injection rate "
                << m.policy.prior_injection_rate << "\n";
    } else {
      std::cout << ", " << m.policy.bandit_updates
                << " LinUCB updates from " << m.policy.bandit_pulls
                << " pulls\n";
    }

    // Warm-vs-cold convergence: epoch 0 ran before anything was learned;
    // every later epoch reads an artifact trained on all prior epochs.
    // Needs retained per-session results, so it's skipped under --stream.
    if (!result.sessions.empty()) {
      std::cout << "  epoch  sessions  "
                << (spec.policy.mode == fleet::PolicyMode::Prior
                        ? "prior_activations"
                        : "arm_pulls        ")
                << "  mean_B\n";
      const std::size_t epochs = m.policy.epochs > 0 ? m.policy.epochs : 1;
      double cold_reward = 0.0, warm_reward = 0.0;
      for (std::size_t e = 0; e < epochs; ++e) {
        std::size_t count = 0, learned = 0;
        double reward = 0.0;
        for (const fleet::SessionResult& s : result.sessions) {
          if (s.session_id / spec.policy.epoch_sessions != e) continue;
          ++count;
          learned += spec.policy.mode == fleet::PolicyMode::Prior
                         ? s.prior_activations
                         : s.bandit_pulls;
          reward += s.mean_reward;
        }
        if (count == 0) continue;
        reward /= static_cast<double>(count);
        if (e == 0) cold_reward = reward;
        if (e + 1 == epochs) warm_reward = reward;
        std::cout << "  " << std::setw(5) << e << "  " << std::setw(8) << count
                  << "  " << std::setw(17) << learned << "  " << std::setw(6)
                  << reward << "\n";
      }
      std::cout << "  cold (epoch 0) mean_B=" << cold_reward
                << "  warm (epoch " << epochs - 1 << ") mean_B=" << warm_reward
                << "  delta=" << warm_reward - cold_reward << "\n";
      }
  }

  if (use_sched) {
    // Deep dive: re-run the worst session (highest p99 slowdown; session 0
    // under --stream, where per-session results are not retained) with a
    // fresh trace. Sessions are pure functions of (spec, seed), so the
    // re-run reproduces the fleet's trajectory bit for bit.
    std::size_t worst = 0;
    for (const fleet::SessionResult& s : result.sessions) {
      if (s.sched_worst_p99_slowdown >
          result.sessions[worst].sched_worst_p99_slowdown) {
        worst = s.session_id;
      }
    }
    des::SchedTrace trace(spec.sched);
    simulator.run_session_traced(simulator.session_spec(worst), trace);
    des::SchedAnalyzer analysis(trace, spec.sched_analysis);
    const fleet::SessionSpec ws = simulator.session_spec(worst);
    std::cout << "\nWorst session " << worst << " (" << ws.device << ", "
              << ws.scenario_name() << "), re-run deterministically:\n";
    analysis.print_report(std::cout);
    if (!gantt_path.empty()) {
      std::ofstream os(gantt_path);
      if (!os) {
        std::cerr << "cannot open " << gantt_path << " for writing\n";
        return 1;
      }
      analysis.write_gantt_csv(os);
      std::cout << "Gantt timeline (" << analysis.jobs().size()
                << " jobs) -> " << gantt_path << "\n";
    }
  }

  if (telem) {
    // The fleet's worker pool has been joined, so every instrumented
    // thread is quiescent and the export is a consistent snapshot.
    if (!trace_path.empty()) {
      std::ofstream os(trace_path);
      if (!os) {
        std::cerr << "cannot open " << trace_path << " for writing\n";
        return 1;
      }
      telem->write_chrome_trace(os);
      std::cout << "\nTrace: " << telem->events_recorded() << " events ("
                << telem->events_dropped() << " dropped) -> " << trace_path
                << "  (open at https://ui.perfetto.dev)\n";
    }
    if (!metrics_path.empty()) {
      std::ofstream os(metrics_path);
      if (!os) {
        std::cerr << "cannot open " << metrics_path << " for writing\n";
        return 1;
      }
      telem->metrics().snapshot().write_json(os);
      std::cout << "Metrics snapshot -> " << metrics_path << "\n";
    }
    std::cout << "\n";
    telem->report().print(std::cout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A rejected option or fleet spec (unknown preset, an excluded layer
  // combination) is a usage error, reported like the ones parsed above.
  try {
    return run(argc, argv);
  } catch (const hbosim::Error& e) {
    std::cerr << "fleet_demo: " << e.what() << "\n";
    return 2;
  }
}
