// Battery-lifetime frontier: hours-of-AR-per-charge vs QoE with and
// without the edge in the HBO decision space (hbosim::offload). Each
// cell of scenario::offload_matrix() — {light SC2/CF2, ThermalSoak/CF1}
// x {lan, congested} — runs a small power-enabled fleet twice per
// w_energy point: once confined to the paper's on-device CPU/GPU/NPU
// simplex and once searching the 4-target simplex with the edge share as
// a coordinate. The sweep over w_energy traces each mode's frontier.
//
// Not a paper artefact — the paper's testbed has no edge tier; this
// bench characterizes the hbosim::offload extension and feeds the
// EXPERIMENTS.md battery-lifetime frontier table.
//
// Hard gates (exit code 1 on violation; CI runs this as bench-offload):
//  - 3-resource parity: the offload-disabled configuration is bitwise
//    identical on 1 and 4 fleet threads, and bitwise identical run to
//    run (the pre-offload behaviour is still there, untouched).
//  - offload determinism: the offload-enabled configuration is bitwise
//    identical on 1 and 4 fleet threads.
//  - frontier dominance: in ThermalSoak x congested — a hot throttling
//    die behind a lossy link, the corner where a fixed policy would
//    lose — some 4-target point weakly dominates the best on-device-only
//    point on (hours-of-AR-per-charge, QoE).
//
// Usage: bench_offload [--smoke] [--json <path>]
//   --smoke   fewer sessions / shorter horizon / single w_energy (CI)
//   --json    machine-readable summary (default: BENCH_offload.json)
// Any other argument exits 2 with "bench_offload: <message>".

#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hbosim/fleet/fleet_simulator.hpp"
#include "hbosim/scenario/scenarios.hpp"

namespace {

using namespace hbosim;

struct SweepPoint {
  std::string cell;
  bool offload = false;
  double w_energy = 0.0;
  double qoe = 0.0;             ///< Fleet mean reward B = Q - w*eps.
  double hours_per_charge = 0.0;
  double drain_pct_per_hour = 0.0;
  double offload_rate = 0.0;
  double mean_edge_share = 0.0;
  double radio_wh = 0.0;
};

struct BenchConfig {
  std::size_t sessions = 8;
  double duration_s = 40.0;
  int bo_iterations = 10;
  std::vector<double> w_energies;
};

fleet::FleetSpec make_spec(const scenario::OffloadMatrixCell& cell,
                           bool offload, double w_energy,
                           const BenchConfig& bc, std::size_t threads) {
  fleet::FleetSpec spec;
  spec.sessions = bc.sessions;
  spec.threads = threads;
  spec.duration_s = bc.duration_s;
  spec.base_seed = 0x0FF10AD;
  // Enough per-activation BO budget that the search can *shrink* the
  // edge coordinate on a hostile link, not just grow it on a good one —
  // the congested cells are meaningless with a toy budget.
  spec.session.hbo.n_initial = 4;
  spec.session.hbo.n_iterations = bc.bo_iterations;
  spec.session.hbo.selection_candidates = 5;
  spec.session.hbo.control_period_s = 1.0;
  spec.session.hbo.monitor_period_s = 1.0;
  spec.session.hbo.w_energy = w_energy;
  spec.session.reference_periods = 2;
  // Warm starts keep drift-triggered re-activations from re-paying the
  // full exploration bill every time the governor steps — both modes get
  // the same lookup table, so the comparison stays apples to apples.
  spec.session.use_lookup_table = true;
  spec.scenarios = {{cell.objects, cell.tasks, 1.0}};
  spec.use_edge_service = true;
  spec.edge = edgesvc::edge_service_preset(cell.edge_preset);
  spec.use_power_model = true;
  // The cell defines the thermal environment (the soak cells start at the
  // governor trip point in a pocket-warm ambient), so the trade-off is
  // live inside the bench horizon instead of spent on the RC climb.
  spec.power.ambient_c = cell.ambient_c;
  spec.power.initial_temp_c = cell.initial_temp_c;
  spec.offload.enabled = offload;
  return spec;
}

SweepPoint run_point(const scenario::OffloadMatrixCell& cell, bool offload,
                     double w_energy, const BenchConfig& bc) {
  const fleet::FleetResult r =
      fleet::FleetSimulator(make_spec(cell, offload, w_energy, bc, 0)).run();
  SweepPoint p;
  p.cell = cell.name;
  p.offload = offload;
  p.w_energy = w_energy;
  p.qoe = r.metrics.reward.mean;
  p.drain_pct_per_hour = r.metrics.power.drain_pct_per_hour.mean;
  p.hours_per_charge =
      p.drain_pct_per_hour > 0.0 ? 100.0 / p.drain_pct_per_hour : 0.0;
  p.offload_rate = r.metrics.offload.offload_rate;
  p.mean_edge_share = r.metrics.offload.edge_share.mean;
  p.radio_wh = r.metrics.offload.radio_energy_j / 3600.0;
  return p;
}

/// Bitwise comparison of the per-session surfaces two runs must agree on.
bool sessions_identical(const fleet::FleetResult& a,
                        const fleet::FleetResult& b) {
  if (a.sessions.size() != b.sessions.size()) return false;
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    const fleet::SessionResult& x = a.sessions[i];
    const fleet::SessionResult& y = b.sessions[i];
    if (x.mean_quality != y.mean_quality || x.mean_reward != y.mean_reward ||
        x.mean_latency_ratio != y.mean_latency_ratio ||
        x.energy_j != y.energy_j || x.battery_soc != y.battery_soc ||
        x.offload_remote != y.offload_remote ||
        x.radio_energy_j != y.radio_energy_j ||
        x.activations != y.activations) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args =
      benchutil::parse_args(argc, argv, "bench_offload", "BENCH_offload.json");
  if (!args) return 2;
  const bool smoke = args->smoke;
  const std::string& json_path = args->json_path;

  benchutil::banner("bench_offload",
                    "hours-of-AR-per-charge vs QoE, 3- vs 4-target simplex");

  BenchConfig bc;
  // Sessions need a horizon long enough that the converged configuration
  // (not the exploration transient) dominates the mean, and enough
  // sessions that fleet-mean drain is stable — smoke trims only the
  // w_energy sweep. The whole full sweep is a few seconds of wall time.
  bc.sessions = 8;
  bc.duration_s = 150.0;
  bc.bo_iterations = 12;
  bc.w_energies = smoke ? std::vector<double>{0.0, 0.05}
                        : std::vector<double>{0.0, 0.05, 0.15};

  const std::vector<scenario::OffloadMatrixCell> cells =
      scenario::offload_matrix();

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<SweepPoint> points;
  std::cout << std::fixed
            << "  cell                   mode       w_e    QoE     h/charge"
               "  off_rate  edge_share\n";
  for (const scenario::OffloadMatrixCell& cell : cells) {
    for (const bool offload : {false, true}) {
      for (const double w : bc.w_energies) {
        const SweepPoint p = run_point(cell, offload, w, bc);
        points.push_back(p);
        std::cout << "  " << std::left << std::setw(21) << p.cell << "  "
                  << std::setw(9) << (offload ? "4-target" : "on-device")
                  << std::right << std::setprecision(2) << std::setw(5)
                  << p.w_energy << std::setprecision(3) << std::setw(8)
                  << p.qoe << std::setprecision(2) << std::setw(10)
                  << p.hours_per_charge << std::setw(9) << p.offload_rate
                  << std::setprecision(3) << std::setw(11)
                  << p.mean_edge_share << "\n";
      }
    }
  }

  // --- gates ------------------------------------------------------------
  // Parity: offload disabled must be bitwise identical on 1 and 4 fleet
  // threads and run to run (the pre-offload path, untouched). Offload
  // enabled must be bitwise identical on 1 and 4 threads.
  const scenario::OffloadMatrixCell& soak_congested = cells.back();
  const fleet::FleetSpec off1 =
      make_spec(soak_congested, false, 0.05, bc, 1);
  const fleet::FleetSpec off4 =
      make_spec(soak_congested, false, 0.05, bc, 4);
  const fleet::FleetResult off_a = fleet::FleetSimulator(off1).run();
  const fleet::FleetResult off_b = fleet::FleetSimulator(off4).run();
  const fleet::FleetResult off_c = fleet::FleetSimulator(off1).run();
  const bool parity_disabled =
      sessions_identical(off_a, off_b) && sessions_identical(off_a, off_c);

  const fleet::FleetResult on_a =
      fleet::FleetSimulator(make_spec(soak_congested, true, 0.05, bc, 1))
          .run();
  const fleet::FleetResult on_b =
      fleet::FleetSimulator(make_spec(soak_congested, true, 0.05, bc, 4))
          .run();
  const bool parity_enabled = sessions_identical(on_a, on_b);

  // Frontier dominance in ThermalSoak x congested: some 4-target point
  // must weakly dominate the best (highest-QoE) on-device-only point —
  // at least as good on BOTH axes, strictly, no tolerance. The sim is
  // deterministic, so the gate is exact.
  const SweepPoint* best_off = nullptr;
  for (const SweepPoint& p : points) {
    if (p.cell != soak_congested.name || p.offload) continue;
    if (best_off == nullptr || p.qoe > best_off->qoe) best_off = &p;
  }
  bool dominates = false;
  const SweepPoint* witness = nullptr;
  for (const SweepPoint& p : points) {
    if (p.cell != soak_congested.name || !p.offload) continue;
    if (p.qoe >= best_off->qoe &&
        p.hours_per_charge >= best_off->hours_per_charge) {
      dominates = true;
      if (witness == nullptr || p.qoe > witness->qoe) witness = &p;
    }
  }

  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

  benchutil::section("recap");
  benchutil::recap_line("3-resource parity (1/4 threads, rerun)", "bitwise",
                        parity_disabled ? "bitwise" : "DIVERGED");
  benchutil::recap_line("4-target 1-vs-4-thread identity", "bitwise",
                        parity_enabled ? "bitwise" : "DIVERGED");
  std::cout << std::setprecision(3);
  benchutil::recap_line(
      "soak x congested: 4-target dominates on-device", "yes",
      dominates ? "yes" : "NO");
  if (best_off != nullptr) {
    std::cout << "    best on-device: QoE " << best_off->qoe << " at "
              << std::setprecision(2) << best_off->hours_per_charge
              << " h/charge" << std::setprecision(3);
    if (witness != nullptr) {
      std::cout << "; 4-target witness: QoE " << witness->qoe << " at "
                << std::setprecision(2) << witness->hours_per_charge
                << " h/charge (edge share " << std::setprecision(3)
                << witness->mean_edge_share << ")";
    }
    std::cout << "\n";
  }

  std::ofstream json(json_path);
  json << std::setprecision(6) << std::fixed;
  json << "{\n  \"bench\": \"bench_offload\",\n  \"smoke\": "
       << (smoke ? "true" : "false")
       << ",\n  \"host\": " << benchutil::host_json()
       << ",\n  \"sessions_per_point\": "
       << bc.sessions << ",\n  \"duration_s\": " << bc.duration_s
       << ",\n  \"wall_s\": " << wall_s << ",\n  \"gates\": {\n"
       << "    \"parity_disabled_bitwise\": "
       << (parity_disabled ? "true" : "false") << ",\n"
       << "    \"parity_enabled_thread_invariant\": "
       << (parity_enabled ? "true" : "false") << ",\n"
       << "    \"soak_congested_dominates\": "
       << (dominates ? "true" : "false") << "\n  },\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    json << "    {\"cell\": \"" << p.cell << "\", \"mode\": \""
         << (p.offload ? "4-target" : "on-device")
         << "\", \"w_energy\": " << p.w_energy << ", \"qoe\": " << p.qoe
         << ", \"hours_per_charge\": " << p.hours_per_charge
         << ", \"drain_pct_per_hour\": " << p.drain_pct_per_hour
         << ", \"offload_rate\": " << p.offload_rate
         << ", \"mean_edge_share\": " << p.mean_edge_share
         << ", \"radio_wh\": " << p.radio_wh << "}"
         << (i + 1 < points.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "\nJSON summary written to " << json_path << "\n";

  return (parity_disabled && parity_enabled && dominates) ? 0 : 1;
}
