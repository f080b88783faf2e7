// Fleet-level resource-market bench: the edge as an actor vs the static
// mirror baseline at saturation, plus the determinism and closed-form
// gates CI pins (bench-market is a hard gate — every check below is
// deterministic arithmetic over seeded simulations).
//
//  gate 1  allocator-off bitwise parity: with FleetSpec::market disabled
//          the fleet must reproduce the mirror-based edge path bit for
//          bit on 1 and 4 worker threads (also pins the edge roll-up,
//          folded in session-id order).
//  gate 2  PF closed form: two symmetric tenants over-demanding the link
//          split the binding budget exactly evenly (x = 0.5 each).
//  gate 3  market thread invariance: a market-enabled fleet is
//          bit-identical on 1 and 4 worker threads.
//  gate 4  saturation: at 10^3 tenants sharing one edge box, the joint
//          allocator must beat the static mirror baseline on p99
//          per-session edge response time while holding mean reward.
//
// The saturation sweep runs the same fleet three times per tenant count:
//   mirror       the legacy static guess — every tenant assumes N-1
//                rivals at full resolution (context row, no quality match)
//   static-trim  quality manipulation WITHOUT joint allocation: every
//                tenant pinned to the resolution the market converged to,
//                so mean quality matches the market row by construction,
//                but the mirror background stays the full-res static guess
//   market-pf    the JointAllocator deciding background + resolution
//                jointly across all N tenants in one epoch tick
// The headline gate compares market-pf against static-trim at equal mean
// quality; the table feeds EXPERIMENTS.md.
//
// Usage: bench_market [--smoke] [--json <path>]
//   --smoke   10^3-tenant sweep only (CI); full mode adds 10^4
//   --json    write a machine-readable summary (default: BENCH_market.json)
// Any other argument exits 2 with "bench_market: <message>".

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hbosim/fleet/fleet_simulator.hpp"
#include "hbosim/marketsvc/allocator.hpp"
#include "hbosim/scenario/scenarios.hpp"

namespace {

using namespace hbosim;

/// Fast session profile (the fleet_demo mega profile): a saturation point
/// needs 10^3..10^4 sessions, so each must cost milliseconds.
fleet::FleetSpec base_fleet(std::size_t sessions, std::size_t threads) {
  fleet::FleetSpec spec;
  spec.sessions = sessions;
  spec.threads = threads;
  spec.duration_s = 12.0;
  spec.base_seed = 0x3A2;
  spec.session.hbo.n_initial = 2;
  spec.session.hbo.n_iterations = 3;
  spec.session.hbo.selection_candidates = 1;
  spec.session.hbo.control_period_s = 1.0;
  spec.session.hbo.monitor_period_s = 1.0;
  spec.session.reference_periods = 2;
  spec.use_edge_service = true;
  spec.edge = edgesvc::edge_service_preset("wifi");
  return spec;
}

/// Market variant: one joint allocation round over all N tenants, so the
/// allocator faces exactly the concurrency the static mirror assumes.
fleet::FleetSpec market_fleet(std::size_t sessions, std::size_t threads) {
  fleet::FleetSpec spec = base_fleet(sessions, threads);
  spec.market.enabled = true;
  spec.market.epoch_sessions = sessions;
  spec.market.allocator.policy = marketsvc::MarketPolicy::ProportionalFair;
  return spec;
}

struct CellResult {
  std::size_t tenants = 0;
  std::string mode;  ///< "mirror" or "market-pf".
  double mean_quality = 0.0;
  double mean_reward = 0.0;
  double mean_response_ms = 0.0;  ///< Mean of per-session mean edge response.
  double p99_response_ms = 0.0;   ///< p99 across sessions of that mean.
  double fallback_rate = 0.0;
  double mean_resolution = 1.0;
  double admission_rate = 1.0;
  double wall_s = 0.0;
};

CellResult run_cell(const fleet::FleetSpec& spec, const char* mode) {
  const auto t0 = std::chrono::steady_clock::now();
  const fleet::FleetResult result = fleet::FleetSimulator(spec).run();
  CellResult out;
  out.tenants = spec.sessions;
  out.mode = mode;
  out.mean_quality = result.metrics.quality.mean;
  out.mean_reward = result.metrics.reward.mean;
  out.fallback_rate = result.metrics.edge.fallback_rate;
  if (result.metrics.market.enabled) {
    out.mean_resolution = result.metrics.market.resolution.mean;
    out.admission_rate = result.metrics.market.admission_rate;
  } else {
    out.mean_resolution = spec.edge_static_resolution;
  }
  // Per-session end-to-end edge response: simulated seconds a session
  // spent per edge request (retries and backoff included) — the latency a
  // tenant's virtual-object loads actually experienced.
  std::vector<double> response_ms;
  response_ms.reserve(result.sessions.size());
  double acc = 0.0;
  for (const fleet::SessionResult& s : result.sessions) {
    const double per_req =
        s.edge_requests > 0
            ? s.edge_elapsed_s / static_cast<double>(s.edge_requests)
            : 0.0;
    response_ms.push_back(per_req * 1e3);
    acc += per_req * 1e3;
  }
  std::sort(response_ms.begin(), response_ms.end());
  out.mean_response_ms = acc / static_cast<double>(response_ms.size());
  out.p99_response_ms =
      response_ms[static_cast<std::size_t>(
          0.99 * static_cast<double>(response_ms.size() - 1))];
  out.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  return out;
}

/// Gate 1+3 helper: every per-session field that must replay bitwise.
bool sessions_bitwise_equal(const fleet::FleetResult& a,
                            const fleet::FleetResult& b) {
  if (a.sessions.size() != b.sessions.size()) return false;
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    const fleet::SessionResult& x = a.sessions[i];
    const fleet::SessionResult& y = b.sessions[i];
    if (x.mean_quality != y.mean_quality || x.mean_reward != y.mean_reward ||
        x.mean_latency_ratio != y.mean_latency_ratio ||
        x.sim_seconds != y.sim_seconds ||
        x.edge_requests != y.edge_requests ||
        x.edge_retries != y.edge_retries ||
        x.edge_fallbacks != y.edge_fallbacks ||
        x.edge_payload_bytes != y.edge_payload_bytes ||
        x.edge_units != y.edge_units ||
        x.edge_elapsed_s != y.edge_elapsed_s ||
        x.market_resolution != y.market_resolution ||
        x.market_price != y.market_price) {
      return false;
    }
  }
  // Roll-up doubles exercise the broker's order-independent re-summation.
  return a.metrics.edge.mean_wait_ms == b.metrics.edge.mean_wait_ms &&
         a.metrics.edge.requests == b.metrics.edge.requests;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args =
      benchutil::parse_args(argc, argv, "bench_market", "BENCH_market.json");
  if (!args) return 2;
  const bool smoke = args->smoke;
  const std::string& json_path = args->json_path;

  benchutil::banner("bench_market",
                    "joint allocator vs static mirror at saturation");

  // --- gate 1: allocator-off bitwise parity across thread counts --------
  const bool off_parity = sessions_bitwise_equal(
      fleet::FleetSimulator(base_fleet(48, 1)).run(),
      fleet::FleetSimulator(base_fleet(48, 4)).run());

  // --- gate 2: PF closed form on two symmetric tenants ------------------
  marketsvc::MarketConfig pf_cfg;  // budgets: link 2.0, compute 0.75 x cores
  marketsvc::JointAllocator pf(pf_cfg, 4.0, 120.0, 0.035);
  marketsvc::TenantDemand d0, d1;
  d0.tenant = 0;
  d0.flow_activity = 2.0;
  d0.request_rps = 0.1;
  d1 = d0;
  d1.tenant = 1;
  const auto pf_out = pf.tick({d0, d1});
  const double x0 = pf_out[0].resolution * pf_out[0].resolution;
  const bool pf_closed_form =
      pf_out[0].resolution == pf_out[1].resolution &&
      std::abs(x0 - 0.5) < 1e-9;

  // --- gate 3: market fleet bit-identical on 1 vs 4 threads -------------
  const bool market_invariant = sessions_bitwise_equal(
      fleet::FleetSimulator(market_fleet(48, 1)).run(),
      fleet::FleetSimulator(market_fleet(48, 4)).run());

  benchutil::section("determinism gates");
  benchutil::recap_line("allocator-off 1-vs-4-thread parity", "bitwise",
                        off_parity ? "bitwise" : "DIVERGED");
  benchutil::recap_line("PF symmetric 2-tenant split", "x = 0.5 each",
                        pf_closed_form ? "x = 0.5 each" : "UNEVEN");
  benchutil::recap_line("market 1-vs-4-thread invariance", "bitwise",
                        market_invariant ? "bitwise" : "DIVERGED");

  // --- saturation sweep -------------------------------------------------
  std::vector<std::size_t> tenant_counts = {1000};
  if (!smoke) tenant_counts.push_back(10'000);

  benchutil::section("saturation sweep");
  std::cout << std::fixed
            << "  tenants  mode       mean_Q  mean_B  resp_ms  p99_ms  "
               "fallback  res   admit  wall_s\n";
  std::vector<CellResult> cells;
  for (std::size_t n : tenant_counts) {
    // The market row runs first: the static-trim baseline pins every
    // tenant to the resolution the allocator converged to, so the two
    // rows land at equal mean quality by construction.
    const CellResult market_cell = run_cell(market_fleet(n, 0), "market-pf");
    fleet::FleetSpec trimmed = base_fleet(n, 0);
    trimmed.edge_static_resolution = market_cell.mean_resolution;
    const CellResult cell_list[] = {
        run_cell(base_fleet(n, 0), "mirror"),
        run_cell(trimmed, "static-trim"),
        market_cell,
    };
    for (const CellResult& c : cell_list) {
      cells.push_back(c);
      std::cout << "  " << std::setw(7) << c.tenants << "  " << std::left
                << std::setw(9) << c.mode << std::right
                << std::setprecision(3) << std::setw(8) << c.mean_quality
                << std::setw(8) << c.mean_reward << std::setprecision(1)
                << std::setw(9) << c.mean_response_ms << std::setw(8)
                << c.p99_response_ms << std::setprecision(3) << std::setw(10)
                << c.fallback_rate << std::setprecision(2) << std::setw(6)
                << c.mean_resolution << std::setw(7) << c.admission_rate
                << std::setprecision(1) << std::setw(8) << c.wall_s << "\n";
    }
  }

  // --- gate 4: the allocator must pay off at 10^3 tenants ---------------
  // The static-trim row sheds the same r^2 work at the same r^gamma
  // perceived quality; the only delta the market adds is the *joint*
  // part — decided background and the one-box budget. So at equal mean
  // quality the allocator must beat the quality-matched baseline (and,
  // a fortiori, the untrimmed mirror) on p99 end-to-end edge response,
  // hold the reward, and shed the fallback storm.
  const CellResult& mirror_1k = cells[0];
  const CellResult& trimmed_1k = cells[1];
  const CellResult& market_1k = cells[2];
  const bool quality_matched =
      std::abs(market_1k.mean_quality - trimmed_1k.mean_quality) <= 0.01;
  const bool p99_wins =
      market_1k.p99_response_ms < 0.9 * trimmed_1k.p99_response_ms &&
      market_1k.p99_response_ms < 0.9 * mirror_1k.p99_response_ms;
  const bool reward_holds =
      market_1k.mean_reward >= trimmed_1k.mean_reward - 0.02;
  const bool fallbacks_drop =
      market_1k.fallback_rate <= trimmed_1k.fallback_rate &&
      market_1k.fallback_rate <= mirror_1k.fallback_rate;

  benchutil::section("recap");
  benchutil::recap_line("10^3-tenant mean quality", "market == static-trim",
                        quality_matched ? "matched" : "MISMATCHED");
  benchutil::recap_line(
      "10^3-tenant p99 edge response", "market < 0.9x static-trim",
      p99_wins ? "yes (" + std::to_string(market_1k.p99_response_ms) +
                     " vs " + std::to_string(trimmed_1k.p99_response_ms) +
                     " ms)"
               : "NO");
  benchutil::recap_line("10^3-tenant mean reward",
                        "market >= static-trim - 0.02",
                        reward_holds ? "holds" : "REGRESSED");
  benchutil::recap_line("10^3-tenant fallback rate", "market lowest",
                        fallbacks_drop ? "yes" : "NO");

  const bool pass = off_parity && pf_closed_form && market_invariant &&
                    quality_matched && p99_wins && reward_holds &&
                    fallbacks_drop;

  std::ofstream json(json_path);
  json << std::setprecision(6) << std::fixed;
  json << "{\n  \"bench\": \"bench_market\",\n  \"smoke\": "
       << (smoke ? "true" : "false")
       << ",\n  \"host\": " << benchutil::host_json()
       << ",\n  \"gates\": {\n    \"allocator_off_parity\": "
       << (off_parity ? "true" : "false")
       << ",\n    \"pf_closed_form\": " << (pf_closed_form ? "true" : "false")
       << ",\n    \"market_thread_invariance\": "
       << (market_invariant ? "true" : "false")
       << ",\n    \"saturation_quality_matched\": "
       << (quality_matched ? "true" : "false")
       << ",\n    \"saturation_p99_win\": " << (p99_wins ? "true" : "false")
       << ",\n    \"saturation_reward_holds\": "
       << (reward_holds ? "true" : "false")
       << ",\n    \"saturation_fallbacks_drop\": "
       << (fallbacks_drop ? "true" : "false") << "\n  },\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    json << "    {\"tenants\": " << c.tenants << ", \"mode\": \"" << c.mode
         << "\", \"mean_quality\": " << c.mean_quality
         << ", \"mean_reward\": " << c.mean_reward
         << ", \"mean_response_ms\": " << c.mean_response_ms
         << ", \"p99_response_ms\": " << c.p99_response_ms
         << ", \"fallback_rate\": " << c.fallback_rate
         << ", \"mean_resolution\": " << c.mean_resolution
         << ", \"admission_rate\": " << c.admission_rate
         << ", \"wall_s\": " << c.wall_s << "}"
         << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "\nJSON summary written to " << json_path << "\n";

  return pass ? 0 : 1;
}
