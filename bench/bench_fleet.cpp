// Fleet scaling bench: simulated-sessions/sec across worker-thread counts,
// with and without the shared cross-session solution pool, plus the
// learned policy layer (hbosim::policy) running in Prior mode.
//
// Not a paper artefact — this measures the hbosim::fleet engine itself:
//   * scaling curve: a fixed fleet on {1, 4, hardware_concurrency} threads
//     (deduplicated), reporting wall time, sessions/sec, and speedup vs 1;
//   * warm-start ablation: the same fleet with the SharedSolutionPool on
//     (pool epoch sessions / 8, as for the priors below), reporting pool
//     hit rate and the warm-start fraction of activations;
//   * policy layer: the same fleet in PolicyMode::Prior, reporting how
//     much of the full-activation traffic ran with a fitted prior;
//   * mega-fleet scaling curve: a sessions x threads grid run through the
//     streaming path (retain_results=false, bounded in-flight window,
//     pool on at the default epoch), reporting wall time, sessions/sec,
//     peak RSS, and pool hit rate — the 10^5-session regime.
//
// Usage: bench_fleet [--smoke] [--json <path>] [--gate <committed.json>]
//                    [sessions] [duration_s]
//   sessions, duration_s  a positive integer and a positive finite number;
//             anything else, an unknown option included, exits 2 with
//             "bench_fleet: <message>"
//   --smoke   smaller fleet (CI); defaults otherwise: 256 sessions, 20 s
//   --json    write a machine-readable summary (default: BENCH_fleet.json)
//   --gate    with --smoke only, enforce the smoke_gate block of a
//             committed JSON (max wall clock, max peak RSS, min mega
//             throughput); exceeding any bound fails the bench — the CI
//             regression gate

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "hbosim/common/meminfo.hpp"
#include "hbosim/common/thread_pool.hpp"
#include "hbosim/fleet/fleet_simulator.hpp"

namespace {

hbosim::fleet::FleetSpec base_spec(std::size_t sessions, double duration_s) {
  hbosim::fleet::FleetSpec spec;
  spec.sessions = sessions;
  spec.duration_s = duration_s;
  // Truncated activations keep one session around tens of milliseconds so
  // a 256-session fleet finishes in seconds; the *relative* thread scaling
  // is what this bench measures.
  spec.session.hbo.n_initial = 2;
  spec.session.hbo.n_iterations = 3;
  spec.session.hbo.selection_candidates = 1;
  spec.session.hbo.control_period_s = 1.0;
  spec.session.hbo.monitor_period_s = 1.0;
  spec.session.reference_periods = 2;
  return spec;
}

struct ScalePoint {
  std::size_t threads = 0;
  double wall_s = 0.0;
  double sessions_per_sec = 0.0;
  double speedup = 0.0;
};

struct MegaPoint {
  std::size_t sessions = 0;
  std::size_t threads = 0;
  double wall_s = 0.0;
  double sessions_per_sec = 0.0;
  double peak_rss_mb = 0.0;
  double pool_hit_rate = 0.0;
};

double mb(std::size_t bytes) { return static_cast<double>(bytes) / (1 << 20); }

/// Parse all of `text` into `out` with std::from_chars; false when the
/// text is no number of type T or has anything left over ("5x").
template <typename T>
bool parse_whole(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

// The committed smoke-mode regression bounds, echoed into every JSON this
// bench writes and enforced by --gate. Each sits about 3x from the smoke
// runs measured when they were set (4-core host, Release): 3.5-3.9 s
// wall, 5.2 MB peak RSS, 900-1000 sessions/s on the worst mega row.
constexpr double kGateMaxWallS = 12.0;
constexpr double kGateMaxPeakRssMb = 16.0;
constexpr double kGateMinMegaSessionsPerSec = 300.0;

}  // namespace

int main(int argc, char** argv) {
  using namespace hbosim;

  const auto args =
      benchutil::parse_args(argc, argv, "bench_fleet", "BENCH_fleet.json",
                            /*gate=*/true, /*max_positional=*/2);
  if (!args) return 2;
  const bool smoke = args->smoke;
  const std::string& json_path = args->json_path;
  const std::string& gate_path = args->gate_path;
  const std::vector<std::string_view>& positional = args->positional;
  std::size_t sessions = smoke ? 64 : 256;
  double duration_s = smoke ? 15.0 : 20.0;
  if (!positional.empty() &&
      (!parse_whole(positional[0], sessions) || sessions == 0)) {
    return benchutil::usage_error(
        "bench_fleet", "session count must be a positive integer, got '" +
                           std::string(positional[0]) + "'");
  }
  if (positional.size() > 1 &&
      (!parse_whole(positional[1], duration_s) ||
       !std::isfinite(duration_s) || duration_s <= 0.0)) {
    return benchutil::usage_error(
        "bench_fleet", "duration_s must be a positive finite number, got '" +
                           std::string(positional[1]) + "'");
  }

  benchutil::banner("bench_fleet",
                    "fleet engine scaling, shared-pool warm starts, and the "
                    "policy layer");
  std::cout << "fleet: " << sessions << " sessions x " << duration_s
            << " simulated s, device mix {Pixel 7, Galaxy S22}, "
               "scenario mix SC1/SC2 x CF1/CF2\n";

  const auto t0 = std::chrono::steady_clock::now();

  // --- scaling curve -------------------------------------------------------
  benchutil::section("sessions/sec vs worker threads (pool off)");
  std::vector<std::size_t> thread_counts = {1, 4,
                                            ThreadPool::hardware_threads()};
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(
      std::unique(thread_counts.begin(), thread_counts.end()),
      thread_counts.end());

  double serial_wall = 0.0;
  std::vector<ScalePoint> scaling;
  std::cout << std::fixed;
  std::cout << "  threads    wall_s   sessions/s   speedup_vs_1\n";
  for (std::size_t threads : thread_counts) {
    fleet::FleetSpec spec = base_spec(sessions, duration_s);
    spec.threads = threads;
    const fleet::FleetResult result = fleet::FleetSimulator(spec).run();
    const fleet::FleetMetrics& m = result.metrics;
    if (threads == 1) serial_wall = m.wall_seconds;
    ScalePoint p;
    p.threads = threads;
    p.wall_s = m.wall_seconds;
    p.sessions_per_sec = m.sessions_per_sec;
    p.speedup = m.wall_seconds > 0.0 ? serial_wall / m.wall_seconds : 0.0;
    scaling.push_back(p);
    std::cout << "  " << std::setw(7) << threads << std::setprecision(2)
              << std::setw(10) << p.wall_s << std::setprecision(1)
              << std::setw(13) << p.sessions_per_sec << std::setprecision(2)
              << std::setw(15) << p.speedup << "\n";
  }

  // --- shared-pool ablation ------------------------------------------------
  benchutil::section("shared solution pool (hardware threads)");
  double pool_warm_rate = 0.0, pool_hit_rate = 0.0;
  for (bool pooled : {false, true}) {
    fleet::FleetSpec spec = base_spec(sessions, duration_s);
    spec.threads = ThreadPool::hardware_threads();
    spec.use_shared_pool = pooled;
    spec.policy.epoch_sessions = std::max<std::size_t>(sessions / 8, 1);
    spec.session.use_lookup_table = true;  // per-session table in both arms
    const fleet::FleetResult result = fleet::FleetSimulator(spec).run();
    const fleet::FleetMetrics& m = result.metrics;
    std::cout << "  pool " << (pooled ? "ON " : "OFF") << ": wall="
              << std::setprecision(2) << m.wall_seconds << "s  "
              << std::setprecision(1) << m.sessions_per_sec
              << " sessions/s  activations=" << m.total_activations
              << "  warm_starts=" << m.total_warm_starts << " (shared "
              << m.total_shared_warm_starts << ")  warm_rate="
              << std::setprecision(3) << m.warm_start_rate
              << "  pool_hit_rate=" << m.pool.hit_rate() << "\n";
    if (pooled) {
      pool_warm_rate = m.warm_start_rate;
      pool_hit_rate = m.pool.hit_rate();
      std::cout << "  pool entries=" << m.pool.size << " stores="
                << m.pool.stores << " evictions=" << m.pool.evictions
                << "\n";
      benchutil::section("fleet-wide per-session aggregates (pool ON)");
      auto row = [](const char* name, const Summary& s) {
        std::cout << "  " << std::left << std::setw(14) << name << std::right
                  << std::setprecision(3) << " mean=" << s.mean
                  << " p50=" << s.p50 << " p90=" << s.p90 << " p99=" << s.p99
                  << "\n";
      };
      row("quality Q", m.quality);
      row("latency eps", m.latency_ratio);
      row("reward B", m.reward);
    }
  }

  // --- policy layer (Prior mode) -------------------------------------------
  benchutil::section("learned priors (PolicyMode::Prior, hardware threads)");
  fleet::FleetSpec pspec = base_spec(sessions, duration_s);
  pspec.threads = ThreadPool::hardware_threads();
  pspec.policy.mode = fleet::PolicyMode::Prior;
  pspec.policy.epoch_sessions = std::max<std::size_t>(sessions / 8, 1);
  const fleet::FleetResult presult = fleet::FleetSimulator(pspec).run();
  const fleet::FleetMetrics& pm = presult.metrics;
  std::cout << "  epochs=" << pm.policy.epochs << "  store_keys="
            << pm.policy.store_keys << "  priors_fitted="
            << pm.policy.priors_fitted << "  prior_activations="
            << pm.policy.prior_activations << "  injection_rate="
            << std::setprecision(3) << pm.policy.prior_injection_rate << "\n";

  // --- mega-fleet streaming scaling curve ----------------------------------
  // The 10^5-session regime: retain_results=false (P² roll-up, bounded
  // in-flight window), shared pool on. Runs LAST so
  // the process's VmHWM (monotone) reflects the mega fleet, which is the
  // largest phase — that is the peak-RSS figure the gate bounds.
  benchutil::section("mega-fleet streaming path (retain_results=false)");
  const std::vector<std::size_t> mega_sessions =
      smoke ? std::vector<std::size_t>{512, 2048}
            : std::vector<std::size_t>{4096, 16384, 65536};
  std::vector<std::size_t> mega_threads = {1, 4,
                                           ThreadPool::hardware_threads()};
  std::sort(mega_threads.begin(), mega_threads.end());
  mega_threads.erase(std::unique(mega_threads.begin(), mega_threads.end()),
                     mega_threads.end());
  std::vector<MegaPoint> mega;
  std::cout << "  sessions  threads    wall_s  sessions/s  peak_rss_mb"
               "  hit_rate\n";
  for (std::size_t n : mega_sessions) {
    for (std::size_t threads : mega_threads) {
      fleet::FleetSpec spec = base_spec(n, 10.0);
      spec.threads = threads;
      spec.retain_results = false;
      spec.use_shared_pool = true;
      spec.session.use_lookup_table = true;
      const fleet::FleetResult result = fleet::FleetSimulator(spec).run();
      const fleet::FleetMetrics& m = result.metrics;
      MegaPoint p;
      p.sessions = n;
      p.threads = threads;
      p.wall_s = m.wall_seconds;
      p.sessions_per_sec = m.sessions_per_sec;
      p.peak_rss_mb = mb(peak_rss_bytes());
      p.pool_hit_rate = m.pool.hit_rate();
      mega.push_back(p);
      std::cout << "  " << std::setw(8) << n << std::setw(9) << threads
                << std::setprecision(2) << std::setw(10) << p.wall_s
                << std::setprecision(1) << std::setw(12) << p.sessions_per_sec
                << std::setw(13) << p.peak_rss_mb << std::setprecision(3)
                << std::setw(10) << p.pool_hit_rate << "\n";
    }
  }
  const double peak_rss_mb = mb(peak_rss_bytes());
  std::cout << "  process peak RSS: " << std::setprecision(1) << peak_rss_mb
            << " MB (streaming keeps retained state O(threads), so the "
               "grid's RSS stays near-flat in session count)\n";

  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

  std::cout << "\nDeterminism note: per-session results are bit-identical "
               "across thread counts in every arm. Pooled sessions read the "
               "pool as frozen at their epoch's barrier, so a warm start "
               "lands up to one epoch after the solution was published.\n";

  std::ofstream json(json_path);
  json << std::setprecision(6) << std::fixed;
  json << "{\n  \"bench\": \"bench_fleet\",\n  \"smoke\": "
       << (smoke ? "true" : "false")
       << ",\n  \"host\": " << benchutil::host_json()
       << ",\n  \"sessions\": " << sessions
       << ",\n  \"duration_s\": " << duration_s
       << ",\n  \"hardware_threads\": " << ThreadPool::hardware_threads()
       << ",\n  \"wall_s\": " << wall_s << ",\n  \"scaling\": [\n";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const ScalePoint& p = scaling[i];
    json << "    {\"threads\": " << p.threads << ", \"wall_s\": " << p.wall_s
         << ", \"sessions_per_sec\": " << p.sessions_per_sec
         << ", \"speedup_vs_1\": " << p.speedup << "}"
         << (i + 1 < scaling.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"shared_pool\": {\"warm_start_rate\": " << pool_warm_rate
       << ", \"hit_rate\": " << pool_hit_rate
       << "},\n  \"policy_prior\": {\"epochs\": " << pm.policy.epochs
       << ", \"store_keys\": " << pm.policy.store_keys
       << ", \"priors_fitted\": " << pm.policy.priors_fitted
       << ", \"prior_activations\": " << pm.policy.prior_activations
       << ", \"injection_rate\": " << pm.policy.prior_injection_rate
       << "},\n  \"mega\": [\n";
  for (std::size_t i = 0; i < mega.size(); ++i) {
    const MegaPoint& p = mega[i];
    json << "    {\"sessions\": " << p.sessions << ", \"threads\": "
         << p.threads << ", \"wall_s\": " << p.wall_s
         << ", \"sessions_per_sec\": " << p.sessions_per_sec
         << ", \"peak_rss_mb\": " << p.peak_rss_mb << ", \"pool_hit_rate\": "
         << p.pool_hit_rate << "}"
         << (i + 1 < mega.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"peak_rss_mb\": " << peak_rss_mb
       << ",\n  \"smoke_gate\": {\"max_wall_s\": " << kGateMaxWallS
       << ", \"max_peak_rss_mb\": " << kGateMaxPeakRssMb
       << ", \"min_mega_sessions_per_sec\": " << kGateMinMegaSessionsPerSec
       << "}\n}\n";
  std::cout << "JSON summary written to " << json_path << "\n";

  // --- CI regression gate --------------------------------------------------
  // --gate comes with --smoke only (benchutil::parse_args).
  bool gate_ok = true;
  if (!gate_path.empty()) {
    std::ifstream gate_file(gate_path);
    std::string gate_text((std::istreambuf_iterator<char>(gate_file)),
                          std::istreambuf_iterator<char>());
    double max_wall = 0.0, max_rss = 0.0, min_sps = 0.0;
    if (!benchutil::json_number(gate_text, "max_wall_s", &max_wall) ||
        !benchutil::json_number(gate_text, "max_peak_rss_mb", &max_rss) ||
        !benchutil::json_number(gate_text, "min_mega_sessions_per_sec",
                                &min_sps)) {
      std::cout << "GATE: no smoke_gate block in " << gate_path
                << " — failing so the committed baseline gets regenerated\n";
      gate_ok = false;
    } else {
      double worst_sps = mega.empty() ? 0.0 : mega.front().sessions_per_sec;
      for (const MegaPoint& p : mega)
        worst_sps = std::min(worst_sps, p.sessions_per_sec);
      auto check = [&gate_ok](const char* what, double got, double bound,
                              bool upper) {
        const bool ok = upper ? got <= bound : got >= bound;
        std::cout << "GATE " << (ok ? "ok  " : "FAIL") << ": " << what << " = "
                  << std::setprecision(2) << got << (upper ? " <= " : " >= ")
                  << bound << "\n";
        gate_ok = gate_ok && ok;
      };
      check("bench wall_s", wall_s, max_wall, /*upper=*/true);
      check("peak_rss_mb", peak_rss_mb, max_rss, /*upper=*/true);
      check("mega sessions/s (worst)", worst_sps, min_sps, /*upper=*/false);
    }
  }

  // The structural story this bench gates on: parallelism must actually
  // help, and the policy layer must fit and inject priors into the fleet.
  // The scaling gate is timing-based, so it only applies to full runs on
  // multi-core machines — smoke mode on a shared CI runner is too noisy
  // for a hard wall-clock gate (the policy gate is deterministic and
  // always applies).
  const bool scales = smoke || ThreadPool::hardware_threads() <= 1 ||
                      scaling.back().speedup > 1.2;
  const bool policy_learns =
      pm.policy.priors_fitted > 0 && pm.policy.prior_activations > 0;
  return (scales && policy_learns && gate_ok) ? 0 : 1;
}
