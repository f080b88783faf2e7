// BO engine bench: suggest() and tell() latency of the Bayesian optimizer
// (cached distance matrix, rank-1 Cholesky growth per tell, batched
// allocation-free candidate scoring) against the number of observations,
// suggest() latency with a fitted learned prior (one batched prior-mean
// call per suggest), plus the end-to-end wall clock of a fleet whose
// sessions run full HBO activations.
//
// Not a paper artefact — this measures the optimizer engine itself.
//
// Usage: bench_bo [--smoke] [--json <path>] [--gate <committed.json>]
//   --smoke   smaller sizes and shorter repetitions (CI)
//   --json    write a machine-readable summary (default: BENCH_bo.json)
//   --gate    in --smoke mode, enforce the smoke_gate block of a committed
//             JSON (max suggest us at n = 8 and n = 64, max suggest us with
//             a 96-point prior, max tell us); exceeding any bound fails the
//             bench — the CI regression gate

#include <chrono>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hbosim/bo/optimizer.hpp"
#include "hbosim/common/mathx.hpp"
#include "hbosim/fleet/fleet_simulator.hpp"
#include "hbosim/policy/prior_store.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Smooth synthetic cost over the HBO domain (same shape the optimizer
/// tests use); the bench only needs something finite and non-constant.
double synthetic_cost(std::span<const double> z) {
  const std::vector<double> target = {0.6, 0.1, 0.3, 0.7};
  const double d = hbosim::euclidean_distance(z, target);
  return d * d;
}

/// The same bowl in the 5-dim offload space (four allocation targets plus
/// the triangle ratio).
double offload_cost(std::span<const double> z) {
  const std::vector<double> target = {0.4, 0.1, 0.2, 0.3, 0.7};
  const double d = hbosim::euclidean_distance(z, target);
  return d * d;
}

/// Optimizer pre-loaded with n observations and warmed surrogates, ready
/// for suggest() timing.
hbosim::bo::BayesianOptimizer warmed_optimizer(std::size_t n,
                                               hbosim::Rng& rng) {
  hbosim::bo::BayesianOptimizer opt(hbosim::bo::SimplexBoxSpace(3, 0.2, 1.0));
  for (std::size_t i = 0; i < n; ++i) {
    const auto z = opt.space().sample(rng);
    opt.tell(z, synthetic_cost(z));
  }
  (void)opt.suggest(rng);  // builds the live surrogates once
  return opt;
}

/// A learned-prior optimizer as prior_offload's sessions run it: the 5-dim
/// offload space, two initial draws, a ScenarioPrior fitted from
/// `support` pooled observations, and three observations told, so every
/// suggest() scores its candidates against the GP and the prior.
hbosim::bo::BayesianOptimizer prior_optimizer(std::size_t support,
                                              hbosim::Rng& rng) {
  const hbosim::bo::SimplexBoxSpace space(4, 0.2, 1.0);
  std::vector<std::vector<double>> zs;
  std::vector<double> costs;
  for (std::size_t i = 0; i < support; ++i) {
    zs.push_back(space.sample(rng));
    costs.push_back(offload_cost(zs.back()));
  }
  hbosim::bo::BoConfig cfg;
  cfg.n_initial = 2;
  cfg.prior = std::make_shared<hbosim::policy::ScenarioPrior>(
      std::move(zs), std::move(costs), hbosim::policy::PriorStoreConfig{});
  hbosim::bo::BayesianOptimizer opt(space, cfg);
  for (int i = 0; i < 3; ++i) {
    const auto z = space.sample(rng);
    opt.tell(z, offload_cost(z));
  }
  (void)opt.suggest(rng);  // builds the live surrogates once
  return opt;
}

/// Mean microseconds per suggest() call, repeated until `min_seconds` of
/// work has accumulated (at least 3 calls).
double time_suggest_us(hbosim::bo::BayesianOptimizer& opt, hbosim::Rng& rng,
                       double min_seconds) {
  double sink = 0.0;
  int reps = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  while (reps < 3 || elapsed < min_seconds) {
    sink += opt.suggest(rng)[0];
    ++reps;
    elapsed = seconds_since(t0);
  }
  if (sink < -1.0) std::cout << "";  // keep the work observable
  return elapsed / reps * 1e6;
}

double fleet_wall_seconds(std::size_t sessions) {
  hbosim::fleet::FleetSpec spec;
  spec.sessions = sessions;
  spec.duration_s = 20.0;
  spec.threads = 1;  // single worker: wall time == optimizer + sim CPU work
  spec.session.hbo.n_initial = 5;
  spec.session.hbo.n_iterations = 15;
  const auto t0 = Clock::now();
  (void)hbosim::fleet::FleetSimulator(spec).run();
  return seconds_since(t0);
}

// The committed smoke-mode regression bounds, echoed into every JSON this
// bench writes and enforced by --gate. Each sits about 3x from the smoke
// runs measured when they were set (4-core host, Release): 98-116 us per
// suggest at n = 8, 281-326 us at n = 64, 251-315 us with a 96-point
// prior (1017-1298 us before the prior mean was batched), 16-21 us per
// tell.
constexpr double kGateMaxSuggestUsN8 = 450.0;
constexpr double kGateMaxSuggestUsN64 = 1050.0;
constexpr double kGateMaxSuggestUsPrior96 = 900.0;
constexpr double kGateMaxTellUs = 70.0;

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_bo.json";
  std::string gate_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    else if (std::strcmp(argv[i], "--gate") == 0 && i + 1 < argc)
      gate_path = argv[++i];
  }

  benchutil::banner("bench_bo", "Bayesian optimizer suggest/tell latency");
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{8, 64}
            : std::vector<std::size_t>{8, 16, 32, 64, 128};
  const double min_seconds = smoke ? 0.05 : 0.4;

  // --- suggest() latency vs database size ---------------------------------
  benchutil::section("suggest() latency (" +
                     std::to_string(hbosim::bo::kLengthScaleGrid.size()) +
                     "-point length-scale grid, " +
                     std::to_string(hbosim::bo::kRandomCandidates +
                                    hbosim::bo::kLocalCandidates) +
                     " candidates)");
  std::cout << "        n  suggest_us\n" << std::fixed;
  struct Row {
    std::size_t n;
    double us;
  };
  std::vector<Row> rows;
  for (std::size_t n : sizes) {
    hbosim::Rng rng(1000 + n);
    auto opt = warmed_optimizer(n, rng);
    const double us = time_suggest_us(opt, rng, min_seconds);
    rows.push_back({n, us});
    std::cout << "  " << std::setw(7) << n << std::setprecision(1)
              << std::setw(12) << us << "\n";
  }
  // NaN for a size that was not measured, so the gate fails on it.
  auto us_at = [](const std::vector<Row>& rs, std::size_t n) {
    for (const Row& r : rs)
      if (r.n == n) return r.us;
    return std::numeric_limits<double>::quiet_NaN();
  };

  // --- suggest() latency with a learned prior -----------------------------
  // 96 points is the exact-key cap most prior_offload sessions see, 256 the
  // pooled cap.
  const std::vector<std::size_t> supports =
      smoke ? std::vector<std::size_t>{96} : std::vector<std::size_t>{96, 256};
  benchutil::section(
      "suggest() latency with a fitted ScenarioPrior (5-dim offload space, "
      "n = 3)");
  std::cout << "  support  suggest_us\n";
  std::vector<Row> prior_rows;
  for (std::size_t support : supports) {
    hbosim::Rng rng(2000 + support);
    auto opt = prior_optimizer(support, rng);
    const double us = time_suggest_us(opt, rng, min_seconds);
    prior_rows.push_back({support, us});
    std::cout << "  " << std::setw(7) << support << std::setprecision(1)
              << std::setw(12) << us << "\n";
  }

  // --- tell() latency ------------------------------------------------------
  benchutil::section("tell() latency while growing 64 -> 128 observations");
  double tell_us = 0.0;
  {
    hbosim::Rng rng(77);
    auto opt = warmed_optimizer(64, rng);
    std::vector<std::vector<double>> zs;
    for (int i = 0; i < 64; ++i) zs.push_back(opt.space().sample(rng));
    const auto t0 = Clock::now();
    for (const auto& z : zs) opt.tell(z, synthetic_cost(z));
    tell_us = seconds_since(t0) / 64.0 * 1e6;
    std::cout << "  tell(): " << std::setprecision(1) << tell_us
              << " us/observation (distance row + one bordered update per "
                 "grid entry)\n";
  }

  // --- end-to-end fleet wall-clock ----------------------------------------
  const std::size_t fleet_sessions = smoke ? 8 : 48;
  benchutil::section("end-to-end fleet wall-clock (" +
                     std::to_string(fleet_sessions) + " sessions, 1 thread)");
  const double fleet_s = fleet_wall_seconds(fleet_sessions);
  std::cout << std::setprecision(3) << "  wall: " << fleet_s << " s\n";

  // --- machine-readable summary -------------------------------------------
  std::ofstream json(json_path);
  json << std::setprecision(6) << std::fixed;
  json << "{\n  \"bench\": \"bench_bo\",\n  \"smoke\": "
       << (smoke ? "true" : "false")
       << ",\n  \"host\": " << benchutil::host_json()
       << ",\n  \"suggest\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json << "    {\"n\": " << rows[i].n << ", \"us\": " << rows[i].us << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"prior_suggest\": [\n";
  for (std::size_t i = 0; i < prior_rows.size(); ++i) {
    json << "    {\"support\": " << prior_rows[i].n
         << ", \"us\": " << prior_rows[i].us << "}"
         << (i + 1 < prior_rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"tell_us\": " << tell_us
       << ",\n  \"fleet\": {\"sessions\": " << fleet_sessions
       << ", \"threads\": 1, \"wall_s\": " << fleet_s
       << "},\n  \"smoke_gate\": {\"max_suggest_us_n8\": "
       << kGateMaxSuggestUsN8 << ", \"max_suggest_us_n64\": "
       << kGateMaxSuggestUsN64 << ", \"max_suggest_us_prior96\": "
       << kGateMaxSuggestUsPrior96
       << ", \"max_tell_us\": " << kGateMaxTellUs << "}\n}\n";
  std::cout << "\nJSON summary written to " << json_path << "\n";

  // --- CI regression gate --------------------------------------------------
  // Enforced only in smoke mode (full runs regenerate the committed JSON;
  // gating them against themselves would be circular).
  bool gate_ok = true;
  if (!gate_path.empty() && smoke) {
    std::ifstream gate_file(gate_path);
    const std::string gate_text((std::istreambuf_iterator<char>(gate_file)),
                                std::istreambuf_iterator<char>());
    double max_n8 = 0.0, max_n64 = 0.0, max_prior96 = 0.0, max_tell = 0.0;
    if (!benchutil::json_number(gate_text, "max_suggest_us_n8", &max_n8) ||
        !benchutil::json_number(gate_text, "max_suggest_us_n64", &max_n64) ||
        !benchutil::json_number(gate_text, "max_suggest_us_prior96",
                                &max_prior96) ||
        !benchutil::json_number(gate_text, "max_tell_us", &max_tell)) {
      std::cout << "GATE: no smoke_gate block in " << gate_path
                << " — failing so the committed baseline gets regenerated\n";
      gate_ok = false;
    } else {
      auto check = [&gate_ok](const char* what, double got, double bound) {
        const bool ok = got <= bound;
        std::cout << "GATE " << (ok ? "ok  " : "FAIL") << ": " << what << " = "
                  << std::setprecision(1) << got << " <= " << bound << "\n";
        gate_ok = gate_ok && ok;
      };
      check("suggest us @ n=8", us_at(rows, 8), max_n8);
      check("suggest us @ n=64", us_at(rows, 64), max_n64);
      check("suggest us with a 96-point prior", us_at(prior_rows, 96),
            max_prior96);
      check("tell us", tell_us, max_tell);
    }
  }
  return gate_ok ? 0 : 1;
}
