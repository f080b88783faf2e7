// Policy-layer bench: does learning across sessions actually pay?
//
// Part 1 — meta-warm-starts: train a PriorStore on the full-activation
// traffic of a batch of sessions, then give fresh cold sessions the
// fitted ScenarioPrior and count how many suggest() rounds each needs to
// reach the incumbent cost a long flat-prior reference run converges to.
// Prior-warmed activations must get there in fewer rounds on average.
//
// Part 2 — agent vs HBO adaptation: the same scripted environment
// timeline (distance-scale toggles, then the shift under test) driven
// once by the HBO MonitoredSession and once by the LinUCB BanditSession.
// An HBO activation is a ~10-control-period Bayesian burst; a bandit
// activation is a single arm pull, so after the agent has seen a few
// shifts it should re-settle faster. Reported as mean reward over the
// 30 s adaptation window after the shift plus time-to-recover.
//
// Not a paper artefact — the paper's HBO is single-session; this bench
// characterizes the hbosim::policy extensions (fleet-learned priors and
// the contextual-bandit baseline) against that HBO core.
//
// Usage: bench_policy [--smoke] [--json <path>]
//   --smoke   fewer train/eval seeds (CI)
//   --json    write a machine-readable summary (default: BENCH_policy.json)
// Any other argument exits 2 with "bench_policy: <message>".

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hbosim/app/script.hpp"
#include "hbosim/core/monitored_session.hpp"
#include "hbosim/des/trace.hpp"
#include "hbosim/policy/bandit_session.hpp"
#include "hbosim/policy/prior_store.hpp"
#include "hbosim/scenario/scenarios.hpp"
#include "hbosim/soc/devices_builtin.hpp"

namespace {

using namespace hbosim;

constexpr const char* kDevice = "Pixel 7";
constexpr const char* kScenario = "SC2/CF2";

core::HboConfig fast_hbo(std::uint64_t seed) {
  core::HboConfig hbo;
  hbo.n_initial = 3;
  hbo.n_iterations = 7;
  hbo.selection_candidates = 1;
  hbo.control_period_s = 1.0;
  hbo.monitor_period_s = 1.0;
  hbo.seed = seed;
  return hbo;
}

std::unique_ptr<app::MarApp> fresh_app(std::uint64_t seed) {
  const soc::DeviceProfile device = soc::find_builtin(kDevice);
  auto app = scenario::make_app(device, scenario::ObjectSet::SC2,
                                scenario::TaskSet::CF2, seed);
  app->start();
  return app;
}

// ---- part 1: prior warm starts ------------------------------------------

struct ColdStartRow {
  std::uint64_t seed = 0;
  double incumbent = 0.0;    ///< Long flat reference run's best cost.
  int flat_rounds = 0;       ///< suggest() rounds to reach incumbent+slack.
  int prior_rounds = 0;
  double flat_best = 0.0;    ///< Best cost inside the standard budget.
  double prior_best = 0.0;
};

/// First 1-based round whose running-best cost is within `slack` of the
/// incumbent; budget+1 when the whole activation never gets there.
int rounds_to_reach(const core::ActivationResult& r, double incumbent,
                    double slack) {
  const std::vector<double> curve = r.best_cost_curve();
  for (std::size_t i = 0; i < curve.size(); ++i)
    if (curve[i] <= incumbent + slack) return static_cast<int>(i) + 1;
  return static_cast<int>(curve.size()) + 1;
}

struct Part1Result {
  std::vector<ColdStartRow> rows;
  policy::PriorStoreStats store;
  double flat_rounds_mean = 0.0;
  double prior_rounds_mean = 0.0;
  double flat_best_mean = 0.0;
  double prior_best_mean = 0.0;
};

Part1Result run_part1(int train_sessions, int eval_seeds,
                      double train_duration_s) {
  Part1Result out;

  // Train: ordinary HBO sessions; every full activation's iteration
  // history lands in the store under its quantized environment — exactly
  // the feed a Prior-mode fleet performs at epoch barriers.
  policy::PriorStore store;
  for (int s = 0; s < train_sessions; ++s) {
    const std::uint64_t seed = 0x1000u + static_cast<std::uint64_t>(s);
    auto app = fresh_app(seed);
    core::MonitoredSessionConfig cfg;
    cfg.hbo = fast_hbo(seed);
    cfg.reference_periods = 2;
    core::MonitoredSession session(*app, cfg);
    session.run_until(train_duration_s);
    for (const core::SessionActivation& a : session.activations()) {
      if (a.warm_start) continue;
      for (const core::IterationRecord& rec : a.result.history)
        store.record({kDevice, kScenario, a.env}, rec.z, rec.cost);
    }
  }
  const std::shared_ptr<const policy::PriorSnapshot> snap = store.snapshot();
  out.store = store.stats();

  // Evaluate on held-out seeds: a long flat run pins the incumbent, then
  // a flat and a prior-warmed activation race to it on fresh apps.
  constexpr double kSlack = 0.02;
  for (int s = 0; s < eval_seeds; ++s) {
    const std::uint64_t seed = 0x2000u + static_cast<std::uint64_t>(s);
    ColdStartRow row;
    row.seed = seed;
    {
      auto app = fresh_app(seed);
      core::HboConfig ref = fast_hbo(seed);
      ref.n_initial = 4;
      ref.n_iterations = 16;
      core::HboController ctrl(*app, ref);
      row.incumbent = ctrl.run_activation().best().cost;
    }
    {
      auto app = fresh_app(seed);
      core::HboController ctrl(*app, fast_hbo(seed));
      const core::ActivationResult r = ctrl.run_activation();
      row.flat_rounds = rounds_to_reach(r, row.incumbent, kSlack);
      row.flat_best = r.best().cost;
    }
    {
      auto app = fresh_app(seed);
      core::HboController ctrl(*app, fast_hbo(seed));
      ctrl.set_surrogate_prior(snap->find(
          kDevice, kScenario, core::SolutionLookupTable::make_key(*app)));
      const core::ActivationResult r = ctrl.run_activation();
      row.prior_rounds = rounds_to_reach(r, row.incumbent, kSlack);
      row.prior_best = r.best().cost;
    }
    out.rows.push_back(row);
  }

  for (const ColdStartRow& r : out.rows) {
    out.flat_rounds_mean += r.flat_rounds;
    out.prior_rounds_mean += r.prior_rounds;
    out.flat_best_mean += r.flat_best;
    out.prior_best_mean += r.prior_best;
  }
  const double n = static_cast<double>(out.rows.size());
  out.flat_rounds_mean /= n;
  out.prior_rounds_mean /= n;
  out.flat_best_mean /= n;
  out.prior_best_mean /= n;
  return out;
}

// ---- part 2: adaptation after an environment shift ----------------------

constexpr double kShiftAt = 120.0;
constexpr double kEnd = 240.0;
constexpr double kWindowS = 30.0;

struct AdaptResult {
  std::string name;
  double pre_shift = 0.0;     ///< Mean reward over the 30 s before the shift.
  double window_mean = 0.0;   ///< Mean reward over the 30 s after it.
  double final_steady = 0.0;  ///< Mean reward over the last 30 s.
  double recovery_s = 0.0;    ///< Shift -> first sample at 90% of the dip
                              ///< recovered; kEnd - kShiftAt if never.
  std::size_t activations = 0;
};

/// Scripted timeline shared by both arms: two warm-up distance toggles
/// (context variety for the bandit to train on), then the shift under
/// test at kShiftAt — the user walks up to the objects, halving every
/// distance, so render load jumps and the reward dips until the
/// controller re-adapts.
void schedule_timeline(app::ScriptRunner& script) {
  script.set_distance_scale_at(40.0, 0.7);
  script.set_distance_scale_at(80.0, 1.0);
  script.set_distance_scale_at(kShiftAt, 0.5);
}

AdaptResult summarize_trace(
    const std::string& name,
    const std::vector<std::pair<SimTime, double>>& trace,
    std::size_t activations) {
  AdaptResult out;
  out.name = name;
  out.activations = activations;
  auto window_mean = [&](double lo, double hi) {
    double acc = 0.0;
    int n = 0;
    for (const auto& [t, r] : trace)
      if (t > lo && t <= hi) {
        acc += r;
        ++n;
      }
    return n > 0 ? acc / n : 0.0;
  };
  out.pre_shift = window_mean(kShiftAt - kWindowS, kShiftAt);
  out.window_mean = window_mean(kShiftAt, kShiftAt + kWindowS);
  out.final_steady = window_mean(kEnd - kWindowS, kEnd);

  double dip = out.final_steady;
  for (const auto& [t, r] : trace)
    if (t > kShiftAt) dip = std::min(dip, r);
  const double target = out.final_steady - 0.1 * (out.final_steady - dip);
  out.recovery_s = kEnd - kShiftAt;
  for (const auto& [t, r] : trace)
    if (t > kShiftAt && r >= target) {
      out.recovery_s = t - kShiftAt;
      break;
    }
  return out;
}

AdaptResult run_hbo_arm(std::uint64_t seed) {
  auto app = fresh_app(seed);
  des::TraceRecorder trace;
  app::ScriptRunner script(*app, trace);
  schedule_timeline(script);
  core::MonitoredSessionConfig cfg;
  cfg.hbo = fast_hbo(seed);
  cfg.reference_periods = 2;
  core::MonitoredSession session(*app, cfg);
  session.run_until(kEnd);
  return summarize_trace("HBO", session.stats().reward_trace,
                         session.activations().size());
}

AdaptResult run_bandit_arm(std::uint64_t seed) {
  auto app = fresh_app(seed);
  des::TraceRecorder trace;
  app::ScriptRunner script(*app, trace);
  schedule_timeline(script);
  policy::BanditSessionConfig cfg;
  cfg.hbo = fast_hbo(seed);
  policy::BanditConfig bandit;
  bandit.alpha = 0.4;  // Commit faster: 28 arms, short deviation windows.
  policy::BanditSession session(*app, cfg, bandit);
  session.run_until(kEnd);
  return summarize_trace("LinUCB", session.stats().reward_trace,
                         session.experiences().size());
}

}  // namespace

int main(int argc, char** argv) {
  const auto args =
      benchutil::parse_args(argc, argv, "bench_policy", "BENCH_policy.json");
  if (!args) return 2;
  const bool smoke = args->smoke;
  const std::string& json_path = args->json_path;

  benchutil::banner("bench_policy",
                    "learned warm-start priors and the LinUCB agent vs HBO");
  const int train_sessions = smoke ? 6 : 10;
  const int eval_seeds = smoke ? 4 : 8;
  const double train_duration_s = smoke ? 60.0 : 120.0;

  const auto t0 = std::chrono::steady_clock::now();

  benchutil::section("part 1: suggest() rounds to reach the incumbent");
  std::cout << "  train: " << train_sessions << " sessions x "
            << train_duration_s << "s on " << kDevice << " " << kScenario
            << "; eval: " << eval_seeds << " held-out cold starts\n";
  const Part1Result p1 = run_part1(train_sessions, eval_seeds,
                                   train_duration_s);
  std::cout << std::fixed << std::setprecision(3);
  std::cout << "  store: " << p1.store.keys << " env keys, "
            << p1.store.observations << " retained observations, "
            << p1.store.fits << " priors fitted\n";
  std::cout << "  seed      incumbent  flat_rounds  prior_rounds   "
               "flat_best  prior_best\n";
  for (const ColdStartRow& r : p1.rows)
    std::cout << "  0x" << std::hex << r.seed << std::dec << std::setw(13)
              << r.incumbent << std::setw(13) << r.flat_rounds
              << std::setw(14) << r.prior_rounds << std::setw(12)
              << r.flat_best << std::setw(12) << r.prior_best << "\n";
  std::cout << "  mean rounds: flat=" << p1.flat_rounds_mean
            << "  prior=" << p1.prior_rounds_mean << "   mean best cost: flat="
            << p1.flat_best_mean << "  prior=" << p1.prior_best_mean << "\n";

  benchutil::section("part 2: adaptation after the t=120s distance shift");
  const AdaptResult hbo = run_hbo_arm(0x7A5);
  const AdaptResult ucb = run_bandit_arm(0x7A5);
  for (const AdaptResult& a : {hbo, ucb})
    std::cout << "  " << std::left << std::setw(7) << a.name << std::right
              << " pre=" << a.pre_shift << "  window30s=" << a.window_mean
              << "  final=" << a.final_steady << "  recovery="
              << std::setprecision(1) << a.recovery_s << "s"
              << std::setprecision(3) << "  activations=" << a.activations
              << "\n";

  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

  const bool prior_faster = p1.prior_rounds_mean < p1.flat_rounds_mean;
  const bool prior_no_worse = p1.prior_best_mean <= p1.flat_best_mean + 0.01;
  // Adaptation speed, not absolute reward: the 28-arm grid caps the
  // bandit below HBO's continuous optimum, but it must get back to its
  // own steady state at least as fast as HBO's re-activation burst does.
  const bool bandit_adapts = ucb.recovery_s <= hbo.recovery_s;

  benchutil::section("recap");
  benchutil::recap_line("prior-warmed rounds < flat rounds", "yes",
                        prior_faster ? "yes" : "NO");
  benchutil::recap_line("prior best cost no worse than flat", "yes",
                        prior_no_worse ? "yes" : "NO");
  benchutil::recap_line("bandit recovers no slower than HBO", "yes",
                        bandit_adapts ? "yes" : "NO");

  std::ofstream json(json_path);
  json << std::setprecision(6) << std::fixed;
  json << "{\n  \"bench\": \"bench_policy\",\n  \"smoke\": "
       << (smoke ? "true" : "false")
       << ",\n  \"host\": " << benchutil::host_json()
       << ",\n  \"wall_s\": " << wall_s
       << ",\n  \"warm_start_priors\": {\n    \"train_sessions\": "
       << train_sessions << ",\n    \"store_keys\": " << p1.store.keys
       << ",\n    \"store_observations\": " << p1.store.observations
       << ",\n    \"priors_fitted\": " << p1.store.fits
       << ",\n    \"flat_rounds_mean\": " << p1.flat_rounds_mean
       << ",\n    \"prior_rounds_mean\": " << p1.prior_rounds_mean
       << ",\n    \"flat_best_mean\": " << p1.flat_best_mean
       << ",\n    \"prior_best_mean\": " << p1.prior_best_mean
       << ",\n    \"cold_starts\": [\n";
  for (std::size_t i = 0; i < p1.rows.size(); ++i) {
    const ColdStartRow& r = p1.rows[i];
    json << "      {\"seed\": " << r.seed << ", \"incumbent\": "
         << r.incumbent << ", \"flat_rounds\": " << r.flat_rounds
         << ", \"prior_rounds\": " << r.prior_rounds << ", \"flat_best\": "
         << r.flat_best << ", \"prior_best\": " << r.prior_best << "}"
         << (i + 1 < p1.rows.size() ? "," : "") << "\n";
  }
  json << "    ]\n  },\n  \"adaptation\": [\n";
  const std::vector<AdaptResult> arms = {hbo, ucb};
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const AdaptResult& a = arms[i];
    json << "    {\"controller\": \"" << a.name << "\", \"pre_shift\": "
         << a.pre_shift << ", \"window_mean\": " << a.window_mean
         << ", \"final_steady\": " << a.final_steady << ", \"recovery_s\": "
         << a.recovery_s << ", \"activations\": " << a.activations << "}"
         << (i + 1 < arms.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"gates\": {\"prior_faster\": "
       << (prior_faster ? "true" : "false") << ", \"prior_no_worse\": "
       << (prior_no_worse ? "true" : "false") << ", \"bandit_adapts\": "
       << (bandit_adapts ? "true" : "false") << "}\n}\n";
  std::cout << "\nJSON summary written to " << json_path << "\n";

  return (prior_faster && prior_no_worse && bandit_adapts) ? 0 : 1;
}
