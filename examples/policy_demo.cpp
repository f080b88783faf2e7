// Policy demo: the two faces of hbosim::policy in one minute.
//
// 1. Meta-warm-starts — a PriorStore watches a few ordinary HBO sessions,
//    fits a ScenarioPrior for their (device, scenario, environment), and a
//    brand-new cold session starts its Bayesian search from everything the
//    fleet already knows: the demo prints the best-cost-so-far curve of a
//    flat cold start next to the prior-warmed one.
//
// 2. The LinUCB agent — the same app driven by the contextual bandit,
//    which pays one control period per decision instead of HBO's
//    multi-period activation burst. Mid-run the user walks toward the
//    objects (distance scale 0.5) and the demo prints the reward trace
//    around the shift.

#include <iomanip>
#include <iostream>
#include <memory>
#include <vector>

#include "hbosim/core/monitored_session.hpp"
#include "hbosim/policy/bandit_session.hpp"
#include "hbosim/policy/prior_store.hpp"
#include "hbosim/scenario/scenarios.hpp"
#include "hbosim/soc/devices_builtin.hpp"

int main() {
  using namespace hbosim;

  const char* kDevice = "Pixel 7";
  const char* kScenario = "SC2/CF2";
  const soc::DeviceProfile device = soc::find_builtin(kDevice);
  auto make = [&](std::uint64_t seed) {
    auto app = scenario::make_app(device, scenario::ObjectSet::SC2,
                                  scenario::TaskSet::CF2, seed);
    app->start();
    return app;
  };
  core::HboConfig hbo;
  hbo.n_initial = 3;
  hbo.n_iterations = 7;
  hbo.selection_candidates = 1;
  hbo.control_period_s = 1.0;
  hbo.monitor_period_s = 1.0;

  // --- 1. train a PriorStore from ordinary session traffic ---------------
  std::cout << "Training a PriorStore on 6 HBO sessions (" << kDevice << ", "
            << kScenario << ")...\n";
  policy::PriorStore store;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    auto app = make(seed);
    core::MonitoredSessionConfig cfg;
    cfg.hbo = hbo;
    cfg.hbo.seed = seed;
    core::MonitoredSession session(*app, cfg);
    session.run_until(90.0);
    for (const core::SessionActivation& a : session.activations())
      if (!a.warm_start)
        for (const core::IterationRecord& rec : a.result.history)
          store.record({kDevice, kScenario, a.env}, rec.z, rec.cost);
  }
  const auto snapshot = store.snapshot();
  const policy::PriorStoreStats stats = store.stats();
  std::cout << "  " << stats.recorded << " observations recorded, "
            << stats.keys << " environment keys, " << stats.fits
            << " priors fitted\n\n";

  // --- race a flat cold start against a prior-warmed one -----------------
  const std::uint64_t cold_seed = 77;
  std::vector<std::vector<double>> curves;
  for (const bool warmed : {false, true}) {
    auto app = make(cold_seed);
    core::HboConfig cfg = hbo;
    cfg.seed = cold_seed;
    core::HboController controller(*app, cfg);
    if (warmed)
      controller.set_surrogate_prior(snapshot->find(
          kDevice, kScenario, core::SolutionLookupTable::make_key(*app)));
    curves.push_back(controller.run_activation().best_cost_curve());
  }
  std::cout << std::fixed << std::setprecision(3);
  std::cout << "Cold session, best cost after each suggest() round "
               "(lower is better):\n  round:";
  for (std::size_t i = 0; i < curves[0].size(); ++i)
    std::cout << std::setw(8) << i + 1;
  std::cout << "\n  flat: ";
  for (double c : curves[0]) std::cout << std::setw(8) << c;
  std::cout << "\n  prior:";
  for (double c : curves[1]) std::cout << std::setw(8) << c;
  std::cout << "\n\n";

  // --- 2. the LinUCB agent through an environment shift ------------------
  std::cout << "LinUCB agent: 120 one-period pulls, the user walks up to "
               "the objects at t=60s...\n";
  auto app = make(cold_seed);
  policy::BanditSessionConfig bcfg;
  bcfg.hbo = hbo;
  bcfg.hbo.seed = cold_seed;
  policy::BanditSession agent(*app, bcfg);
  agent.run_until(60.0);
  app->set_user_distance_scale(0.5);
  agent.run_until(120.0);

  auto window = [&](double lo, double hi) {
    double acc = 0.0;
    int n = 0;
    for (const auto& [t, r] : agent.stats().reward_trace)
      if (t > lo && t <= hi) {
        acc += r;
        ++n;
      }
    return n > 0 ? acc / n : 0.0;
  };
  std::cout << "  pulls=" << agent.experiences().size()
            << "  reward: settled pre-shift=" << window(40.0, 60.0)
            << "  first 10s after shift=" << window(60.0, 70.0)
            << "  settled post-shift=" << window(100.0, 120.0) << "\n";
  std::cout << "  (an HBO activation would spend ~" << hbo.n_initial +
                   hbo.n_iterations
            << " control periods exploring after the shift; the agent "
               "re-selects every period)\n";
  return 0;
}
