// Reproduces Fig. 8 — the activation study: 10 virtual objects are placed
// automatically between t=0 and t~255s and the user steps back at t~320s,
// while the reward B_t = Q - w*eps is monitored every 2 seconds.
//  (a) HBO's event-based policy (thresholds +5% / -10%) activates only
//      after the first placement, when a heavy object actually hurts the
//      reward, and when the distance change improves it;
//  (b) a periodic policy re-runs the optimization on a fixed schedule
//      (7 activations in the paper), burning optimization time whether or
//      not the system needs it.

#include <iostream>

#include "bench_util.hpp"
#include "hbosim/common/stats.hpp"
#include "hbosim/common/table.hpp"
#include "hbosim/core/activation.hpp"
#include "hbosim/core/controller.hpp"
#include "hbosim/core/cost.hpp"
#include "hbosim/scenario/scenarios.hpp"
#include "hbosim/soc/devices_builtin.hpp"

using namespace hbosim;

namespace {

constexpr double kEnd = 420.0;

/// Schedule the shared scenario timeline on an app: ten placements (the
/// tenth is the paper's heavy ~150k-triangle object) and a distance change.
void schedule_timeline(app::MarApp& app) {
  struct Placement {
    double at;
    const char* mesh;
    double distance;
  };
  static constexpr Placement kPlacements[] = {
      {1, "cabin", 1.4},    {25, "andy", 1.1},     {55, "hammer", 1.8},
      {85, "Cocacola", 1.5}, {115, "apricot", 1.2}, {145, "ATV", 2.0},
      {175, "plane", 2.2},  {205, "bike", 1.8},    {230, "plane", 1.9},
      {255, "statue", 1.5},
  };
  for (const Placement& p : kPlacements) {
    app.sim().schedule_at(p.at, [&app, p] {
      app.add_object(scenario::mesh_asset(p.mesh), p.distance);
    });
  }
  app.sim().schedule_at(320.0, [&app] { app.set_user_distance_scale(1.8); });
}

struct SessionResult {
  std::vector<std::pair<double, double>> rewards;  // (t, B)
  std::vector<double> activations;                 // activation start times
};

/// Drive one monitored session; `use_event_policy` selects Fig. 8a vs 8b.
SessionResult run_session(bool use_event_policy) {
  const soc::DeviceProfile device = soc::pixel7();
  app::MarAppConfig app_cfg;
  auto app = std::make_unique<app::MarApp>(device, app_cfg);
  for (const auto& t : scenario::task_specs(scenario::TaskSet::CF1))
    app->add_task(t.model, t.label);
  schedule_timeline(*app);
  app->start();

  core::HboConfig cfg;
  core::HboController hbo(*app, cfg);
  core::EventActivationPolicy event_policy;
  core::PeriodicActivationPolicy periodic_policy(10);  // every ~20 s monitored

  SessionResult out;
  // Measurement noise on a 2 s window is comparable to the 5% threshold,
  // so the monitored reward is smoothed before the policy sees it — the
  // moving-average filter any production monitor would apply.
  Ewma smoothed(0.35);
  while (app->sim().now() < kEnd) {
    const app::PeriodMetrics m = app->run_period(cfg.monitor_period_s);
    const double reward = m.reward(cfg.w);
    smoothed.add(reward);
    out.rewards.emplace_back(app->sim().now(), reward);

    if (app->scene().empty()) continue;  // policy arms at first placement
    const bool fire = use_event_policy
                          ? event_policy.should_activate(smoothed.value())
                          : periodic_policy.should_activate();
    if (!fire) continue;

    out.activations.push_back(app->sim().now());
    hbo.run_activation();
    // The post-activation reward becomes the new reference (Section IV-E).
    // One settle period flushes the last exploration config and the
    // decimation redraw; the reference is then an average of three clean
    // periods so it is not biased by a single noisy window.
    app->run_period(cfg.monitor_period_s);
    double reference = 0.0;
    for (int i = 0; i < 3; ++i) {
      const app::PeriodMetrics applied = app->run_period(cfg.monitor_period_s);
      reference += applied.reward(cfg.w) / 3.0;
      out.rewards.emplace_back(app->sim().now(), applied.reward(cfg.w));
    }
    event_policy.set_reference(reference);
    smoothed = Ewma(0.35);
    smoothed.add(reference);
  }
  return out;
}

void print_session(const char* name, const SessionResult& s) {
  benchutil::section(name);
  std::cout << "activations (" << s.activations.size() << "):";
  for (double t : s.activations) std::cout << "  t=" << TextTable::num(t, 0);
  std::cout << "\nreward timeline (every ~10th sample):\n";
  TextTable table(std::vector<std::string>{"t (s)", "reward B"});
  for (std::size_t i = 0; i < s.rewards.size(); i += 10) {
    table.add_row({TextTable::num(s.rewards[i].first, 0),
                   TextTable::num(s.rewards[i].second, 3)});
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  benchutil::banner("Fig. 8", "event-based vs periodic HBO activation");
  const SessionResult event_session = run_session(true);
  const SessionResult periodic_session = run_session(false);

  print_session("Fig. 8a: event-based activation policy", event_session);
  print_session("Fig. 8b: periodic activation policy", periodic_session);

  benchutil::section("Paper vs measured (shape check)");
  benchutil::recap_line("event-policy activations",
                        "4 (first object, 9th, 10th heavy, distance)",
                        std::to_string(event_session.activations.size()));
  benchutil::recap_line("periodic activations", "7",
                        std::to_string(periodic_session.activations.size()));
  std::cout << "  The event policy should activate strictly fewer times than\n"
               "  the periodic one while ending at a comparable reward.\n";
  return 0;
}
