#include "hbosim/policy/bandit_session.hpp"

#include "hbosim/common/error.hpp"
#include "hbosim/core/cost.hpp"
#include "hbosim/telemetry/telemetry.hpp"

namespace hbosim::policy {

BanditSession::BanditSession(app::MarApp& app,
                             std::shared_ptr<const LinUcbBandit> model,
                             BanditSessionConfig cfg)
    : app_(app),
      cfg_(cfg),
      controller_(app, cfg.hbo),
      model_(std::move(model)) {
  HB_REQUIRE(model_ != nullptr, "frozen-mode session needs a model");
  app_.start();
}

BanditSession::BanditSession(app::MarApp& app, BanditSessionConfig cfg,
                             BanditConfig bandit_cfg)
    : app_(app),
      cfg_(cfg),
      controller_(app, cfg.hbo),
      owned_(std::make_unique<LinUcbBandit>(make_arm_grid(cfg.hbo.r_min),
                                            bandit_cfg)) {
  app_.start();
}

void BanditSession::pull() {
  HB_TRACE_SCOPE("policy", "policy.bandit_pull");
  HB_TELEM_COUNT("policy.bandit_pulls", 1.0);
  const LinUcbBandit* selector = model();

  Experience exp;
  exp.at = app_.sim().now();
  exp.context = extract_context(app_);
  exp.arm = selector->select(exp.context);

  controller_.apply_configuration(selector->arms()[exp.arm]);
  const app::PeriodMetrics m = app_.run_period(cfg_.hbo.control_period_s);
  exp.cost =
      core::cost_of(m, core::CostTerms{cfg_.hbo.w, cfg_.hbo.w_energy});
  exp.reward = -exp.cost;
  stats_.add(m, cfg_.hbo.w, app_.sim().now());

  if (owned_ != nullptr) owned_->update(exp.arm, exp.context, exp.reward);
  experiences_.push_back(std::move(exp));
}

bool BanditSession::tick() {
  const SimTime period_start = app_.sim().now();
  if (app_.scene().empty()) {
    // Nothing to decide over yet: idle until the first object placement.
    const app::PeriodMetrics m = app_.run_period(cfg_.hbo.monitor_period_s);
    stats_.add(m, cfg_.hbo.w, app_.sim().now());
    return false;
  }
  pull();
  if (telemetry::enabled()) {
    telemetry::sim_span("policy", "policy.period", period_start,
                        app_.sim().now());
  }
  return true;
}

void BanditSession::run_until(SimTime until) {
  while (app_.sim().now() < until) tick();
}

}  // namespace hbosim::policy
