#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "hbosim/app/mar_app.hpp"
#include "hbosim/core/controller.hpp"
#include "hbosim/policy/bandit.hpp"

/// \file bandit_session.hpp
/// The bandit-driven counterpart of core::MonitoredSession. Where HBO
/// amortizes a ~10-control-period Bayesian burst behind an event-based
/// activation policy, a LinUCB pull costs a single control period, so the
/// agent runs the canonical bandit loop instead: every tick it extracts
/// the context, selects an arm against the model, applies it through
/// HboController::apply_configuration, and measures one control period —
/// the measured reward is the round's feedback. Exploration/exploitation
/// is entirely the UCB's job; there is no activation gate to get stuck
/// behind when a bad arm yields a stable-but-poor reward.
///
/// Two wiring modes, mirroring how the fleet handles priors:
///   - Online (own-learner constructor): every pull immediately updates
///     the session's own learner. Single-session benches use this.
///   - Frozen (model constructor): pulls select against an immutable
///     model and are recorded as Experience; a fleet drains
///     experiences() on its main thread in session-id order and trains
///     the shared learner there, keeping N-thread runs bit-identical to
///     1-thread runs.

namespace hbosim::policy {

struct BanditSessionConfig {
  /// Reuses w / w_energy / period lengths / r_min; the BO-specific knobs
  /// (n_initial, n_iterations, ...) are ignored — there is no BO here.
  core::HboConfig hbo;
};

/// One arm pull: what the session saw, chose, and observed.
struct Experience {
  SimTime at = 0.0;
  std::vector<double> context;
  std::size_t arm = 0;
  double cost = 0.0;    ///< phi = -(Q - w*eps) [+ energy term].
  double reward = 0.0;  ///< -cost, what LinUCB maximizes.
};

class BanditSession {
 public:
  /// Select against `model` (frozen mode). The model must outlive the
  /// session; pulls are recorded but nothing is trained here.
  BanditSession(app::MarApp& app, std::shared_ptr<const LinUcbBandit> model,
                BanditSessionConfig cfg = {});

  /// Own-learner convenience (online mode): builds a LinUcbBandit over
  /// make_arm_grid(cfg.hbo.r_min) and trains it on every pull.
  BanditSession(app::MarApp& app, BanditSessionConfig cfg = {},
                BanditConfig bandit_cfg = {});

  /// One decision round: pull an arm and measure one control period.
  /// Before the first object placement there is nothing to decide over;
  /// the session idles one monitor period and returns false.
  bool tick();
  void run_until(SimTime until);

  /// Pulls recorded so far; drain() hands them off (fleet epoch feed).
  const std::vector<Experience>& experiences() const { return experiences_; }
  std::vector<Experience> drain_experiences() {
    return std::exchange(experiences_, {});
  }

  const LinUcbBandit* model() const {
    return model_ ? model_.get() : owned_.get();
  }
  const BanditSessionConfig& config() const { return cfg_; }

  /// Every period observed so far, folded like MonitoredSession's.
  const app::SessionStats& stats() const { return stats_; }

 private:
  void pull();

  app::MarApp& app_;
  BanditSessionConfig cfg_;
  core::HboController controller_;  ///< Only for apply_configuration.
  std::shared_ptr<const LinUcbBandit> model_;  ///< Frozen selection model.
  std::unique_ptr<LinUcbBandit> owned_;        ///< Online-mode learner.
  app::SessionStats stats_;
  std::vector<Experience> experiences_;
};

}  // namespace hbosim::policy
