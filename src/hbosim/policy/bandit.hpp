#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "hbosim/app/mar_app.hpp"

/// \file bandit.hpp
/// The agent baseline the ROADMAP asks for: a LinUCB contextual bandit
/// (Li et al., WWW 2010) that maps the app's observable state straight to
/// a configuration (c, x) from a fixed arm grid — no surrogate model, no
/// per-activation exploration burst. Where HBO spends ~20 control periods
/// rebuilding a GP after every environment shift, the bandit amortizes
/// learning across its whole lifetime and adapts in O(1) periods, at the
/// price of a coarse action grid and a linear reward model. bench_policy
/// races the two on adaptation speed after scripted shifts.
///
/// Determinism: selection is a pure function of (model state, context) —
/// ties break on the lowest arm index, and updates are plain rank-one
/// linear algebra with no randomness. Fleets freeze a copy of the model
/// per epoch; sessions select against the frozen copy and the learner is
/// updated only on the fleet's main thread, in session-id order.

namespace hbosim::policy {

struct BanditConfig {
  /// UCB exploration width (alpha). 0 = pure exploitation.
  double alpha = 0.8;
  /// Ridge regularizer on each arm's design matrix (A = lambda*I + ...).
  static constexpr double ridge_lambda = 1.0;

  void validate() const;  ///< Throws hbosim::Error on nonsense.
};

/// The fixed action grid: simplex vertices, edge midpoints, and the
/// centroid for c (7 points for N=3), crossed with 4 triangle-ratio
/// levels evenly spaced in [r_min, 1] — 28 arms. Coarse by design: the
/// bandit trades HBO's resolution for adaptation speed.
std::vector<std::vector<double>> make_arm_grid(double r_min);

/// Observable context for arm selection: a pure read of the app (metrics
/// snapshot + scene/taskset/device shape), no simulation time advanced.
/// Layout (kContextDim entries): bias, quality, latency ratio, current
/// triangle ratio, objects/8, max triangles (millions), tasks/4, mean
/// expected isolation latency (x100ms), DVFS frequency scale, battery SoC.
inline constexpr std::size_t kContextDim = 10;
std::vector<double> extract_context(app::MarApp& app);

/// Disjoint-arms LinUCB. Per arm: A_inv (Sherman-Morrison-maintained
/// inverse of the ridge design matrix) and b; theta = A_inv * b;
/// score(x) = theta . x + alpha * sqrt(x' A_inv x).
class LinUcbBandit {
 public:
  LinUcbBandit(std::vector<std::vector<double>> arms, BanditConfig cfg = {});

  /// Highest-UCB arm for the context (lowest index on exact ties).
  std::size_t select(std::span<const double> context) const;

  /// Rank-one update of `arm` with the observed reward (use the negated
  /// cost: LinUCB maximizes).
  void update(std::size_t arm, std::span<const double> context,
              double reward);

  const std::vector<std::vector<double>>& arms() const { return arms_; }
  std::size_t arm_count() const { return arms_.size(); }
  std::uint64_t updates() const { return updates_; }
  /// Point estimate theta . x for one arm (for tests/diagnostics).
  double predicted_reward(std::size_t arm,
                          std::span<const double> context) const;

 private:
  double ucb_score(std::size_t arm, std::span<const double> context) const;

  BanditConfig cfg_;
  std::vector<std::vector<double>> arms_;
  std::size_t dim_ = kContextDim;
  /// Per-arm A^-1 (dim x dim, row-major) and b; theta cached per update.
  std::vector<std::vector<double>> a_inv_;
  std::vector<std::vector<double>> b_;
  std::vector<std::vector<double>> theta_;
  std::uint64_t updates_ = 0;
};

}  // namespace hbosim::policy
