#include "hbosim/policy/bandit.hpp"

#include <cmath>

#include "hbosim/common/error.hpp"
#include "hbosim/soc/resource.hpp"
#include "hbosim/telemetry/telemetry.hpp"

namespace hbosim::policy {

void BanditConfig::validate() const {
  HB_REQUIRE(alpha >= 0.0, "UCB alpha must be non-negative");
}

std::vector<std::vector<double>> make_arm_grid(double r_min) {
  HB_REQUIRE(r_min > 0.0 && r_min <= 1.0, "r_min must lie in (0, 1]");
  constexpr std::size_t n = soc::kNumDelegates;

  std::vector<std::vector<double>> cs;
  // Vertices: everything on one delegate.
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> c(n, 0.0);
    c[i] = 1.0;
    cs.push_back(std::move(c));
  }
  // Edge midpoints: an even split across each pair.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      std::vector<double> c(n, 0.0);
      c[i] = 0.5;
      c[j] = 0.5;
      cs.push_back(std::move(c));
    }
  // Centroid: even split across all delegates.
  cs.emplace_back(n, 1.0 / static_cast<double>(n));

  std::vector<double> levels;
  constexpr int k = 4;
  for (int i = 0; i < k; ++i) {
    // Endpoint-exact interpolation: r_min + (1-r_min)*t can exceed 1 by
    // an ulp at t = 1, which the triangle distributor rejects.
    const double t = static_cast<double>(i) / (k - 1);
    levels.push_back((1.0 - t) * r_min + t * 1.0);
  }

  std::vector<std::vector<double>> arms;
  arms.reserve(cs.size() * levels.size());
  for (const std::vector<double>& c : cs)
    for (double x : levels) {
      std::vector<double> z = c;
      z.push_back(x);
      arms.push_back(std::move(z));
    }
  return arms;
}

std::vector<double> extract_context(app::MarApp& app) {
  const app::PeriodMetrics m = app.snapshot();

  std::size_t objects = 0;
  double max_tris = 0.0;
  for (ObjectId id : app.scene().object_ids()) {
    ++objects;
    max_tris += static_cast<double>(
        app.scene().object(id).asset().max_triangles());
  }

  double expected_sum = 0.0;
  std::size_t tasks = 0;
  for (TaskId id : app.tasks()) {
    expected_sum += app.expected_ms(id);
    ++tasks;
  }
  const double expected_mean_ms =
      tasks > 0 ? expected_sum / static_cast<double>(tasks) : 0.0;

  // Rough O(1) normalizations so every feature lands near [0, 1] and the
  // shared ridge regularizer treats them evenly.
  return {1.0,  // bias
          m.average_quality,
          m.latency_ratio,
          m.triangle_ratio,
          static_cast<double>(objects) / 8.0,
          max_tris / 1e6,
          static_cast<double>(tasks) / 4.0,
          expected_mean_ms / 100.0,
          m.freq_scale,
          m.battery_soc};
}

LinUcbBandit::LinUcbBandit(std::vector<std::vector<double>> arms,
                           BanditConfig cfg)
    : cfg_(cfg), arms_(std::move(arms)) {
  cfg_.validate();
  HB_REQUIRE(!arms_.empty(), "bandit needs at least one arm");
  const std::size_t d = dim_;
  a_inv_.assign(arms_.size(), std::vector<double>(d * d, 0.0));
  b_.assign(arms_.size(), std::vector<double>(d, 0.0));
  theta_.assign(arms_.size(), std::vector<double>(d, 0.0));
  for (std::vector<double>& a : a_inv_)
    for (std::size_t i = 0; i < d; ++i)
      a[i * d + i] = 1.0 / cfg_.ridge_lambda;  // (lambda I)^-1
}

double LinUcbBandit::ucb_score(std::size_t arm,
                               std::span<const double> context) const {
  const std::size_t d = dim_;
  const std::vector<double>& a_inv = a_inv_[arm];
  const std::vector<double>& theta = theta_[arm];
  double mean = 0.0;
  double quad = 0.0;
  for (std::size_t i = 0; i < d; ++i) {
    mean += theta[i] * context[i];
    double row = 0.0;
    for (std::size_t j = 0; j < d; ++j) row += a_inv[i * d + j] * context[j];
    quad += context[i] * row;
  }
  return mean + cfg_.alpha * std::sqrt(std::max(quad, 0.0));
}

std::size_t LinUcbBandit::select(std::span<const double> context) const {
  HB_REQUIRE(context.size() == dim_, "context dimension mismatch");
  std::size_t best = 0;
  double best_score = ucb_score(0, context);
  // Strictly-greater comparison: exact ties keep the lowest arm index, so
  // selection is a deterministic function of (model, context).
  for (std::size_t a = 1; a < arms_.size(); ++a) {
    const double s = ucb_score(a, context);
    if (s > best_score) {
      best_score = s;
      best = a;
    }
  }
  return best;
}

double LinUcbBandit::predicted_reward(std::size_t arm,
                                      std::span<const double> context) const {
  HB_REQUIRE(arm < arms_.size(), "arm out of range");
  HB_REQUIRE(context.size() == dim_, "context dimension mismatch");
  double mean = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) mean += theta_[arm][i] * context[i];
  return mean;
}

void LinUcbBandit::update(std::size_t arm, std::span<const double> context,
                          double reward) {
  HB_REQUIRE(arm < arms_.size(), "arm out of range");
  HB_REQUIRE(context.size() == dim_, "context dimension mismatch");
  const std::size_t d = dim_;
  std::vector<double>& a_inv = a_inv_[arm];
  std::vector<double>& b = b_[arm];

  // Sherman-Morrison: (A + x x')^-1 = A^-1 - (A^-1 x)(A^-1 x)' / (1 + x' A^-1 x).
  std::vector<double> u(d, 0.0);  // A^-1 x (A^-1 symmetric)
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t j = 0; j < d; ++j) u[i] += a_inv[i * d + j] * context[j];
  double denom = 1.0;
  for (std::size_t i = 0; i < d; ++i) denom += context[i] * u[i];
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t j = 0; j < d; ++j)
      a_inv[i * d + j] -= u[i] * u[j] / denom;

  for (std::size_t i = 0; i < d; ++i) b[i] += reward * context[i];

  std::vector<double>& theta = theta_[arm];
  for (std::size_t i = 0; i < d; ++i) {
    theta[i] = 0.0;
    for (std::size_t j = 0; j < d; ++j) theta[i] += a_inv[i * d + j] * b[j];
  }
  ++updates_;
  HB_TELEM_COUNT("policy.bandit_updates", 1.0);
}

}  // namespace hbosim::policy
