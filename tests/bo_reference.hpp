#pragma once

// From-scratch reference for the Bayesian optimizer: a GP posterior that
// builds its Gram matrix pair by pair and solves with Cholesky's vector
// solves, and a stateless suggest() that refits every length-scale
// candidate from the observation history and scores the candidates one
// at a time. It shares no state and no batched arithmetic with
// bo::GaussianProcess or bo::BayesianOptimizer (the distance cache, the
// grown factors, predict_many), so a test can drive the optimizer and the
// reference on the same generator seed and compare their suggestions.
// The candidate counts, scales, grid and kernel constants are read from
// optimizer.hpp, so the two cannot drift apart.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numbers>
#include <span>
#include <vector>

#include "hbosim/bo/optimizer.hpp"
#include "hbosim/common/mathx.hpp"
#include "hbosim/common/matrix.hpp"
#include "hbosim/common/rng.hpp"

namespace hbosim::bo::reference {

/// Pairwise Euclidean distances of the rows of x.
inline Matrix pairwise_distances(const std::vector<std::vector<double>>& x) {
  Matrix d(x.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    for (std::size_t j = 0; j < x.size(); ++j)
      d(i, j) = euclidean_distance(x[i], x[j]);
  return d;
}

/// GP posterior fitted from scratch: K(i, j) = k(||x_i - x_j||) plus the
/// noise on the diagonal, targets centered on their mean.
class Gp {
 public:
  Gp(const Kernel& kernel, GpConfig cfg, std::vector<std::vector<double>> x,
     const std::vector<double>& y)
      : kernel_(kernel), x_(std::move(x)) {
    const std::size_t n = x_.size();
    Matrix gram(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        gram(i, j) = kernel_.from_distance(euclidean_distance(x_[i], x_[j]));
    for (std::size_t i = 0; i < n; ++i) gram(i, i) += cfg.noise_variance;
    chol_ = std::make_unique<Cholesky>(gram, cfg.jitter);
    y_mean_ = mean(y);
    for (double v : y) y_centered_.push_back(v - y_mean_);
    alpha_ = chol_->solve(y_centered_);
  }

  /// Eq. 6: mean = m + k*^T alpha, variance = k(0) - ||L^-1 k*||^2.
  GaussianProcess::Prediction predict(std::span<const double> z) const {
    std::vector<double> k_star(x_.size());
    for (std::size_t i = 0; i < x_.size(); ++i)
      k_star[i] = kernel_.from_distance(euclidean_distance(z, x_[i]));
    GaussianProcess::Prediction out;
    out.mean = y_mean_;
    for (std::size_t i = 0; i < k_star.size(); ++i)
      out.mean += k_star[i] * alpha_[i];
    double reduction = 0.0;
    for (double v : chol_->solve_lower(k_star)) reduction += v * v;
    out.variance = std::max(kernel_.from_distance(0.0) - reduction, 0.0);
    return out;
  }

  double log_marginal_likelihood() const {
    double data_fit = 0.0;
    for (std::size_t i = 0; i < alpha_.size(); ++i)
      data_fit += y_centered_[i] * alpha_[i];
    return -0.5 * data_fit - 0.5 * chol_->log_det() -
           0.5 * static_cast<double>(x_.size()) *
               std::log(2.0 * std::numbers::pi);
  }

 private:
  const Kernel& kernel_;
  std::vector<std::vector<double>> x_;
  std::unique_ptr<Cholesky> chol_;
  double y_mean_ = 0.0;
  std::vector<double> y_centered_;
  std::vector<double> alpha_;
};

inline std::unique_ptr<Kernel> make_kernel(KernelKind kind,
                                           double length_scale) {
  switch (kind) {
    case KernelKind::Matern32:
      return std::make_unique<Matern32>(length_scale, kSigmaF);
    case KernelKind::Rbf:
      return std::make_unique<Rbf>(length_scale, kSigmaF);
    case KernelKind::Matern52:
      break;
  }
  return std::make_unique<Matern52>(length_scale, kSigmaF);
}

/// Gaussian step around z, re-projected onto the space: the simplex
/// coordinates draw N(0, scale) each, then the box coordinate draws
/// N(0, scale * box range).
inline std::vector<double> perturb(const SimplexBoxSpace& space,
                                   std::span<const double> z, double scale,
                                   Rng& rng) {
  std::vector<double> out(z.begin(), z.end());
  for (std::size_t i = 0; i < space.simplex_dim(); ++i)
    out[i] += rng.normal(0.0, scale);
  out[space.simplex_dim()] +=
      rng.normal(0.0, scale * (space.box_hi() - space.box_lo()));
  return space.clip(out);
}

/// What BayesianOptimizer(space, cfg).suggest(rng) returns after the
/// optimizer was told exactly `data`, computed from scratch: random (or
/// prior-seeded) points during initialization, then the acquisition
/// argmax over kRandomCandidates uniform samples and kLocalCandidates
/// perturbations of the incumbent, under the GP whose length scale has
/// the highest marginal likelihood on the standardized (residual) costs.
inline std::vector<double> suggest(const SimplexBoxSpace& space,
                                   const BoConfig& cfg,
                                   const std::vector<Observation>& data,
                                   Rng& rng) {
  const std::size_t n = data.size();
  if (n < static_cast<std::size_t>(cfg.n_initial)) {
    if (cfg.prior) {
      std::vector<std::vector<double>> seeds;
      for (const auto& s :
           cfg.prior->seed_points(static_cast<std::size_t>(cfg.n_initial))) {
        if (s.size() == space.dim()) seeds.push_back(space.clip(s));
        if (seeds.size() >= static_cast<std::size_t>(cfg.n_initial)) break;
      }
      if (n < seeds.size()) return seeds[n];
    }
    return space.sample(rng);
  }

  // Standardized residual costs; prior means in the same units.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  std::vector<double> prior_at_obs(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    x.push_back(data[i].z);
    if (cfg.prior) prior_at_obs[i] = cfg.prior->mean(data[i].z);
    y.push_back(data[i].cost - prior_at_obs[i]);
  }
  const double sd = stdev(y);
  const double scale = sd > 1e-12 ? sd : 1.0;
  const double m = mean(y);
  for (double& v : y) v = (v - m) / scale;

  std::vector<double> grid(kLengthScaleGrid.begin(), kLengthScaleGrid.end());
  if (cfg.prior) {
    const double f = cfg.prior->length_scale_factor();
    if (f > 0.0 && std::find(grid.begin(), grid.end(), f) == grid.end())
      grid.push_back(f);
  }
  std::vector<std::unique_ptr<Kernel>> kernels;
  std::unique_ptr<Gp> gp;
  double best_lml = -std::numeric_limits<double>::infinity();
  for (double factor : grid) {
    kernels.push_back(make_kernel(cfg.kernel, kLengthScale * factor));
    auto candidate = std::make_unique<Gp>(*kernels.back(), kGpConfig, x, y);
    const double lml = candidate->log_marginal_likelihood();
    if (lml > best_lml) {
      best_lml = lml;
      gp = std::move(candidate);
    }
  }

  double best_y = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i)
    best_y = std::min(best_y, y[i] + prior_at_obs[i] / scale);
  std::size_t incumbent = 0;
  for (std::size_t i = 1; i < n; ++i)
    if (data[i].cost < data[incumbent].cost) incumbent = i;

  std::vector<double> best_z;
  double best_score = -std::numeric_limits<double>::infinity();
  auto consider = [&](std::vector<double> z) {
    const GaussianProcess::Prediction p = gp->predict(z);
    const double mu = p.mean + (cfg.prior ? cfg.prior->mean(z) / scale : 0.0);
    const double score =
        acquisition_score(cfg.acquisition, mu, std::sqrt(p.variance), best_y);
    if (score > best_score) {
      best_score = score;
      best_z = std::move(z);
    }
  };
  for (int i = 0; i < kRandomCandidates; ++i) consider(space.sample(rng));
  for (int i = 0; i < kLocalCandidates; ++i)
    consider(perturb(space, data[incumbent].z,
                     i % 2 == 0 ? kLocalScale : kLocalScaleCoarse, rng));
  return best_z;
}

}  // namespace hbosim::bo::reference
