#include "hbosim/bo/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "hbosim/common/error.hpp"
#include "hbosim/common/mathx.hpp"
#include "hbosim/telemetry/telemetry.hpp"

namespace hbosim::bo {

BayesianOptimizer::BayesianOptimizer(SimplexBoxSpace space, BoConfig cfg)
    : space_(std::move(space)), cfg_(std::move(cfg)) {
  HB_REQUIRE(cfg_.n_initial >= 1, "need at least one initial sample");
}

const char* kernel_kind_name(KernelKind k) {
  switch (k) {
    case KernelKind::Matern52: return "Matern52";
    case KernelKind::Matern32: return "Matern32";
    case KernelKind::Rbf: return "RBF";
  }
  return "?";
}

std::unique_ptr<Kernel> BayesianOptimizer::make_kernel(
    double length_scale) const {
  switch (cfg_.kernel) {
    case KernelKind::Matern32:
      return std::make_unique<Matern32>(length_scale, kSigmaF);
    case KernelKind::Rbf:
      return std::make_unique<Rbf>(length_scale, kSigmaF);
    case KernelKind::Matern52:
      break;
  }
  return std::make_unique<Matern52>(length_scale, kSigmaF);
}

std::vector<double> BayesianOptimizer::suggest(Rng& rng) {
  HB_TRACE_SCOPE("bo", "bo.suggest");
  HB_TELEM_COUNT("bo.suggests", 1.0);
  if (in_initialization()) {
    if (cfg_.prior) {
      if (!prior_seeds_ready_) {
        prior_seeds_ready_ = true;
        for (const std::vector<double>& s : cfg_.prior->seed_points(
                 static_cast<std::size_t>(cfg_.n_initial))) {
          if (s.size() == space_.dim()) prior_seeds_.push_back(space_.clip(s));
          if (prior_seeds_.size() >=
              static_cast<std::size_t>(cfg_.n_initial)) {
            break;
          }
        }
      }
      // Seeds stand in for the first initialization draws; any remaining
      // draws stay random so initialization keeps some exploration.
      if (data_.size() < prior_seeds_.size()) {
        HB_TELEM_COUNT("bo.prior_seed_suggests", 1.0);
        return prior_seeds_[data_.size()];
      }
    }
    return space_.sample(rng);
  }

  // Standardize the observed costs so the surrogate's fixed prior variance
  // stays commensurate with the data. The GP models the residual cost -
  // m0(z): subtracting the cached prior means leaves the surrogate only
  // what past traffic did not predict (without a prior m0 = 0).
  std::vector<double> y;
  y.reserve(data_.size());
  for (std::size_t i = 0; i < data_.size(); ++i)
    y.push_back(data_[i].cost - prior_mean_obs_[i]);
  const double sd = stdev(y);
  const double scale = sd > 1e-12 ? sd : 1.0;
  const double m = mean(y);
  for (auto& v : y) v = (v - m) / scale;

  const GaussianProcess& gp = fit_surrogate(y);

  // The GP's posterior is over standardized *residuals*; add each point's
  // prior mean back, divided by the standardization scale, so acquisition
  // compares total predicted costs, observed incumbent included. Constant
  // offsets cancel inside EI, so only the z-dependent part matters.
  double best_y = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < y.size(); ++i)
    best_y = std::min(best_y, y[i] + prior_mean_obs_[i] / scale);
  const std::vector<double>& incumbent = best().z;

  // The candidate set, packed flat for the batched predict: uniform
  // samples first, then perturbations of the incumbent alternating the
  // fine and coarse scales.
  const std::size_t dim = space_.dim();
  const std::size_t total = static_cast<std::size_t>(kRandomCandidates) +
                            static_cast<std::size_t>(kLocalCandidates);
  cand_flat_.resize(total * dim);
  {
    HB_TRACE_SCOPE("bo", "bo.candidates");
    std::size_t w = 0;
    for (int i = 0; i < kRandomCandidates; ++i)
      space_.sample_into({cand_flat_.data() + (w++) * dim, dim}, rng);
    for (int i = 0; i < kLocalCandidates; ++i) {
      const double step = (i % 2 == 0) ? kLocalScale : kLocalScaleCoarse;
      space_.perturb_into(incumbent, step, rng,
                          {cand_flat_.data() + (w++) * dim, dim},
                          clip_scratch_);
    }
  }

  // The prior mean of every candidate in one batched call. Without a
  // prior the buffer keeps the zeros resize() gave it.
  prior_mean_cand_.resize(total);
  if (cfg_.prior) {
    HB_TRACE_SCOPE("bo", "bo.prior_mean");
    cfg_.prior->mean_many(cand_flat_, total, prior_mean_cand_);
  }

  std::size_t best_idx = 0;
  {
    HB_TRACE_SCOPE("bo", "bo.score");
    preds_.resize(total);
    gp.predict_many(cand_flat_, total, preds_, batch_scratch_);

    // Argmax with ties going to the first candidate in generation order.
    double best_score = -std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < total; ++c) {
      const double mu = preds_[c].mean + prior_mean_cand_[c] / scale;
      const double score =
          acquisition_score(cfg_.acquisition, mu, std::sqrt(preds_[c].variance),
                            best_y, kAcquisitionParams);
      if (score > best_score) {
        best_score = score;
        best_idx = c;
      }
    }
  }
  const double* zb = cand_flat_.data() + best_idx * dim;
  return std::vector<double>(zb, zb + dim);
}

const GaussianProcess& BayesianOptimizer::fit_surrogate(
    const std::vector<double>& y) {
  HB_TRACE_SCOPE("bo", "bo.fit");
  if (grid_gps_.empty()) {
    std::vector<double> grid(kLengthScaleGrid.begin(), kLengthScaleGrid.end());
    if (cfg_.prior) {
      // The prior's data-driven hint competes in the marginal-likelihood
      // refit like any other grid entry; appending (rather than replacing)
      // keeps the refit free to reject a bad estimate.
      const double factor = cfg_.prior->length_scale_factor();
      if (factor > 0.0 &&
          std::find(grid.begin(), grid.end(), factor) == grid.end()) {
        grid.push_back(factor);
      }
    }
    std::vector<std::vector<double>> x;
    x.reserve(data_.size());
    for (const auto& obs : data_) x.push_back(obs.z);
    grid_gps_.reserve(grid.size());
    for (double factor : grid) {
      grid_gps_.emplace_back(make_kernel(kLengthScale * factor), kGpConfig);
      grid_gps_.back().fit(x, y, dist_);
    }
  } else {
    // Steady state: tell() grew every factor, and only the standardized
    // targets changed since the last suggest. O(G n^2).
    for (auto& gp : grid_gps_) gp.set_targets(y);
  }

  // Length-scale selection: the highest marginal likelihood wins, the
  // first in grid order on ties.
  const GaussianProcess* best = nullptr;
  double best_lml = -std::numeric_limits<double>::infinity();
  for (const auto& gp : grid_gps_) {
    const double lml = gp.log_marginal_likelihood();
    if (lml > best_lml) {
      best_lml = lml;
      best = &gp;
    }
  }
  HB_ASSERT(best != nullptr, "no grid surrogate available");
  return *best;
}

void BayesianOptimizer::tell(std::vector<double> z, double cost) {
  HB_TRACE_SCOPE("bo", "bo.tell");
  HB_TELEM_COUNT("bo.tells", 1.0);
  HB_REQUIRE(space_.contains(z, 1e-6),
             "tell(): configuration violates Constraints 8-10");
  HB_REQUIRE(std::isfinite(cost), "tell(): cost must be finite");
  prior_mean_obs_.push_back(cfg_.prior ? cfg_.prior->mean(z) : 0.0);

  // Extend the cached distance matrix by the new point's row/column.
  // Every kernel is stationary, so this one matrix serves the Gram of
  // every length-scale candidate for the lifetime of the run.
  const std::size_t n = data_.size();
  dist_.conservative_resize(n + 1, n + 1);
  std::span<double> dn = dist_.row(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double d = euclidean_distance(z, data_[i].z);
    dn[i] = d;
    dist_(i, n) = d;
  }
  dn[n] = 0.0;

  // Grow each live surrogate's Cholesky factor in place (O(n^2) per grid
  // entry). Targets are stale until the next suggest() calls set_targets()
  // with freshly standardized costs.
  for (auto& gp : grid_gps_) gp.append_point(z, dn.first(n));

  // Incumbent maintenance (best() is O(1)): strict `<` keeps the earliest
  // minimum, matching what a front-to-back rescan would select.
  if (data_.empty() || cost < data_[best_idx_].cost) best_idx_ = n;
  data_.push_back(Observation{std::move(z), cost});
}

const Observation& BayesianOptimizer::best() const {
  HB_REQUIRE(!data_.empty(), "best() with no observations");
  return data_[best_idx_];
}

}  // namespace hbosim::bo
