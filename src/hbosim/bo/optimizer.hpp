#pragma once

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "hbosim/bo/acquisition.hpp"
#include "hbosim/bo/gp.hpp"
#include "hbosim/bo/prior.hpp"
#include "hbosim/bo/space.hpp"

/// \file optimizer.hpp
/// The sequential Bayesian optimizer (the paper's BO(D) in Algorithm 1,
/// line 1): maintains the database D of (z, phi) observations, fits the GP
/// surrogate, and proposes the next configuration by maximizing the
/// acquisition function over a candidate set (random simplex samples plus
/// local perturbations of the incumbent — the standard derivative-free
/// approach on a constrained domain, which is also how skopt's categorical/
/// constrained spaces are handled).
///
/// The surrogate is maintained incrementally: the optimizer caches the
/// pairwise distance matrix of its observations (every kernel is
/// stationary, so each length-scale candidate's Gram matrix derives from
/// the same distances), keeps one GP per length-scale grid entry alive
/// across calls, grows each GP's Cholesky factor by a rank-1 bordered
/// update per tell(), and scores acquisition candidates through the
/// batched allocation-free predict_many() path. tell() is O(G n^2) and a
/// suggest() re-solves only the restandardized targets, O(G n^2), before
/// scoring. tests/bo_reference.hpp holds a from-scratch reference of the
/// same procedure that the optimizer tests compare against.

namespace hbosim::bo {

struct Observation {
  std::vector<double> z;
  double cost = 0.0;
};

/// Kernel families available to the optimizer (the paper uses Matern-5/2;
/// the others exist for the smoothness ablation).
enum class KernelKind { Matern52, Matern32, Rbf };

const char* kernel_kind_name(KernelKind k);

/// Acquisition candidates scored per suggest(): uniform samples over the
/// space...
inline constexpr int kRandomCandidates = 384;
/// ...plus Gaussian perturbations of the incumbent, alternating a fine
/// refinement scale and a coarser escape scale (stddev relative to each
/// coordinate's range).
inline constexpr int kLocalCandidates = 192;
inline constexpr double kLocalScale = 0.06;
inline constexpr double kLocalScaleCoarse = 0.18;

/// EI/PI improvement margin and LCB exploration weight.
inline constexpr AcquisitionParams kAcquisitionParams{};

/// Kernel scale (paper: l = 1, Eq. 7). Like skopt's gp_minimize, the
/// length scale is refit at every suggest() by maximizing the log
/// marginal likelihood over kLengthScale times each grid factor; a fixed
/// scale (grid = {1.0}) oversmooths the simplex (diameter ~1.4) and
/// starves exploration of unvisited corners. A prior's length-scale hint
/// joins the grid as one more factor.
inline constexpr double kLengthScale = 1.0;
inline constexpr std::array<double, 3> kLengthScaleGrid = {0.3, 0.6, 1.0};
/// Kernel signal stddev. Costs are standardized (zero mean, unit
/// variance) before fitting, which keeps this fixed value meaningful
/// across scenarios.
inline constexpr double kSigmaF = 1.0;
/// Observation noise and jitter of the surrogate GPs.
inline constexpr GpConfig kGpConfig{};

struct BoConfig {
  /// Random configurations before the surrogate takes over (paper: 5).
  int n_initial = 5;

  /// Acquisition function (paper: EI; PI and LCB for the ablation).
  AcquisitionKind acquisition = AcquisitionKind::ExpectedImprovement;

  /// Kernel family (paper: Matern-5/2; the others for the smoothness
  /// ablation).
  KernelKind kernel = KernelKind::Matern52;

  /// Learned warm-start prior (see bo/prior.hpp). When set, the GP models
  /// the residual cost - prior->mean(z), acquisition scores add the prior
  /// mean back per candidate, the prior's seed configurations replace the
  /// first initialization draws, and its length-scale hint joins the
  /// refit grid. Null (the default) is a zero mean: the same formulas run,
  /// and subtracting 0.0, adding 0.0 and dividing 0.0 by the scale are
  /// exact, so the optimizer behaves as if it had no prior term at all.
  std::shared_ptr<const SurrogatePrior> prior;
};

class BayesianOptimizer {
 public:
  BayesianOptimizer(SimplexBoxSpace space, BoConfig cfg = {});

  const SimplexBoxSpace& space() const { return space_; }
  const BoConfig& config() const { return cfg_; }

  /// Next configuration to evaluate: a random feasible point during the
  /// initialization phase, else the acquisition maximizer.
  std::vector<double> suggest(Rng& rng);

  /// Record the observed cost of a configuration. Also extends the cached
  /// distance matrix (O(n d)) and grows each live surrogate's Cholesky
  /// factor in place (O(n^2) bordered update), so the next suggest() only
  /// has to re-solve for the restandardized targets instead of
  /// refactorizing.
  void tell(std::vector<double> z, double cost);

  std::size_t observation_count() const { return data_.size(); }
  const std::vector<Observation>& observations() const { return data_; }
  bool in_initialization() const {
    return data_.size() < static_cast<std::size_t>(cfg_.n_initial);
  }

  /// Lowest-cost observation so far; requires at least one tell(). O(1):
  /// the incumbent index is maintained by tell().
  const Observation& best() const;

 private:
  std::unique_ptr<Kernel> make_kernel(double length_scale) const;
  /// The surrogate GP with the highest log marginal likelihood for the
  /// standardized targets y, building the per-grid-entry GPs from the
  /// distance cache on the first call and re-solving their targets after.
  const GaussianProcess& fit_surrogate(const std::vector<double>& y);

  SimplexBoxSpace space_;
  BoConfig cfg_;
  std::vector<Observation> data_;

  // --- learned-prior state (zero means without cfg_.prior) ---
  std::vector<double> prior_mean_obs_;  ///< prior->mean(z_i) per observation
  std::vector<std::vector<double>> prior_seeds_;  ///< clipped seed points
  bool prior_seeds_ready_ = false;

  // --- surrogate state ---
  std::size_t best_idx_ = 0;  ///< incumbent index into data_
  Matrix dist_;  ///< pairwise observation distances, grown per tell
  /// One live surrogate per length-scale grid entry, in grid order; empty
  /// until the first model-based suggest(), grown by every tell() after.
  std::vector<GaussianProcess> grid_gps_;
  // Reused per-suggest buffers (steady state: zero allocations in the
  // candidate-generation and scoring loops).
  std::vector<double> cand_flat_;
  std::vector<double> prior_mean_cand_;  ///< prior mean per candidate
  std::vector<GaussianProcess::Prediction> preds_;
  GaussianProcess::BatchScratch batch_scratch_;
  std::vector<double> clip_scratch_;
};

}  // namespace hbosim::bo
