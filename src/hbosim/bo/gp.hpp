#pragma once

#include <memory>
#include <span>
#include <vector>

#include "hbosim/bo/kernel.hpp"
#include "hbosim/common/matrix.hpp"

/// \file gp.hpp
/// Gaussian-process regression surrogate (the paper's Eq. 6): given the BO
/// database D_t = {(z_tau, phi_tau)}, the posterior over the black-box cost
/// at any configuration z is Gaussian with mean mu_t(z) and variance
/// sigma_t^2(z), computed here by Cholesky factorization of the kernel
/// Gram matrix. Observations are centered on their mean internally.
///
/// The BO runtime loop observes one cost per control period, so besides
/// the from-scratch fit() the class supports the incremental protocol the
/// optimizer uses:
///   - append_point(): grow the Gram factor by one observation via a
///     rank-1 bordered Cholesky update — O(n^2) instead of O(n^3), and
///     bitwise identical to refitting from scratch;
///   - set_targets(): re-center and re-solve for new y values against the
///     existing factor (the factor depends only on X, so per-suggest cost
///     re-standardization never forces a refactorization);
///   - predict_many(): the batched posterior, allocation-free at steady
///     state.

namespace hbosim::bo {

struct GpConfig {
  /// Observation noise variance added to the Gram diagonal. The cost the
  /// MAR app measures over a control period is genuinely noisy, so this
  /// stays well above jitter level.
  double noise_variance = 1e-4;
  /// Numerical jitter added on top of the noise for factorization safety.
  double jitter = 1e-10;
};

class GaussianProcess {
 public:
  GaussianProcess(std::unique_ptr<Kernel> kernel, GpConfig cfg = {});

  /// Fit to observations. X: n points of equal dimension; y: n values;
  /// dist: their pairwise distances (dist(i, j) = ||x_i - x_j||, at least
  /// n x n). The Gram matrix is derived through Kernel::from_distance, so
  /// several GPs differing only in kernel hyperparameters can share one
  /// distance matrix and each fit costs O(n^2) kernel evaluations with
  /// zero distance recomputation. Replaces any previous fit. Throws on
  /// shape mismatches or n == 0.
  void fit(const std::vector<std::vector<double>>& x,
           const std::vector<double>& y, const Matrix& dist);

  /// Append one observation to the fitted set WITHOUT updating the
  /// targets: grows the Cholesky factor in place (O(n^2) bordered
  /// update). dist_row[i] must equal ||z - x_i|| for the n current
  /// points. predict_many()/log_marginal_likelihood() are invalid until
  /// the next set_targets(). Requires fitted().
  void append_point(std::span<const double> z,
                    std::span<const double> dist_row);

  /// Replace the target values against the current point set: re-centers
  /// y and re-solves alpha = K^-1 (y - mean) from the existing factor in
  /// O(n^2). y.size() must equal observation_count(). This is why cost
  /// re-standardization in the optimizer never triggers a refit: the
  /// factor depends only on X.
  void set_targets(std::span<const double> y);

  bool fitted() const { return n_ > 0; }
  std::size_t observation_count() const { return n_; }

  struct Prediction {
    double mean = 0.0;
    double variance = 0.0;  ///< Latent-function variance (>= 0).
  };

  /// Reusable workspace for predict_many (sized internally in blocks, so
  /// steady-state calls never allocate).
  struct BatchScratch {
    std::vector<double> ct;   ///< transposed candidate block, dim x B
    std::vector<double> v;    ///< kernel rows / solve buffer, n x B
    std::vector<double> mu;   ///< per-candidate mean accumulator
    std::vector<double> var;  ///< per-candidate variance accumulator
  };

  /// Posterior (Eq. 6) for `count` query points packed row-major in
  /// zs_flat (count x dim). Fills out[0..count). Evaluates the kernel
  /// through the vectorized from_distance_many path and solves all
  /// right-hand sides in blocks; results agree with a scalar from-scratch
  /// posterior to a few ulp (the batched exp differs from libm by <= 2
  /// ulp). Allocation-free at steady state. Requires fitted().
  void predict_many(std::span<const double> zs_flat, std::size_t count,
                    std::span<Prediction> out, BatchScratch& scratch) const;

  /// Log marginal likelihood of the fitted data (the optimizer's
  /// length-scale selection criterion):
  /// -1/2 y^T K^-1 y - 1/2 log|K| - n/2 log(2 pi).
  double log_marginal_likelihood() const;

 private:
  std::unique_ptr<Kernel> kernel_;
  GpConfig cfg_;
  std::size_t n_ = 0;          // observation count
  std::size_t dim_ = 0;        // input dimension
  std::vector<double> xflat_;  // row-major n x dim inputs
  std::vector<double> y_centered_;
  double y_mean_ = 0.0;
  std::unique_ptr<Cholesky> chol_;
  std::vector<double> alpha_;  // K^-1 (y - mean)
  std::vector<double> krow_scratch_;  // append_point kernel-row buffer
};

}  // namespace hbosim::bo
