#include "hbosim/bo/gp.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "hbosim/common/error.hpp"
#include "hbosim/common/fastmath.hpp"
#include "hbosim/common/mathx.hpp"

namespace hbosim::bo {

namespace {
/// Candidate block width for predict_many: big enough to amortize loop
/// overhead and fill vector lanes, small enough that a block's solve
/// buffer (n x kBlock doubles) stays cache-resident as n grows.
constexpr std::size_t kBlock = 64;
}  // namespace

GaussianProcess::GaussianProcess(std::unique_ptr<Kernel> kernel, GpConfig cfg)
    : kernel_(std::move(kernel)), cfg_(cfg) {
  HB_REQUIRE(kernel_ != nullptr, "GaussianProcess requires a kernel");
  HB_REQUIRE(cfg_.noise_variance >= 0.0, "noise variance must be >= 0");
}

void GaussianProcess::fit(const std::vector<std::vector<double>>& x,
                          const std::vector<double>& y, const Matrix& dist) {
  HB_REQUIRE(!x.empty(), "GP fit requires at least one observation");
  HB_REQUIRE(x.size() == y.size(), "GP fit: X/y size mismatch");
  HB_REQUIRE(dist.rows() >= x.size() && dist.cols() >= x.size(),
             "GP fit: distance matrix too small");
  const std::size_t dim = x.front().size();
  for (const auto& row : x)
    HB_REQUIRE(row.size() == dim, "GP fit: inconsistent input dimension");

  n_ = x.size();
  dim_ = dim;
  xflat_.clear();
  xflat_.reserve(n_ * dim_);
  for (const auto& row : x) xflat_.insert(xflat_.end(), row.begin(), row.end());

  Matrix gram(n_, n_);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double k = kernel_->from_distance(dist(i, j));
      gram(i, j) = k;
      gram(j, i) = k;
    }
    gram(i, i) += cfg_.noise_variance;
  }
  chol_ = std::make_unique<Cholesky>(gram, cfg_.jitter);
  set_targets(y);
}

void GaussianProcess::append_point(std::span<const double> z,
                                   std::span<const double> dist_row) {
  HB_REQUIRE(fitted(), "GP append_point before fit");
  HB_REQUIRE(z.size() == dim_, "GP append_point: dimension mismatch");
  HB_REQUIRE(dist_row.size() == n_, "GP append_point: distance row mismatch");

  // Scalar kernel evaluations on purpose: the grown factor must stay
  // bitwise identical to a from-scratch factorization, which uses the
  // scalar from_distance path for the Gram matrix.
  krow_scratch_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i)
    krow_scratch_[i] = kernel_->from_distance(dist_row[i]);
  const double diag = kernel_->from_distance(0.0) + cfg_.noise_variance;
  chol_->append_row(krow_scratch_, diag);

  xflat_.insert(xflat_.end(), z.begin(), z.end());
  ++n_;
}

void GaussianProcess::set_targets(std::span<const double> y) {
  HB_REQUIRE(fitted(), "GP set_targets before fit");
  HB_REQUIRE(y.size() == n_, "GP set_targets: size mismatch");
  y_mean_ = mean(y);
  y_centered_.resize(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) y_centered_[i] = y[i] - y_mean_;
  alpha_.resize(y.size());
  chol_->solve(y_centered_, alpha_);
}

void GaussianProcess::predict_many(std::span<const double> zs_flat,
                                   std::size_t count,
                                   std::span<Prediction> out,
                                   BatchScratch& scratch) const {
  HB_REQUIRE(fitted(), "GP predict before fit");
  const std::size_t n = n_;
  const std::size_t d = dim_;
  HB_REQUIRE(zs_flat.size() == count * d,
             "GP predict_many: flat input size mismatch");
  HB_REQUIRE(out.size() >= count, "GP predict_many: output too small");

  const double k0 = kernel_->from_distance(0.0);
  scratch.ct.resize(d * kBlock);
  scratch.v.resize(n * kBlock);
  scratch.mu.resize(kBlock);
  scratch.var.resize(kBlock);

  for (std::size_t b0 = 0; b0 < count; b0 += kBlock) {
    const std::size_t bc = std::min(kBlock, count - b0);
    // Transpose the block so each coordinate is contiguous across
    // candidates — the distance accumulation then vectorizes.
    for (std::size_t c = 0; c < bc; ++c)
      for (std::size_t j = 0; j < d; ++j)
        scratch.ct[j * kBlock + c] = zs_flat[(b0 + c) * d + j];

    // Kernel rows v(i, c) = k(||z_c - x_i||), computed block-at-a-time:
    // the distance block in one call, then the kernel over the whole
    // n x kBlock buffer (padding columns hold 0 -> k(0), never read).
    fastmath::dist_rows(scratch.ct.data(), xflat_.data(), n, d, bc, kBlock,
                        scratch.v.data());
    kernel_->from_distance_many({scratch.v.data(), n * kBlock},
                                {scratch.v.data(), n * kBlock});

    // Means use the raw kernel rows, so accumulate before the in-place
    // solve overwrites them.
    std::fill(scratch.mu.begin(), scratch.mu.begin() + bc, 0.0);
    fastmath::accum_weighted_rows(scratch.v.data(), n, kBlock, alpha_.data(),
                                  scratch.mu.data(), bc);

    chol_->solve_lower_many(scratch.v.data(), bc, kBlock);

    std::fill(scratch.var.begin(), scratch.var.begin() + bc, 0.0);
    fastmath::accum_rowsq(scratch.v.data(), n, kBlock, scratch.var.data(),
                          bc);

    for (std::size_t c = 0; c < bc; ++c) {
      out[b0 + c].mean = y_mean_ + scratch.mu[c];
      out[b0 + c].variance = std::max(k0 - scratch.var[c], 0.0);
    }
  }
}

double GaussianProcess::log_marginal_likelihood() const {
  HB_REQUIRE(fitted(), "GP log-likelihood before fit");
  const auto n = static_cast<double>(n_);
  double data_fit = 0.0;
  for (std::size_t i = 0; i < y_centered_.size(); ++i)
    data_fit += y_centered_[i] * alpha_[i];
  return -0.5 * data_fit - 0.5 * chol_->log_det() -
         0.5 * n * std::log(2.0 * std::numbers::pi);
}

}  // namespace hbosim::bo
