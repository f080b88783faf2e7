#pragma once

#include <span>

/// \file kernel.hpp
/// Covariance kernels for the Gaussian-process surrogate. The paper uses
/// Matérn with nu = 5/2 and length scale l = 1 (its Eq. 7); an RBF kernel
/// is provided for the ablation bench.
///
/// All hbosim kernels are stationary: k(a, b) depends only on the
/// Euclidean distance r = ||a - b||. The class contract is that structure
/// (from_distance), so the optimizer can cache the pairwise distance
/// matrix once and re-derive the Gram matrix for every length-scale
/// candidate in O(n^2) with no repeated distance work; the prior variance
/// k(x, x) is from_distance(0).

namespace hbosim::bo {

class Kernel {
 public:
  virtual ~Kernel() = default;

  /// Covariance as a function of distance r = ||a - b|| >= 0. This is the
  /// kernel's defining form; it uses libm transcendentals, so the Gram
  /// matrices built from it are bitwise reproducible.
  virtual double from_distance(double r) const = 0;

  /// Batched covariance from distances: out[i] = k(r[i]). out may alias
  /// r. The default loops over from_distance; subclasses override with a
  /// vectorized form (common/fastmath) that may differ from the scalar
  /// path by a couple of ulp — callers that need bitwise agreement with
  /// from_distance (Gram construction) must use the scalar entry point.
  virtual void from_distance_many(std::span<const double> r,
                                  std::span<double> out) const;
};

/// Matérn nu=5/2 (Eq. 7):
///   k(r) = sigma_f^2 * (1 + sqrt(5) r / l + 5 r^2 / (3 l^2)) * exp(-sqrt(5) r / l).
class Matern52 final : public Kernel {
 public:
  explicit Matern52(double length_scale = 1.0, double sigma_f = 1.0);

  double from_distance(double r) const override;
  void from_distance_many(std::span<const double> r,
                          std::span<double> out) const override;

 private:
  double length_;
  double sigma_f2_;
};

/// Squared-exponential kernel: k(r) = sigma_f^2 exp(-r^2 / (2 l^2)).
class Rbf final : public Kernel {
 public:
  explicit Rbf(double length_scale = 1.0, double sigma_f = 1.0);

  double from_distance(double r) const override;
  void from_distance_many(std::span<const double> r,
                          std::span<double> out) const override;

 private:
  double length_;
  double sigma_f2_;
};

/// Matérn nu=3/2: k(r) = sigma_f^2 (1 + sqrt(3) r / l) exp(-sqrt(3) r / l).
/// For the kernel-smoothness ablation (smaller nu = rougher prior).
class Matern32 final : public Kernel {
 public:
  explicit Matern32(double length_scale = 1.0, double sigma_f = 1.0);

  double from_distance(double r) const override;
  void from_distance_many(std::span<const double> r,
                          std::span<double> out) const override;

 private:
  double length_;
  double sigma_f2_;
};

}  // namespace hbosim::bo
