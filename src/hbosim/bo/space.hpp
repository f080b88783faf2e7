#pragma once

#include <span>
#include <vector>

#include "hbosim/common/rng.hpp"

/// \file space.hpp
/// HBO's joint optimization domain (the paper's Constraints 8-10): a point
/// z = [c_1..c_N, x] where c lies on the probability simplex (per-resource
/// AI task proportions, each in [0,1], summing to 1) and x (the total
/// triangle-count ratio) lies in [R_min, 1]. Constraints are *known*, so
/// they are enforced structurally — candidates are sampled on the simplex
/// and clipped back onto it — rather than via penalties.

namespace hbosim::bo {

class SimplexBoxSpace {
 public:
  /// n_simplex >= 1 simplex coordinates followed by one box coordinate in
  /// [box_lo, box_hi].
  SimplexBoxSpace(std::size_t n_simplex, double box_lo, double box_hi);

  std::size_t simplex_dim() const { return n_simplex_; }
  std::size_t dim() const { return n_simplex_ + 1; }
  double box_lo() const { return box_lo_; }
  double box_hi() const { return box_hi_; }

  /// Uniform-ish random point: Dirichlet(1) on the simplex, uniform box.
  std::vector<double> sample(Rng& rng) const;

  /// Same draw written into `out` (size dim()) without allocating.
  /// Consumes the identical generator sequence and produces bitwise the
  /// same point as sample() — the BO hot loop packs hundreds of candidates
  /// per suggest into one flat buffer through this overload.
  void sample_into(std::span<double> out, Rng& rng) const;

  /// Project an arbitrary point into the feasible set: Euclidean simplex
  /// projection for c, clamp for x.
  std::vector<double> clip(std::span<const double> z) const;

  /// clip() into `out` (size dim(); may alias z). `scratch` is reused
  /// sort space for the simplex projection, making the call
  /// allocation-free at steady state. Bitwise identical to clip().
  void clip_into(std::span<const double> z, std::span<double> out,
                 std::vector<double>& scratch) const;

  /// Gaussian perturbation of a feasible point z, re-projected, written
  /// into `out` (size dim(); must not alias z). `scale` is the stddev
  /// relative to each coordinate's range. `scratch` is reused sort space
  /// for the projection, making the call allocation-free at steady state.
  void perturb_into(std::span<const double> z, double scale, Rng& rng,
                    std::span<double> out, std::vector<double>& scratch) const;

  /// Feasibility check within tolerance.
  bool contains(std::span<const double> z, double tol = 1e-9) const;

  /// Split a feasible point into (c, x).
  static std::pair<std::vector<double>, double> split(
      std::span<const double> z);

  /// Join (c, x) into a point.
  static std::vector<double> join(std::span<const double> c, double x);

 private:
  std::size_t n_simplex_;
  double box_lo_;
  double box_hi_;
};

}  // namespace hbosim::bo
