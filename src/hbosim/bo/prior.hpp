#pragma once

#include <span>
#include <vector>

/// \file prior.hpp
/// Optional learned prior over the HBO cost surface. A SurrogatePrior
/// gives the Bayesian optimizer three things a cold activation otherwise
/// lacks: (1) a non-flat mean function m0(z) — the GP then models only the
/// *residual* cost - m0(z), so with few observations the posterior already
/// reflects everything past sessions learned about this (device, scenario,
/// environment); (2) ranked seed configurations that replace the first
/// random initialization draws; (3) a data-driven length-scale hint added
/// to the hyperparameter grid. Implementations live above bo (see
/// hbosim::policy::ScenarioPrior, fitted from fleet pool traffic); this
/// header only defines the contract so bo stays dependency-free.
///
/// Determinism contract: every method must be a pure function of the
/// prior's frozen state — no clocks, no shared mutable state, no
/// unseeded randomness — because one prior instance may be consulted
/// concurrently by many fleet sessions whose trajectories must stay
/// bit-identical across thread counts.

namespace hbosim::bo {

class SurrogatePrior {
 public:
  virtual ~SurrogatePrior() = default;

  /// Prior mean of the raw (unstandardized) cost phi at configuration z.
  /// Must be finite for every feasible z.
  virtual double mean(std::span<const double> z) const = 0;

  /// Multiplier applied to the base length scale (bo::kLengthScale) and
  /// appended to the length-scale grid (bo::kLengthScaleGrid) for the
  /// marginal-likelihood refit. Return <= 0 for "no opinion" (the grid is
  /// left untouched).
  virtual double length_scale_factor() const { return 0.0; }

  /// Up to k promising configurations, best first. The optimizer clips
  /// each onto the feasible set and uses them in place of the first k
  /// random initialization draws; returning fewer (or none) leaves the
  /// remaining draws random. Points whose dimension does not match the
  /// space are ignored.
  virtual std::vector<std::vector<double>> seed_points(std::size_t k) const {
    (void)k;
    return {};
  }

  /// Dimension of the z-space this prior was fitted in, or 0 when the
  /// prior is dimension-agnostic. Consumers growing the search space
  /// (e.g. the 4-target offload simplex vs the 3-target on-device one)
  /// must drop priors whose dim() is nonzero and differs from the
  /// active space — a mean function fitted over 4-vectors is
  /// meaningless (or out-of-bounds) when evaluated on 5-vectors.
  virtual std::size_t dim() const { return 0; }
};

}  // namespace hbosim::bo
