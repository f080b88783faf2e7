#pragma once

#include <cstdint>
#include <span>
#include <vector>

/// \file rng.hpp
/// Deterministic random number generation.
///
/// Everything stochastic in hbosim flows through an explicitly seeded Rng so
/// every experiment in bench/ is reproducible bit-for-bit run to run. The
/// generator is xoshiro256** seeded via SplitMix64, following the reference
/// implementations by Blackman & Vigna.

namespace hbosim {

/// SplitMix64 — used to expand a single 64-bit seed into generator state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next();

 private:
  std::uint64_t state_;
};

/// xoshiro256** PRNG with convenience distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Raw 64 random bits.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box-Muller (cached second draw).
  double normal();

  /// Normal with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);

  /// Gamma(shape, 1) via Marsaglia-Tsang; shape > 0.
  double gamma(double shape);

  /// A point uniformly distributed on the (n-1)-simplex (entries >= 0,
  /// summing to 1), drawn as Dirichlet(alpha, ..., alpha).
  std::vector<double> dirichlet(std::size_t n, double alpha = 1.0);

  /// Same draw, written into `out` (out.size() components) without
  /// allocating. Consumes exactly the same generator sequence and produces
  /// bitwise the same values as dirichlet(out.size(), alpha).
  void dirichlet(std::span<double> out, double alpha = 1.0);

 private:
  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace hbosim
