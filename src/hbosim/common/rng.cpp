#include "hbosim/common/rng.hpp"

#include <cmath>
#include <numbers>

#include "hbosim/common/error.hpp"

namespace hbosim {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 significant bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  HB_REQUIRE(lo <= hi, "uniform(lo, hi) requires lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  HB_REQUIRE(n > 0, "uniform_index requires n > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = n * (UINT64_MAX / n);
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return v % n;
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 in (0,1] to keep log() finite.
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double sigma) {
  HB_REQUIRE(sigma >= 0.0, "normal() requires sigma >= 0");
  return mean + sigma * normal();
}

double Rng::gamma(double shape) {
  HB_REQUIRE(shape > 0.0, "gamma() requires shape > 0");
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia-Tsang trick).
    const double u = uniform();
    return gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v;
  }
}

std::vector<double> Rng::dirichlet(std::size_t n, double alpha) {
  HB_REQUIRE(n > 0, "dirichlet requires n > 0");
  std::vector<double> out(n);
  dirichlet(std::span<double>(out), alpha);
  return out;
}

void Rng::dirichlet(std::span<double> out, double alpha) {
  HB_REQUIRE(!out.empty(), "dirichlet requires n > 0");
  double sum = 0.0;
  for (auto& v : out) {
    v = gamma(alpha);
    sum += v;
  }
  if (sum <= 0.0) {
    // Numerically degenerate draw; fall back to the simplex center.
    for (auto& v : out) v = 1.0 / static_cast<double>(out.size());
    return;
  }
  for (auto& v : out) v /= sum;
}

}  // namespace hbosim
