#include "hbosim/bo/kernel.hpp"

#include <cmath>

#include "hbosim/common/error.hpp"
#include "hbosim/common/fastmath.hpp"

namespace hbosim::bo {

void Kernel::from_distance_many(std::span<const double> r,
                                std::span<double> out) const {
  HB_REQUIRE(r.size() == out.size(), "from_distance_many: size mismatch");
  for (std::size_t i = 0; i < r.size(); ++i) out[i] = from_distance(r[i]);
}

Matern52::Matern52(double length_scale, double sigma_f)
    : length_(length_scale), sigma_f2_(sigma_f * sigma_f) {
  HB_REQUIRE(length_ > 0.0, "length scale must be positive");
  HB_REQUIRE(sigma_f > 0.0, "signal stddev must be positive");
}

double Matern52::from_distance(double r) const {
  const double s = std::sqrt(5.0) * r / length_;
  return sigma_f2_ * (1.0 + s + s * s / 3.0) * std::exp(-s);
}

void Matern52::from_distance_many(std::span<const double> r,
                                  std::span<double> out) const {
  HB_REQUIRE(r.size() == out.size(), "from_distance_many: size mismatch");
  fastmath::matern52_from_r(length_, sigma_f2_, r.data(), out.data(),
                            r.size());
}

Rbf::Rbf(double length_scale, double sigma_f)
    : length_(length_scale), sigma_f2_(sigma_f * sigma_f) {
  HB_REQUIRE(length_ > 0.0, "length scale must be positive");
  HB_REQUIRE(sigma_f > 0.0, "signal stddev must be positive");
}

double Rbf::from_distance(double r) const {
  return sigma_f2_ * std::exp(-r * r / (2.0 * length_ * length_));
}

void Rbf::from_distance_many(std::span<const double> r,
                             std::span<double> out) const {
  HB_REQUIRE(r.size() == out.size(), "from_distance_many: size mismatch");
  fastmath::rbf_from_r(length_, sigma_f2_, r.data(), out.data(), r.size());
}

Matern32::Matern32(double length_scale, double sigma_f)
    : length_(length_scale), sigma_f2_(sigma_f * sigma_f) {
  HB_REQUIRE(length_ > 0.0, "length scale must be positive");
  HB_REQUIRE(sigma_f > 0.0, "signal stddev must be positive");
}

double Matern32::from_distance(double r) const {
  const double s = std::sqrt(3.0) * r / length_;
  return sigma_f2_ * (1.0 + s) * std::exp(-s);
}

void Matern32::from_distance_many(std::span<const double> r,
                                  std::span<double> out) const {
  HB_REQUIRE(r.size() == out.size(), "from_distance_many: size mismatch");
  fastmath::matern32_from_r(length_, sigma_f2_, r.data(), out.data(),
                            r.size());
}

}  // namespace hbosim::bo
