#include "hbosim/common/mathx.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "hbosim/common/error.hpp"

namespace hbosim {

double clampd(double v, double lo, double hi) {
  HB_REQUIRE(lo <= hi, "clampd requires lo <= hi");
  return std::min(std::max(v, lo), hi);
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double stdev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double norm_pdf(double z) {
  static const double inv_sqrt_2pi = 1.0 / std::sqrt(2.0 * std::numbers::pi);
  return inv_sqrt_2pi * std::exp(-0.5 * z * z);
}

double norm_cdf(double z) {
  return 0.5 * std::erfc(-z / std::numbers::sqrt2);
}

double euclidean_distance(std::span<const double> a,
                          std::span<const double> b) {
  HB_REQUIRE(a.size() == b.size(), "euclidean_distance: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

std::vector<double> project_to_simplex(std::span<const double> v) {
  std::vector<double> out(v.size());
  std::vector<double> scratch;
  project_to_simplex(v, out, scratch);
  return out;
}

void project_to_simplex(std::span<const double> v, std::span<double> out,
                        std::vector<double>& scratch) {
  HB_REQUIRE(!v.empty(), "project_to_simplex: empty input");
  HB_REQUIRE(out.size() == v.size(), "project_to_simplex: size mismatch");
  scratch.assign(v.begin(), v.end());
  std::sort(scratch.begin(), scratch.end(), std::greater<>());
  double css = 0.0;
  std::size_t rho = 0;
  double cum = 0.0;
  for (std::size_t i = 0; i < scratch.size(); ++i) {
    cum += scratch[i];
    const double t = (cum - 1.0) / static_cast<double>(i + 1);
    if (scratch[i] - t > 0.0) {
      rho = i + 1;
      css = cum;
    }
  }
  if (rho == 0) {
    // All mass below threshold; return uniform point.
    std::fill(out.begin(), out.end(), 1.0 / static_cast<double>(v.size()));
    return;
  }
  const double theta = (css - 1.0) / static_cast<double>(rho);
  for (std::size_t i = 0; i < v.size(); ++i)
    out[i] = std::max(v[i] - theta, 0.0);
}

}  // namespace hbosim
