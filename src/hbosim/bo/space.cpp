#include "hbosim/bo/space.hpp"

#include <cmath>

#include "hbosim/common/error.hpp"
#include "hbosim/common/mathx.hpp"

namespace hbosim::bo {

SimplexBoxSpace::SimplexBoxSpace(std::size_t n_simplex, double box_lo,
                                 double box_hi)
    : n_simplex_(n_simplex), box_lo_(box_lo), box_hi_(box_hi) {
  HB_REQUIRE(n_simplex_ >= 1, "need at least one simplex coordinate");
  HB_REQUIRE(box_lo_ <= box_hi_, "box bounds inverted");
  HB_REQUIRE(box_lo_ >= 0.0 && box_hi_ <= 1.0,
             "triangle ratio bounds must lie in [0,1]");
}

std::vector<double> SimplexBoxSpace::sample(Rng& rng) const {
  std::vector<double> z(dim());
  sample_into(z, rng);
  return z;
}

void SimplexBoxSpace::sample_into(std::span<double> out, Rng& rng) const {
  HB_REQUIRE(out.size() == dim(), "point dimension mismatch");
  rng.dirichlet(out.first(n_simplex_));
  out[n_simplex_] = rng.uniform(box_lo_, box_hi_);
}

std::vector<double> SimplexBoxSpace::clip(std::span<const double> z) const {
  std::vector<double> c(dim());
  std::vector<double> scratch;
  clip_into(z, c, scratch);
  return c;
}

void SimplexBoxSpace::clip_into(std::span<const double> z,
                                std::span<double> out,
                                std::vector<double>& scratch) const {
  HB_REQUIRE(z.size() == dim(), "point dimension mismatch");
  HB_REQUIRE(out.size() == dim(), "output dimension mismatch");
  project_to_simplex(z.first(n_simplex_), out.first(n_simplex_), scratch);
  out[n_simplex_] = clampd(z[n_simplex_], box_lo_, box_hi_);
}

void SimplexBoxSpace::perturb_into(std::span<const double> z, double scale,
                                   Rng& rng, std::span<double> out,
                                   std::vector<double>& scratch) const {
  HB_REQUIRE(z.size() == dim(), "point dimension mismatch");
  HB_REQUIRE(scale > 0.0, "perturbation scale must be positive");
  HB_REQUIRE(out.size() == dim(), "output dimension mismatch");
  for (std::size_t i = 0; i < n_simplex_; ++i)
    out[i] = z[i] + rng.normal(0.0, scale);
  out[n_simplex_] = z[n_simplex_] + rng.normal(0.0, scale * (box_hi_ - box_lo_));
  clip_into(out, out, scratch);
}

bool SimplexBoxSpace::contains(std::span<const double> z, double tol) const {
  if (z.size() != dim()) return false;
  double s = 0.0;
  for (std::size_t i = 0; i < n_simplex_; ++i) {
    if (z[i] < -tol || z[i] > 1.0 + tol) return false;
    s += z[i];
  }
  if (std::abs(s - 1.0) > tol * static_cast<double>(n_simplex_) + tol)
    return false;
  const double x = z[n_simplex_];
  return x >= box_lo_ - tol && x <= box_hi_ + tol;
}

std::pair<std::vector<double>, double> SimplexBoxSpace::split(
    std::span<const double> z) {
  HB_REQUIRE(z.size() >= 2, "point too small to split");
  std::vector<double> c(z.begin(), z.end() - 1);
  return {std::move(c), z.back()};
}

std::vector<double> SimplexBoxSpace::join(std::span<const double> c,
                                          double x) {
  std::vector<double> z(c.begin(), c.end());
  z.push_back(x);
  return z;
}

}  // namespace hbosim::bo
