// Unit + property tests for scalar helpers and the simplex projection.

#include <gtest/gtest.h>

#include <cmath>

#include "hbosim/common/error.hpp"
#include "hbosim/common/mathx.hpp"
#include "hbosim/common/rng.hpp"

namespace hbosim {
namespace {

TEST(Clamp, BasicBehaviour) {
  EXPECT_EQ(clampd(0.5, 0.0, 1.0), 0.5);
  EXPECT_EQ(clampd(-1.0, 0.0, 1.0), 0.0);
  EXPECT_EQ(clampd(2.0, 0.0, 1.0), 1.0);
  EXPECT_THROW(clampd(0.0, 1.0, 0.0), Error);
}

TEST(Mean, EmptyAndBasic) {
  EXPECT_EQ(mean({}), 0.0);
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stdev, KnownValue) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(stdev(xs), 2.138, 1e-3);
  EXPECT_EQ(stdev(std::vector<double>{1.0}), 0.0);
}

TEST(NormalDistribution, KnownPdfCdfValues) {
  EXPECT_NEAR(norm_pdf(0.0), 0.3989422804, 1e-9);
  EXPECT_NEAR(norm_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(norm_cdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(norm_cdf(-1.959963985), 0.025, 1e-6);
}

TEST(NormalDistribution, CdfIsMonotone) {
  double prev = 0.0;
  for (double z = -5.0; z <= 5.0; z += 0.1) {
    const double v = norm_cdf(z);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(Euclidean, DistanceAndMismatch) {
  const std::vector<double> a = {0.0, 3.0};
  const std::vector<double> b = {4.0, 0.0};
  EXPECT_DOUBLE_EQ(euclidean_distance(a, b), 5.0);
  const std::vector<double> c = {1.0};
  EXPECT_THROW(euclidean_distance(a, c), Error);
}

TEST(SimplexProjection, FeasiblePointIsFixed) {
  const std::vector<double> p = {0.2, 0.3, 0.5};
  const auto q = project_to_simplex(p);
  for (std::size_t i = 0; i < p.size(); ++i) EXPECT_NEAR(q[i], p[i], 1e-12);
}

TEST(SimplexProjection, KnownProjection) {
  // Projecting (1, 1) onto the 1-simplex gives (0.5, 0.5).
  const auto q = project_to_simplex(std::vector<double>{1.0, 1.0});
  EXPECT_NEAR(q[0], 0.5, 1e-12);
  EXPECT_NEAR(q[1], 0.5, 1e-12);
}

TEST(SimplexProjection, NegativeEntriesZeroOut) {
  const auto q = project_to_simplex(std::vector<double>{2.0, -1.0});
  EXPECT_NEAR(q[0], 1.0, 1e-12);
  EXPECT_NEAR(q[1], 0.0, 1e-12);
}

class SimplexProjectionProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimplexProjectionProperty, OutputIsAlwaysOnSimplex) {
  Rng rng(100 + GetParam());
  for (int rep = 0; rep < 200; ++rep) {
    const std::size_t n = 1 + rng.uniform_index(6);
    std::vector<double> v(n);
    for (auto& x : v) x = rng.uniform(-5.0, 5.0);
    const auto q = project_to_simplex(v);
    double sum = 0.0;
    for (double x : q) {
      EXPECT_GE(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
    // Idempotence: projecting again changes nothing.
    const auto q2 = project_to_simplex(q);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(q2[i], q[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexProjectionProperty,
                         ::testing::Range(0, 5));

}  // namespace
}  // namespace hbosim
