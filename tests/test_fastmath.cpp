// Direct tests of the vectorized fastmath kernels against plain scalar
// loops over libm.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "hbosim/common/fastmath.hpp"
#include "hbosim/common/rng.hpp"

namespace hbosim {
namespace {

/// Distance in units in the last place between two positive finite
/// doubles (their bit patterns are ordered like their values).
std::uint64_t ulp_distance(double a, double b) {
  const auto ia = std::bit_cast<std::int64_t>(a);
  const auto ib = std::bit_cast<std::int64_t>(b);
  return static_cast<std::uint64_t>(ia > ib ? ia - ib : ib - ia);
}

TEST(FastMath, ExpManyIsWithinTwoUlpOfStdExpAndClamps) {
  // A dense grid over [-700, 0] (the range the BO kernels pass) plus
  // random points, in one call so the vector body and the tail both run.
  Rng rng(5);
  std::vector<double> x;
  for (int i = 0; i <= 70000; ++i) x.push_back(-0.01 * i);
  for (int i = 0; i < 20001; ++i) x.push_back(rng.uniform(-700.0, 0.0));
  std::vector<double> out(x.size());
  fastmath::exp_many(x.data(), out.data(), x.size());
  std::uint64_t worst = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::uint64_t ulps = ulp_distance(out[i], std::exp(x[i]));
    worst = std::max(worst, ulps);
    ASSERT_LE(ulps, 2u) << "x = " << x[i];
  }
  RecordProperty("worst_ulps", static_cast<int>(worst));

  // exp(0) is exactly 1: the nearest support point's Nadaraya-Watson
  // weight relies on it. Beyond [-700, 700] inputs clamp.
  const std::vector<double> edge = {0.0, -700.0, -800.0, -1e300, 700.0, 800.0};
  std::vector<double> e(edge.size());
  fastmath::exp_many(edge.data(), e.data(), edge.size());
  EXPECT_EQ(e[0], 1.0);
  EXPECT_EQ(e[2], e[1]);
  EXPECT_EQ(e[3], e[1]);
  EXPECT_EQ(e[5], e[4]);
  EXPECT_LE(ulp_distance(e[1], std::exp(-700.0)), 2u);
  EXPECT_LE(ulp_distance(e[4], std::exp(700.0)), 2u);
}

// nw_block against the scalar loop it fuses, per candidate: the minimum
// squared distance, then the exp-weighted sums in support order. Distances
// may contract to FMA and the exp is within 2 ulp, so the sums agree to a
// few ulp; the minimum of bitwise-recomputed distances makes the nearest
// weight exactly 1.
TEST(FastMath, NwBlockMatchesAScalarLoop) {
  constexpr std::size_t kStride = fastmath::kNwBlock;
  Rng rng(11);
  for (std::size_t d : {2u, 4u, 5u}) {
    for (std::size_t n : {1u, 7u, 96u}) {
      for (std::size_t bc : {1u, 13u, 63u, 64u}) {
        SCOPED_TRACE("d " + std::to_string(d) + " n " + std::to_string(n) +
                     " bc " + std::to_string(bc));
        const double k = rng.uniform(0.5, 10.0);
        std::vector<double> x(n * d), v(n), ct(d * kStride, 0.0);
        for (double& e : x) e = rng.uniform(0.0, 1.0);
        for (double& e : v) e = rng.uniform(-1.0, 2.0);
        for (std::size_t c = 0; c < bc; ++c)
          for (std::size_t j = 0; j < d; ++j)
            // Every fourth candidate sits on a support point.
            ct[j * kStride + c] =
                c % 4 == 0 ? x[(c % n) * d + j] : rng.uniform(-0.5, 1.5);
        std::vector<double> min_d2(bc), num(bc), den(bc);
        fastmath::nw_block(ct.data(), kStride, bc, d, x.data(), v.data(), n, k,
                           min_d2.data(), num.data(), den.data());
        for (std::size_t c = 0; c < bc; ++c) {
          std::vector<double> d2(n, 0.0);
          double want_min = std::numeric_limits<double>::infinity();
          for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < d; ++j) {
              const double dd = ct[j * kStride + c] - x[i * d + j];
              d2[i] += dd * dd;
            }
            want_min = std::min(want_min, d2[i]);
          }
          double want_num = 0.0, want_den = 0.0;
          for (std::size_t i = 0; i < n; ++i) {
            const double w = std::exp((want_min - d2[i]) * k);
            want_num += w * v[i];
            want_den += w;
          }
          if (c % 4 == 0) {
            EXPECT_EQ(min_d2[c], 0.0) << "candidate " << c;
          }
          EXPECT_NEAR(min_d2[c], want_min, 1e-15 * (1.0 + want_min))
              << "candidate " << c;
          EXPECT_GE(den[c], 1.0) << "candidate " << c;
          EXPECT_NEAR(den[c], want_den, 1e-14 * want_den) << "candidate " << c;
          EXPECT_NEAR(num[c], want_num, 1e-14 * 2.0 * want_den)
              << "candidate " << c;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hbosim
