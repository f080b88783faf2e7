// Unit tests for the deterministic PRNG and its distributions.

#include <gtest/gtest.h>

#include <set>

#include "hbosim/common/error.hpp"
#include "hbosim/common/rng.hpp"

namespace hbosim {
namespace {

TEST(SplitMix64, ExpandsSeedDeterministically) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, SameSeedSameStream) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformRejectsInvertedBounds) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform(1.0, 0.0), Error);
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(4);
  double acc = 0.0;
  constexpr int n = 200000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(6);
  EXPECT_THROW(rng.uniform_index(0), Error);
}

TEST(Rng, NormalMomentsAreStandard) {
  Rng rng(8);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(Rng, NormalWithParamsShiftsAndScales) {
  Rng rng(9);
  double acc = 0.0;
  constexpr int n = 50000;
  for (int i = 0; i < n; ++i) acc += rng.normal(10.0, 2.0);
  EXPECT_NEAR(acc / n, 10.0, 0.1);
}

TEST(Rng, NormalRejectsNegativeSigma) {
  Rng rng(10);
  EXPECT_THROW(rng.normal(0.0, -1.0), Error);
}

TEST(Rng, GammaIsPositiveAndMeanMatchesShape) {
  Rng rng(11);
  for (double shape : {0.5, 1.0, 2.5, 9.0}) {
    double acc = 0.0;
    constexpr int n = 50000;
    for (int i = 0; i < n; ++i) {
      const double v = rng.gamma(shape);
      ASSERT_GT(v, 0.0);
      acc += v;
    }
    EXPECT_NEAR(acc / n, shape, 0.12 * shape + 0.02);
  }
}

TEST(Rng, GammaRejectsNonPositiveShape) {
  Rng rng(12);
  EXPECT_THROW(rng.gamma(0.0), Error);
}

class DirichletTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DirichletTest, SumsToOneWithNonNegativeEntries) {
  Rng rng(13 + GetParam());
  for (int rep = 0; rep < 200; ++rep) {
    const auto v = rng.dirichlet(GetParam());
    ASSERT_EQ(v.size(), GetParam());
    double sum = 0.0;
    for (double x : v) {
      EXPECT_GE(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Dimensions, DirichletTest,
                         ::testing::Values(1, 2, 3, 5, 16));

}  // namespace
}  // namespace hbosim
