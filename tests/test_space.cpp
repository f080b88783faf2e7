// Tests for the constrained optimization domain (Constraints 8-10).

#include <gtest/gtest.h>

#include "hbosim/bo/space.hpp"
#include "hbosim/common/error.hpp"

namespace hbosim::bo {
namespace {

TEST(Space, DimensionsAndBounds) {
  const SimplexBoxSpace space(3, 0.2, 1.0);
  EXPECT_EQ(space.simplex_dim(), 3u);
  EXPECT_EQ(space.dim(), 4u);
  EXPECT_DOUBLE_EQ(space.box_lo(), 0.2);
  EXPECT_DOUBLE_EQ(space.box_hi(), 1.0);
}

TEST(Space, InvalidConstructionThrows) {
  EXPECT_THROW(SimplexBoxSpace(0, 0.0, 1.0), hbosim::Error);
  EXPECT_THROW(SimplexBoxSpace(3, 0.5, 0.2), hbosim::Error);
  EXPECT_THROW(SimplexBoxSpace(3, -0.1, 1.0), hbosim::Error);
  EXPECT_THROW(SimplexBoxSpace(3, 0.0, 1.1), hbosim::Error);
}

class SpaceSampleTest : public ::testing::TestWithParam<int> {};

TEST_P(SpaceSampleTest, SamplesAreAlwaysFeasible) {
  const SimplexBoxSpace space(3, 0.2, 1.0);
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const auto z = space.sample(rng);
    ASSERT_EQ(z.size(), 4u);
    EXPECT_TRUE(space.contains(z, 1e-9));
    EXPECT_GE(z[3], 0.2);
    EXPECT_LE(z[3], 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpaceSampleTest, ::testing::Range(0, 5));

TEST(Space, ClipProjectsArbitraryPoints) {
  const SimplexBoxSpace space(3, 0.2, 1.0);
  const std::vector<double> wild = {5.0, -3.0, 0.5, 7.0};
  const auto z = space.clip(wild);
  EXPECT_TRUE(space.contains(z, 1e-9));
  EXPECT_DOUBLE_EQ(z[3], 1.0);  // box coordinate clamps
}

TEST(Space, ClipKeepsFeasiblePointsFixed) {
  const SimplexBoxSpace space(3, 0.2, 1.0);
  const std::vector<double> z = {0.2, 0.3, 0.5, 0.7};
  const auto c = space.clip(z);
  for (std::size_t i = 0; i < z.size(); ++i) EXPECT_NEAR(c[i], z[i], 1e-12);
}

TEST(Space, PerturbStaysFeasible) {
  const SimplexBoxSpace space(3, 0.2, 1.0);
  Rng rng(9);
  const auto base = space.sample(rng);
  std::vector<double> z(space.dim());
  std::vector<double> scratch;
  for (int i = 0; i < 200; ++i) {
    space.perturb_into(base, 0.2, rng, z, scratch);
    EXPECT_TRUE(space.contains(z, 1e-9));
  }
}

TEST(Space, PerturbScaleControlsStep) {
  const SimplexBoxSpace space(3, 0.2, 1.0);
  Rng rng_a(5);
  Rng rng_b(5);
  const std::vector<double> base = {1.0 / 3, 1.0 / 3, 1.0 / 3, 0.6};
  double small_step = 0.0;
  double large_step = 0.0;
  std::vector<double> s(space.dim()), l(space.dim()), scratch;
  for (int i = 0; i < 100; ++i) {
    space.perturb_into(base, 0.01, rng_a, s, scratch);
    space.perturb_into(base, 0.3, rng_b, l, scratch);
    for (std::size_t d = 0; d < base.size(); ++d) {
      small_step += std::abs(s[d] - base[d]);
      large_step += std::abs(l[d] - base[d]);
    }
  }
  EXPECT_LT(small_step, large_step);
}

TEST(Space, ContainsRejectsViolations) {
  const SimplexBoxSpace space(3, 0.2, 1.0);
  EXPECT_FALSE(space.contains(std::vector<double>{0.5, 0.5}, 1e-9));  // dim
  EXPECT_FALSE(
      space.contains(std::vector<double>{0.5, 0.4, 0.4, 0.5}, 1e-9));  // sum
  EXPECT_FALSE(
      space.contains(std::vector<double>{-0.1, 0.6, 0.5, 0.5}, 1e-9));  // neg
  EXPECT_FALSE(
      space.contains(std::vector<double>{0.3, 0.3, 0.4, 0.1}, 1e-9));  // box
  EXPECT_TRUE(space.contains(std::vector<double>{0.3, 0.3, 0.4, 0.5}, 1e-9));
}

TEST(Space, SplitJoinRoundTrip) {
  const std::vector<double> z = {0.1, 0.2, 0.7, 0.9};
  auto [c, x] = SimplexBoxSpace::split(z);
  EXPECT_EQ(c, (std::vector<double>{0.1, 0.2, 0.7}));
  EXPECT_DOUBLE_EQ(x, 0.9);
  EXPECT_EQ(SimplexBoxSpace::join(c, x), z);
}

TEST(Space, DegenerateBoxPinsCoordinate) {
  // BNT uses box [1, 1] to pin x at full quality.
  const SimplexBoxSpace space(3, 1.0, 1.0);
  Rng rng(2);
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(space.sample(rng)[3], 1.0);
}

// The *_into calls feed the optimizer's flat candidate buffer; they must
// consume the identical generator sequence and produce bitwise the same
// points as their allocating or closed-form counterparts, or the
// optimizer would diverge from its from-scratch test reference.
TEST(Space, SampleIntoMatchesSampleBitwise) {
  const SimplexBoxSpace space(4, 0.2, 1.0);
  Rng rng_a(77);
  Rng rng_b(77);
  std::vector<double> buf(space.dim());
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> z = space.sample(rng_a);
    space.sample_into(buf, rng_b);
    for (std::size_t j = 0; j < z.size(); ++j) EXPECT_EQ(z[j], buf[j]);
  }
  // Same sequence consumed: the generators stay in lockstep.
  EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());
}

TEST(Space, PerturbIntoAndClipIntoMatchBitwise) {
  const SimplexBoxSpace space(3, 0.2, 1.0);
  Rng rng_a(123);
  Rng rng_b(123);
  std::vector<double> base = space.sample(rng_a);
  space.sample_into(std::span<double>(base), rng_b);
  std::vector<double> buf(space.dim());
  std::vector<double> scratch;
  for (int i = 0; i < 100; ++i) {
    // perturb_into is a Gaussian step (simplex coordinates first, then
    // the box coordinate at the box's range) projected back by clip().
    const double scale = (i % 2 == 0) ? 0.05 : 0.4;
    std::vector<double> z = base;
    for (std::size_t j = 0; j < 3; ++j) z[j] += rng_a.normal(0.0, scale);
    z[3] += rng_a.normal(0.0, scale * (space.box_hi() - space.box_lo()));
    z = space.clip(z);
    space.perturb_into(base, scale, rng_b, buf, scratch);
    for (std::size_t j = 0; j < z.size(); ++j) EXPECT_EQ(z[j], buf[j]);
  }
  // clip_into with out aliasing the input.
  std::vector<double> raw = {1.7, -0.3, 0.8, 2.0};
  const std::vector<double> clipped = space.clip(raw);
  space.clip_into(raw, raw, scratch);
  for (std::size_t j = 0; j < raw.size(); ++j) EXPECT_EQ(clipped[j], raw[j]);
}

}  // namespace
}  // namespace hbosim::bo
