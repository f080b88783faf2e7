// Tests for the quality-degradation model (Eq. 1), mesh assets, and the
// culling model.

#include <gtest/gtest.h>

#include "hbosim/common/error.hpp"
#include "hbosim/render/culling.hpp"
#include "hbosim/render/degradation.hpp"
#include "hbosim/render/mesh.hpp"

namespace hbosim::render {
namespace {

DegradationParams valid_params() {
  DegradationParams p;
  p.a = 0.6;
  p.b = 0.02 - 0.6 - 0.9;  // residual 0.02 at R=1
  p.c = 0.9;
  p.d = 1.0;
  return p;
}

TEST(DegradationParams, ValidityChecks) {
  EXPECT_TRUE(valid_params().valid());
  DegradationParams p = valid_params();
  p.a = -0.1;
  EXPECT_FALSE(p.valid());
  p = valid_params();
  p.b = 0.5;  // increasing error in R
  EXPECT_FALSE(p.valid());
  p = valid_params();
  p.c = 0.0;
  EXPECT_FALSE(p.valid());
  p = valid_params();
  p.d = 0.0;
  EXPECT_FALSE(p.valid());
}

TEST(Degradation, EquationOneKnownValue) {
  const DegradationParams p = valid_params();
  // R=1, D=1: error = a + b + c = 0.02.
  EXPECT_NEAR(degradation_error(p, 1.0, 1.0), 0.02, 1e-12);
  // R=0, D=1: error = c = 0.9.
  EXPECT_NEAR(degradation_error(p, 0.0, 1.0), 0.9, 1e-12);
  // Distance halves the error with d=1 and D=2.
  EXPECT_NEAR(degradation_error(p, 0.0, 2.0), 0.45, 1e-12);
  EXPECT_NEAR(object_quality(p, 0.0, 2.0), 0.55, 1e-12);
}

TEST(Degradation, ErrorIsMonotoneNonIncreasingInRatio) {
  const DegradationParams p = valid_params();
  double prev = 1.0;
  for (double r = 0.0; r <= 1.0; r += 0.01) {
    const double e = degradation_error(p, r, 1.5);
    EXPECT_LE(e, prev + 1e-12);
    prev = e;
  }
}

TEST(Degradation, ErrorIsMonotoneNonIncreasingInDistance) {
  const DegradationParams p = valid_params();
  double prev = 1.0;
  for (double d = 1.0; d <= 10.0; d += 0.25) {
    const double e = degradation_error(p, 0.3, d);
    EXPECT_LE(e, prev + 1e-12);
    prev = e;
  }
}

TEST(Degradation, DistanceClampsAtOneMeter) {
  const DegradationParams p = valid_params();
  EXPECT_DOUBLE_EQ(degradation_error(p, 0.5, 0.2),
                   degradation_error(p, 0.5, 1.0));
}

TEST(Degradation, OutputClampedToUnitInterval) {
  DegradationParams p = valid_params();
  p.c = 5.0;
  p.b = 0.02 - p.a - p.c;
  ASSERT_TRUE(p.valid());
  EXPECT_DOUBLE_EQ(degradation_error(p, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(object_quality(p, 0.0, 1.0), 0.0);
}

TEST(Degradation, SlopeIsNonPositiveForValidParams) {
  const DegradationParams p = valid_params();
  for (double r = 0.0; r <= 1.0; r += 0.1)
    EXPECT_LE(degradation_slope(p, r, 2.0), 0.0);
}

TEST(Degradation, InvalidRatioThrows) {
  const DegradationParams p = valid_params();
  EXPECT_THROW(degradation_error(p, -0.1, 1.0), hbosim::Error);
  EXPECT_THROW(degradation_error(p, 1.1, 1.0), hbosim::Error);
}

TEST(MeshAsset, TriangleCountsRoundAndFloorAtOne) {
  const MeshAsset mesh("bike", 178552, valid_params());
  EXPECT_EQ(mesh.triangles_at(1.0), 178552u);
  EXPECT_EQ(mesh.triangles_at(0.5), 89276u);
  EXPECT_EQ(mesh.triangles_at(0.0), 1u);  // degenerate floor
  EXPECT_THROW(mesh.triangles_at(1.5), hbosim::Error);
}

TEST(MeshAsset, RejectsInvalidConstruction) {
  EXPECT_THROW(MeshAsset("x", 0, valid_params()), hbosim::Error);
  DegradationParams bad = valid_params();
  bad.a = -1.0;
  EXPECT_THROW(MeshAsset("x", 10, bad), hbosim::Error);
}

class SynthesisTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SynthesisTest, SynthesizedParamsAreValidAndDeterministic) {
  const auto p1 = synthesize_degradation_params(GetParam(), 100000);
  const auto p2 = synthesize_degradation_params(GetParam(), 100000);
  EXPECT_TRUE(p1.valid());
  EXPECT_DOUBLE_EQ(p1.a, p2.a);
  EXPECT_DOUBLE_EQ(p1.b, p2.b);
  EXPECT_DOUBLE_EQ(p1.c, p2.c);
  EXPECT_DOUBLE_EQ(p1.d, p2.d);
  // Full quality at close range must look good: error < 0.1.
  EXPECT_LT(degradation_error(p1, 1.0, 1.0), 0.1);
  // Heavy decimation must look bad: error > 0.3 at close range.
  EXPECT_GT(degradation_error(p1, 0.05, 1.0), 0.3);
}

INSTANTIATE_TEST_SUITE_P(Names, SynthesisTest,
                         ::testing::Values("apricot", "bike", "plane",
                                           "Cocacola", "cabin", "andy",
                                           "hammer", "statue"));

TEST(Synthesis, DifferentNamesGiveDifferentParams) {
  const auto a = synthesize_degradation_params("bike", 100000);
  const auto b = synthesize_degradation_params("plane", 100000);
  EXPECT_NE(a.c, b.c);
}

TEST(Culling, VisibleFractionIsBoundedAndDecreasing) {
  const CullingModel c;
  double prev = 1.0;
  for (double d = 0.2; d < 30.0; d += 0.2) {
    const double f = c.visible_fraction(d);
    EXPECT_GT(f, c.far_fraction - 1e-12);
    EXPECT_LE(f, c.near_fraction + 1e-12);
    EXPECT_LE(f, prev + 1e-12);
    prev = f;
  }
}

TEST(Culling, HalfDistanceIsTheMidpoint) {
  const CullingModel c;
  EXPECT_NEAR(c.visible_fraction(c.half_distance_m),
              0.5 * (c.near_fraction + c.far_fraction), 1e-12);
}

TEST(Culling, InvalidInputsThrow) {
  EXPECT_THROW(CullingModel::visible_fraction(0.0), hbosim::Error);
}

}  // namespace
}  // namespace hbosim::render
