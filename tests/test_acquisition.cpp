// Tests for the acquisition functions (EI validated against numerical
// integration of its defining expectation).

#include <gtest/gtest.h>

#include <cmath>

#include "hbosim/bo/acquisition.hpp"
#include "hbosim/common/error.hpp"
#include "hbosim/common/mathx.hpp"

namespace hbosim::bo {
namespace {

/// Brute-force E[max(best - X, 0)], X ~ N(mu, sigma^2), by quadrature.
double ei_numeric(double mu, double sigma, double best) {
  const int n = 20000;
  double acc = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = -8.0 + 16.0 * (i + 0.5) / n;
    const double x = mu + sigma * z;
    acc += std::max(best - x, 0.0) * norm_pdf(z) * (16.0 / n);
  }
  return acc;
}

TEST(ExpectedImprovement, MatchesNumericalIntegration) {
  for (double mu : {-1.0, 0.0, 0.7}) {
    for (double sigma : {0.1, 0.5, 2.0}) {
      for (double best : {-0.5, 0.0, 1.0}) {
        EXPECT_NEAR(expected_improvement(mu, sigma, best),
                    ei_numeric(mu, sigma, best), 2e-4)
            << "mu=" << mu << " sigma=" << sigma << " best=" << best;
      }
    }
  }
}

TEST(ExpectedImprovement, ZeroSigmaDegeneratesToHinge) {
  EXPECT_DOUBLE_EQ(expected_improvement(0.5, 0.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(expected_improvement(1.5, 0.0, 1.0), 0.0);
}

TEST(ExpectedImprovement, UncertaintyAddsValue) {
  // Same mean as the incumbent: only uncertainty can yield improvement.
  EXPECT_GT(expected_improvement(1.0, 1.0, 1.0),
            expected_improvement(1.0, 0.1, 1.0));
  EXPECT_GT(expected_improvement(1.0, 0.1, 1.0), 0.0);
}

TEST(ExpectedImprovement, XiShrinksTheScore) {
  EXPECT_LT(expected_improvement(0.0, 0.5, 1.0, 0.5),
            expected_improvement(0.0, 0.5, 1.0, 0.0));
}

TEST(ExpectedImprovement, IsNonNegativeAndMonotoneInBest) {
  for (double best = -2.0; best <= 2.0; best += 0.25) {
    EXPECT_GE(expected_improvement(0.0, 0.3, best), 0.0);
  }
  EXPECT_LT(expected_improvement(0.0, 0.3, -1.0),
            expected_improvement(0.0, 0.3, 1.0));
}

TEST(ProbabilityOfImprovement, KnownValues) {
  // mean == best -> 50% chance of improving (xi = 0).
  EXPECT_NEAR(probability_of_improvement(1.0, 0.5, 1.0), 0.5, 1e-12);
  // Far better mean -> ~1; far worse -> ~0.
  EXPECT_GT(probability_of_improvement(-10.0, 0.5, 0.0), 0.999);
  EXPECT_LT(probability_of_improvement(10.0, 0.5, 0.0), 0.001);
}

TEST(ProbabilityOfImprovement, ZeroSigmaIsAStepFunction) {
  EXPECT_DOUBLE_EQ(probability_of_improvement(0.5, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(probability_of_improvement(1.5, 0.0, 1.0), 0.0);
}

TEST(LowerConfidenceBound, KappaTradesExplorationForExploitation) {
  // kappa = 0: pure exploitation (prefer low mean).
  EXPECT_GT(lower_confidence_bound_score(0.0, 1.0, 0.0),
            lower_confidence_bound_score(1.0, 1.0, 0.0));
  // Large kappa: prefer high uncertainty even at a worse mean.
  EXPECT_GT(lower_confidence_bound_score(1.0, 2.0, 5.0),
            lower_confidence_bound_score(0.0, 0.1, 5.0));
}

TEST(Acquisition, DispatchMatchesDirectCalls) {
  EXPECT_DOUBLE_EQ(
      acquisition_score(AcquisitionKind::ExpectedImprovement, 0.1, 0.4, 0.5),
      expected_improvement(0.1, 0.4, 0.5, 0.01));
  EXPECT_DOUBLE_EQ(acquisition_score(AcquisitionKind::ProbabilityOfImprovement,
                                     0.1, 0.4, 0.5),
                   probability_of_improvement(0.1, 0.4, 0.5, 0.01));
  EXPECT_DOUBLE_EQ(
      acquisition_score(AcquisitionKind::LowerConfidenceBound, 0.1, 0.4, 0.5),
      lower_confidence_bound_score(0.1, 0.4, 2.0));
}

TEST(Acquisition, NamesAreStable) {
  EXPECT_STREQ(acquisition_name(AcquisitionKind::ExpectedImprovement), "EI");
  EXPECT_STREQ(acquisition_name(AcquisitionKind::ProbabilityOfImprovement),
               "PI");
  EXPECT_STREQ(acquisition_name(AcquisitionKind::LowerConfidenceBound), "LCB");
}

TEST(Acquisition, NegativeSigmaThrows) {
  EXPECT_THROW(expected_improvement(0.0, -1.0, 0.0), hbosim::Error);
  EXPECT_THROW(probability_of_improvement(0.0, -1.0, 0.0), hbosim::Error);
  EXPECT_THROW(lower_confidence_bound_score(0.0, -1.0, 1.0), hbosim::Error);
  EXPECT_THROW(lower_confidence_bound_score(0.0, 1.0, -1.0), hbosim::Error);
}

}  // namespace
}  // namespace hbosim::bo
