#pragma once

/// \file acquisition.hpp
/// Acquisition functions for cost *minimization*. The paper selects
/// Expected Improvement (EI) after comparing it with Probability of
/// Improvement (too conservative) and Lower Confidence Bound (needs a
/// tuned exploration parameter) — all three are implemented so the
/// ablation bench can repeat that comparison.
///
/// Every function returns a score where LARGER IS BETTER for the point
/// being considered.

namespace hbosim::bo {

enum class AcquisitionKind {
  ExpectedImprovement,
  ProbabilityOfImprovement,
  LowerConfidenceBound,
};

const char* acquisition_name(AcquisitionKind k);

/// EI for minimization: E[max(best - f(z) - xi, 0)]
///   = (best - mu - xi) Phi(u) + sigma phi(u),  u = (best - mu - xi)/sigma.
/// With sigma == 0 this degenerates to max(best - mu - xi, 0).
double expected_improvement(double mu, double sigma, double best_observed,
                            double xi = 0.0);

/// PI for minimization: Phi((best - mu - xi)/sigma).
double probability_of_improvement(double mu, double sigma,
                                  double best_observed, double xi = 0.0);

/// LCB score for minimization: -(mu - kappa * sigma) so that larger means
/// a more promising (lower, or more uncertain) point.
double lower_confidence_bound_score(double mu, double sigma, double kappa);

/// Improvement margin xi of EI/PI as the optimizer scores them.
inline constexpr double kAcquisitionXi = 0.01;
/// Exploration weight kappa of LCB as the optimizer scores it.
inline constexpr double kAcquisitionKappa = 2.0;

/// Dispatch on the kind, at kAcquisitionXi / kAcquisitionKappa.
double acquisition_score(AcquisitionKind kind, double mu, double sigma,
                         double best_observed);

}  // namespace hbosim::bo
