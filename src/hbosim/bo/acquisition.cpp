#include "hbosim/bo/acquisition.hpp"

#include <algorithm>

#include "hbosim/common/error.hpp"
#include "hbosim/common/mathx.hpp"

namespace hbosim::bo {

const char* acquisition_name(AcquisitionKind k) {
  switch (k) {
    case AcquisitionKind::ExpectedImprovement: return "EI";
    case AcquisitionKind::ProbabilityOfImprovement: return "PI";
    case AcquisitionKind::LowerConfidenceBound: return "LCB";
  }
  return "?";
}

double expected_improvement(double mu, double sigma, double best_observed,
                            double xi) {
  HB_REQUIRE(sigma >= 0.0, "sigma must be >= 0");
  const double improvement = best_observed - mu - xi;
  if (sigma <= 0.0) return std::max(improvement, 0.0);
  const double u = improvement / sigma;
  return improvement * norm_cdf(u) + sigma * norm_pdf(u);
}

double probability_of_improvement(double mu, double sigma,
                                  double best_observed, double xi) {
  HB_REQUIRE(sigma >= 0.0, "sigma must be >= 0");
  const double improvement = best_observed - mu - xi;
  if (sigma <= 0.0) return improvement > 0.0 ? 1.0 : 0.0;
  return norm_cdf(improvement / sigma);
}

double lower_confidence_bound_score(double mu, double sigma, double kappa) {
  HB_REQUIRE(sigma >= 0.0, "sigma must be >= 0");
  HB_REQUIRE(kappa >= 0.0, "kappa must be >= 0");
  return -(mu - kappa * sigma);
}

double acquisition_score(AcquisitionKind kind, double mu, double sigma,
                         double best_observed) {
  switch (kind) {
    case AcquisitionKind::ExpectedImprovement:
      return expected_improvement(mu, sigma, best_observed, kAcquisitionXi);
    case AcquisitionKind::ProbabilityOfImprovement:
      return probability_of_improvement(mu, sigma, best_observed,
                                        kAcquisitionXi);
    case AcquisitionKind::LowerConfidenceBound:
      return lower_confidence_bound_score(mu, sigma, kAcquisitionKappa);
  }
  HB_ASSERT(false, "unreachable acquisition kind");
  return 0.0;
}

}  // namespace hbosim::bo
