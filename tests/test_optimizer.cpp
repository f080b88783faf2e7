// Tests for the Bayesian optimizer on synthetic black-box functions.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "bo_reference.hpp"
#include "hbosim/bo/optimizer.hpp"
#include "hbosim/common/error.hpp"
#include "hbosim/common/mathx.hpp"
#include "hbosim/policy/prior_store.hpp"

namespace hbosim::bo {
namespace {

/// A smooth synthetic cost over the HBO domain with a known minimizer:
/// prefers c ~ (0.6, 0.1, 0.3) and x ~ 0.7.
double synthetic_cost(std::span<const double> z) {
  const std::vector<double> target = {0.6, 0.1, 0.3, 0.7};
  const double d = euclidean_distance(z, target);
  return d * d;
}

TEST(Optimizer, InitializationPhaseIsRandomFeasible) {
  BayesianOptimizer opt(SimplexBoxSpace(3, 0.2, 1.0));
  Rng rng(1);
  EXPECT_TRUE(opt.in_initialization());
  for (int i = 0; i < opt.config().n_initial; ++i) {
    const auto z = opt.suggest(rng);
    EXPECT_TRUE(opt.space().contains(z, 1e-9));
    opt.tell(z, synthetic_cost(z));
  }
  EXPECT_FALSE(opt.in_initialization());
}

TEST(Optimizer, SuggestionsStayFeasibleAfterModelKicksIn) {
  BayesianOptimizer opt(SimplexBoxSpace(3, 0.2, 1.0));
  Rng rng(2);
  for (int i = 0; i < 15; ++i) {
    const auto z = opt.suggest(rng);
    EXPECT_TRUE(opt.space().contains(z, 1e-9));
    opt.tell(z, synthetic_cost(z));
  }
}

TEST(Optimizer, BeatsTheRandomPhaseOnASmoothFunction) {
  // Property: after BO iterations, the incumbent must improve on the best
  // random initial sample (averaged over seeds to be robust).
  int improved = 0;
  for (int seed = 0; seed < 5; ++seed) {
    BayesianOptimizer opt(SimplexBoxSpace(3, 0.2, 1.0));
    Rng rng(100 + seed);
    double best_random = 1e9;
    for (int i = 0; i < opt.config().n_initial; ++i) {
      const auto z = opt.suggest(rng);
      const double c = synthetic_cost(z);
      best_random = std::min(best_random, c);
      opt.tell(z, c);
    }
    for (int i = 0; i < 15; ++i) {
      const auto z = opt.suggest(rng);
      opt.tell(z, synthetic_cost(z));
    }
    if (opt.best().cost < best_random - 1e-6) ++improved;
  }
  EXPECT_GE(improved, 4);
}

TEST(Optimizer, FindsTheNeighborhoodOfTheMinimum) {
  BayesianOptimizer opt(SimplexBoxSpace(3, 0.2, 1.0));
  Rng rng(7);
  for (int i = 0; i < 30; ++i) {
    const auto z = opt.suggest(rng);
    opt.tell(z, synthetic_cost(z));
  }
  EXPECT_LT(opt.best().cost, 0.05);  // within ~0.22 of the target point
}

TEST(Optimizer, BestTracksTheMinimumCostObservation) {
  BayesianOptimizer opt(SimplexBoxSpace(2, 0.2, 1.0));
  EXPECT_THROW(opt.best(), hbosim::Error);
  opt.tell({0.5, 0.5, 0.5}, 3.0);
  opt.tell({0.4, 0.6, 0.7}, 1.0);
  opt.tell({0.2, 0.8, 0.9}, 2.0);
  EXPECT_DOUBLE_EQ(opt.best().cost, 1.0);
  EXPECT_EQ(opt.observation_count(), 3u);
}

TEST(Optimizer, TellValidatesConstraintsAndFiniteness) {
  BayesianOptimizer opt(SimplexBoxSpace(3, 0.2, 1.0));
  EXPECT_THROW(opt.tell({0.9, 0.9, 0.9, 0.5}, 1.0), hbosim::Error);  // sum
  EXPECT_THROW(opt.tell({0.3, 0.3, 0.4, 0.05}, 1.0), hbosim::Error);  // box
  EXPECT_THROW(opt.tell({0.3, 0.3, 0.4, 0.5},
                        std::numeric_limits<double>::quiet_NaN()),
               hbosim::Error);
  EXPECT_NO_THROW(opt.tell({0.3, 0.3, 0.4, 0.5}, 1.0));
}

TEST(Optimizer, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    BayesianOptimizer opt(SimplexBoxSpace(3, 0.2, 1.0));
    Rng rng(seed);
    std::vector<double> last;
    for (int i = 0; i < 12; ++i) {
      last = opt.suggest(rng);
      opt.tell(last, synthetic_cost(last));
    }
    return last;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(Optimizer, AllKernelKindsProduceFeasibleSuggestions) {
  for (auto kind :
       {KernelKind::Matern52, KernelKind::Matern32, KernelKind::Rbf}) {
    BoConfig cfg;
    cfg.kernel = kind;
    BayesianOptimizer opt(SimplexBoxSpace(3, 0.2, 1.0), cfg);
    Rng rng(5);
    for (int i = 0; i < 10; ++i) {
      const auto z = opt.suggest(rng);
      EXPECT_TRUE(opt.space().contains(z, 1e-9));
      opt.tell(z, synthetic_cost(z));
    }
  }
}

TEST(Optimizer, AllAcquisitionsProduceFeasibleSuggestions) {
  for (auto kind : {AcquisitionKind::ExpectedImprovement,
                    AcquisitionKind::ProbabilityOfImprovement,
                    AcquisitionKind::LowerConfidenceBound}) {
    BoConfig cfg;
    cfg.acquisition = kind;
    BayesianOptimizer opt(SimplexBoxSpace(3, 0.2, 1.0), cfg);
    Rng rng(6);
    for (int i = 0; i < 10; ++i) {
      const auto z = opt.suggest(rng);
      EXPECT_TRUE(opt.space().contains(z, 1e-9));
      opt.tell(z, synthetic_cost(z));
    }
  }
}

TEST(Optimizer, ConstantCostsDoNotCrashStandardization) {
  BayesianOptimizer opt(SimplexBoxSpace(3, 0.2, 1.0));
  Rng rng(8);
  for (int i = 0; i < 10; ++i) {
    const auto z = opt.suggest(rng);
    opt.tell(z, 1.0);  // zero variance in y
  }
  EXPECT_NO_THROW(opt.suggest(rng));
}

TEST(Optimizer, PinnedBoxSearchesOnlyTheSimplex) {
  // The BNT configuration: x pinned to 1.
  BayesianOptimizer opt(SimplexBoxSpace(3, 1.0, 1.0));
  Rng rng(9);
  for (int i = 0; i < 12; ++i) {
    const auto z = opt.suggest(rng);
    EXPECT_DOUBLE_EQ(z[3], 1.0);
    opt.tell(z, synthetic_cost(z));
  }
}

/// A prior with a z-dependent mean (so adding it back to the candidate
/// scores matters), seed points, and a length-scale hint outside the
/// default grid.
class BowlPrior : public SurrogatePrior {
 public:
  void mean_many(std::span<const double> zs, std::size_t count,
                 std::span<double> out) const override {
    const std::size_t dim = zs.size() / count;
    for (std::size_t c = 0; c < count; ++c) {
      const std::span<const double> z = zs.subspan(c * dim, dim);
      out[c] = 0.5 * synthetic_cost(z) + 0.3 * z[1];
    }
  }
  double length_scale_factor() const override { return 0.45; }
  std::vector<std::vector<double>> seed_points(std::size_t) const override {
    return {{0.5, 0.2, 0.3, 0.6}, {0.2, 0.2, 0.6, 0.9}};
  }
};

/// The synthetic bowl in the 5-dim offload space (four allocation targets
/// plus the triangle ratio).
double offload_cost(std::span<const double> z) {
  const std::vector<double> target = {0.4, 0.1, 0.2, 0.3, 0.7};
  const double d = euclidean_distance(z, target);
  return d * d;
}

/// Drives the optimizer and the from-scratch reference on the same seed
/// and history for `iterations` suggests; every coordinate must agree.
void expect_matches_reference(
    const BoConfig& cfg, std::uint64_t seed, int iterations,
    const SimplexBoxSpace& space = SimplexBoxSpace(3, 0.2, 1.0),
    double (*cost_of)(std::span<const double>) = synthetic_cost) {
  BayesianOptimizer opt(space, cfg);
  Rng rng(seed);
  Rng rng_ref(seed);
  for (int i = 0; i < iterations; ++i) {
    const std::vector<double> want =
        reference::suggest(space, cfg, opt.observations(), rng_ref);
    std::vector<double> z = opt.suggest(rng);
    ASSERT_EQ(z.size(), want.size()) << "iteration " << i;
    for (std::size_t j = 0; j < z.size(); ++j)
      ASSERT_NEAR(z[j], want[j], 1e-8) << "iteration " << i << " coord " << j;
    const double cost = cost_of(z);
    opt.tell(std::move(z), cost);
  }
}

// The optimizer's cached distances, grown factors and batched scoring
// against tests/bo_reference.hpp, a full refit that rebuilds every
// length-scale GP from scratch and scores candidates one scalar posterior
// at a time. They share every generator draw; only the batched exp and
// solve may differ by ulps.
TEST(Optimizer, IncrementalMatchesFullRefitSuggestionSequence) {
  for (std::uint64_t seed : {4242u, 99u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_matches_reference(BoConfig{}, seed, 30);
  }
}

TEST(Optimizer, IncrementalMatchesAcrossKernelsAndAcquisitions) {
  for (auto kernel :
       {KernelKind::Matern52, KernelKind::Matern32, KernelKind::Rbf}) {
    for (auto acq : {AcquisitionKind::ExpectedImprovement,
                     AcquisitionKind::ProbabilityOfImprovement,
                     AcquisitionKind::LowerConfidenceBound}) {
      for (std::uint64_t seed : {4242u, 99u}) {
        SCOPED_TRACE(std::string(kernel_kind_name(kernel)) + " " +
                     acquisition_name(acq) + " seed " + std::to_string(seed));
        BoConfig cfg;
        cfg.kernel = kernel;
        cfg.acquisition = acq;
        expect_matches_reference(cfg, seed, 30);
      }
    }
  }
}

TEST(Optimizer, IncrementalMatchesFullRefitWithLearnedPrior) {
  // Seeds replace initial draws, the GP fits residuals, candidate scores
  // add the prior mean back, and the prior's hint joins the grid.
  BoConfig cfg;
  cfg.prior = std::make_shared<BowlPrior>();
  expect_matches_reference(cfg, 7, 30);

  // A fitted ScenarioPrior in the offload space, 96 support points: the
  // optimizer scores its candidates through one batched mean_many, the
  // reference calls mean() once per candidate.
  const SimplexBoxSpace offload(4, 0.2, 1.0);
  Rng rng(96);
  std::vector<std::vector<double>> zs;
  std::vector<double> costs;
  for (int i = 0; i < 96; ++i) {
    zs.push_back(offload.sample(rng));
    costs.push_back(offload_cost(zs.back()) + 0.2 * zs.back()[3]);
  }
  cfg.prior = std::make_shared<policy::ScenarioPrior>(zs, costs,
                                                      policy::PriorStoreConfig{});
  SCOPED_TRACE("ScenarioPrior, 5-dim");
  expect_matches_reference(cfg, 7, 30, offload, offload_cost);
}

TEST(Optimizer, BestMatchesFullRescan) {
  // best() is O(1) via the incumbent index; it must always agree with a
  // front-to-back scan, including the first-minimum tie rule.
  BayesianOptimizer opt(SimplexBoxSpace(3, 0.2, 1.0));
  Rng rng(11);
  for (int i = 0; i < 40; ++i) {
    const auto z = opt.space().sample(rng);
    // Coarse costs so duplicates (ties) actually occur.
    const double cost = std::floor(synthetic_cost(z) * 4.0);
    opt.tell(z, cost);
    const auto& data = opt.observations();
    std::size_t scan = 0;
    for (std::size_t k = 1; k < data.size(); ++k)
      if (data[k].cost < data[scan].cost) scan = k;
    EXPECT_EQ(opt.best().z, data[scan].z) << "after " << i + 1 << " tells";
    EXPECT_DOUBLE_EQ(opt.best().cost, data[scan].cost);
  }
}

TEST(Optimizer, InvalidConfigThrows) {
  BoConfig cfg;
  cfg.n_initial = 0;
  EXPECT_THROW(BayesianOptimizer(SimplexBoxSpace(3, 0.2, 1.0), cfg),
               hbosim::Error);
}

}  // namespace
}  // namespace hbosim::bo
