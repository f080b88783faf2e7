// Tests for hbosim::policy and its wiring: ScenarioPrior fitting math,
// PriorStore reservoir determinism, prior injection into the Bayesian
// optimizer, the LinUCB bandit, and the fleet's epoch-based learning —
// including the two acceptance-criteria invariants: (1) a policy layer
// that never produces a prior leaves fleet results bitwise identical to a
// policy-off fleet, and (2) policy-enabled fleets are bit-identical on 1
// thread and on 4 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "hbosim/bo/optimizer.hpp"
#include "hbosim/common/error.hpp"
#include "hbosim/fleet/fleet_simulator.hpp"
#include "hbosim/policy/bandit.hpp"
#include "hbosim/policy/bandit_session.hpp"
#include "hbosim/policy/prior_store.hpp"
#include "hbosim/scenario/scenarios.hpp"
#include "hbosim/soc/devices_builtin.hpp"

namespace hbosim {
namespace {

using policy::PriorKey;

// ---------------------------------------------------------------------------
// ScenarioPrior / PriorStore

TEST(ScenarioPrior, MeanInterpolatesSupportAndFallsBackToGlobalMean) {
  // Support on a 2-d segment: cost rises with the first coordinate.
  std::vector<std::vector<double>> zs = {
      {0.0, 0.0}, {0.5, 0.0}, {1.0, 0.0}};
  std::vector<double> costs = {0.0, 0.5, 1.0};
  policy::ScenarioPrior prior(zs, costs, {});

  // On top of a support point the estimate is dominated by it.
  EXPECT_NEAR(prior.mean(std::vector<double>{0.0, 0.0}), 0.0, 0.1);
  EXPECT_NEAR(prior.mean(std::vector<double>{1.0, 0.0}), 1.0, 0.1);
  // Between support points it interpolates monotonically.
  const double mid = prior.mean(std::vector<double>{0.5, 0.0});
  EXPECT_GT(mid, 0.2);
  EXPECT_LT(mid, 0.8);
  // Far from every support point it approaches the global mean.
  EXPECT_NEAR(prior.mean(std::vector<double>{40.0, 40.0}),
              prior.global_mean(), 1e-9);
  // Dimension mismatch degrades to the global mean, never throws.
  EXPECT_DOUBLE_EQ(prior.mean(std::vector<double>{0.5}),
                   prior.global_mean());
}

TEST(ScenarioPrior, LengthScaleFactorClampedAndSeedsCostOrdered) {
  std::vector<std::vector<double>> zs = {
      {0.0, 0.0}, {0.3, 0.0}, {0.6, 0.0}, {0.9, 0.0}, {0.0, 0.6}};
  std::vector<double> costs = {0.4, -1.0, 0.2, 0.9, 1.5};
  const policy::PriorStoreConfig cfg;
  policy::ScenarioPrior prior(zs, costs, cfg);

  const double f = prior.length_scale_factor();
  EXPECT_GE(f, 0.15);
  EXPECT_LE(f, 1.5);

  // Seeds come back best-cost-first, at most max_seed_points (4) of them.
  const auto seeds = prior.seed_points(8);
  ASSERT_EQ(seeds.size(), policy::PriorStoreConfig::max_seed_points);
  EXPECT_DOUBLE_EQ(seeds[0][0], 0.3);  // cost -1.0
  EXPECT_DOUBLE_EQ(seeds[1][0], 0.6);  // cost 0.2
  EXPECT_DOUBLE_EQ(seeds[2][0], 0.0);  // cost 0.4
  EXPECT_DOUBLE_EQ(seeds[3][0], 0.9);  // cost 0.9; 1.5 is left out
  EXPECT_EQ(prior.seed_points(1).size(), 1u);

  // Coincident points are deduplicated by the separation rule.
  std::vector<std::vector<double>> dup = {{0.5, 0.5}, {0.5, 0.5}};
  policy::ScenarioPrior dup_prior(dup, {1.0, 2.0}, cfg);
  EXPECT_EQ(dup_prior.seed_points(4).size(), 1u);
  EXPECT_DOUBLE_EQ(dup_prior.length_scale_factor(), 0.0);  // no evidence
}

/// The Nadaraya-Watson prior mean written out with std::exp, one point at
/// a time, independent of fastmath.
double reference_prior_mean(const std::vector<std::vector<double>>& zs,
                            const std::vector<double>& costs,
                            std::span<const double> z) {
  const double h = policy::PriorStoreConfig::mean_bandwidth;
  const double k = 1.0 / (2.0 * h * h);
  std::vector<double> d2(zs.size(), 0.0);
  double min_d2 = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < zs.size(); ++i) {
    for (std::size_t j = 0; j < z.size(); ++j)
      d2[i] += (z[j] - zs[i][j]) * (z[j] - zs[i][j]);
    min_d2 = std::min(min_d2, d2[i]);
  }
  double num = 0.0;
  double den = 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < zs.size(); ++i) {
    const double w = std::exp(-(d2[i] - min_d2) * k);
    num += w * costs[i];
    den += w;
    sum += costs[i];
  }
  const double conf = std::exp(-min_d2 * k);
  return conf * (num / den) +
         (1.0 - conf) * (sum / static_cast<double>(costs.size()));
}

/// n support points in [0, 1]^dim with costs in [-1, 2]; with
/// `coincident`, every other point repeats its predecessor.
std::pair<std::vector<std::vector<double>>, std::vector<double>>
random_support(std::size_t n, std::size_t dim, bool coincident, Rng& rng) {
  std::vector<std::vector<double>> zs;
  std::vector<double> costs;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> z(dim);
    for (double& v : z) v = rng.uniform(0.0, 1.0);
    if (coincident && i % 2 == 1) z = zs.back();
    zs.push_back(std::move(z));
    costs.push_back(rng.uniform(-1.0, 2.0));
  }
  return {std::move(zs), std::move(costs)};
}

// mean_many against the scalar formula, across support sizes (one point
// to the pooled cap), counts on both sides of the 64-candidate block
// edge, the HBO z-spaces (4 on device, 5 with offload) and a small one,
// coincident support points and probes so far away that the kernel's exp
// clamps at -700 and the confidence underflows to 0. The batched exp is
// within 2 ulp of std::exp and distances may contract to FMA, so entries
// agree to a few ulp of the cost scale; 1e-14 of it leaves room and still
// catches any wrong weight, order or blend.
TEST(ScenarioPrior, MeanManyMatchesTheScalarFormula) {
  const double kTol = 1e-14;
  Rng rng(2024);
  double worst = 0.0;
  for (std::size_t dim : {2u, 4u, 5u}) {
    for (std::size_t n : {1u, 6u, 96u, 256u}) {
      for (bool coincident : {false, true}) {
        const auto [zs, costs] = random_support(n, dim, coincident, rng);
        const policy::ScenarioPrior prior(zs, costs, {});
        double scale = 0.0;
        for (double c : costs) scale = std::max(scale, std::abs(c));
        for (std::size_t count : {1u, 63u, 64u, 65u, 576u}) {
          SCOPED_TRACE("dim " + std::to_string(dim) + " n " +
                       std::to_string(n) + " count " + std::to_string(count) +
                       (coincident ? " coincident" : ""));
          // Probes cycle through: on a support point, near the support,
          // and so far out that most weights clamp and the confidence is 0.
          std::vector<double> flat;
          for (std::size_t c = 0; c < count; ++c) {
            std::vector<double> z = zs[c % n];
            for (double& v : z) {
              if (c % 3 == 1) v += rng.uniform(-0.3, 0.3);
              if (c % 3 == 2) v = rng.uniform(-1e3, 1e3);
            }
            flat.insert(flat.end(), z.begin(), z.end());
          }
          std::vector<double> out(count);
          prior.mean_many(flat, count, out);
          for (std::size_t c = 0; c < count; ++c) {
            const double want = reference_prior_mean(
                zs, costs, std::span<const double>(flat).subspan(c * dim, dim));
            ASSERT_TRUE(std::isfinite(out[c])) << "entry " << c;
            worst = std::max(worst, std::abs(out[c] - want) / scale);
            ASSERT_LE(std::abs(out[c] - want), kTol * scale) << "entry " << c;
            if (c % 3 == 2) {
              EXPECT_EQ(out[c], prior.global_mean());
            }
          }
        }
      }
    }
  }
  std::ostringstream worst_text;
  worst_text << std::scientific << worst;
  RecordProperty("worst_error_over_cost_scale", worst_text.str());
}

// mean(z) is mean_many over one point, which runs the kernel's scalar
// tail; a 576-point block runs its vector body. Both must give the same
// bits at every lane position.
TEST(ScenarioPrior, MeanEqualsTheMeanManyEntryBitwise) {
  Rng rng(77);
  for (std::size_t dim : {2u, 4u, 5u}) {
    const auto [zs, costs] = random_support(96, dim, false, rng);
    const policy::ScenarioPrior prior(zs, costs, {});
    std::vector<double> flat(576 * dim);
    for (double& v : flat) v = rng.uniform(-0.2, 1.2);
    std::vector<double> out(576);
    prior.mean_many(flat, 576, out);
    for (std::size_t c = 0; c < 576; ++c) {
      const double one =
          prior.mean(std::span<const double>(flat).subspan(c * dim, dim));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(one),
                std::bit_cast<std::uint64_t>(out[c]))
          << "dim " << dim << " entry " << c;
    }
  }
  // A block of another dimension than the support gets the global mean.
  const auto [zs, costs] = random_support(8, 5, false, rng);
  const policy::ScenarioPrior prior(zs, costs, {});
  std::vector<double> out(3);
  prior.mean_many(std::vector<double>(12, 0.5), 3, out);
  for (double v : out) EXPECT_EQ(v, prior.global_mean());
  EXPECT_THROW(policy::ScenarioPrior(
                   {std::vector<double>(policy::ScenarioPrior::kMaxDim + 1)},
                   {1.0}, {}),
               Error);
}

TEST(PriorStore, RecordSnapshotAndExactOverPooledFallback) {
  policy::PriorStore store;
  const core::EnvironmentKey env_a{12, 4, 99};
  const core::EnvironmentKey env_b{13, 4, 99};
  const PriorKey key_a{"Pixel 7", "SC2/CF2", env_a};

  // Exactly min_observations (6): the fewest a key fits a prior from.
  for (int i = 0; i < 6; ++i) {
    const double t = 0.2 * i;
    store.record(key_a, std::vector<double>{t, 1.0 - t, 0.0, 0.8},
                 -1.0 + 0.1 * i);
  }
  auto snap = store.snapshot();
  // Exact prior for env_a, pooled fallback serves the unseen env_b.
  EXPECT_NE(snap->find(key_a), nullptr);
  EXPECT_NE(snap->find("Pixel 7", "SC2/CF2", env_b), nullptr);
  // Other devices/scenarios see nothing.
  EXPECT_EQ(snap->find("Galaxy S22", "SC2/CF2", env_a), nullptr);
  EXPECT_EQ(snap->find("Pixel 7", "SC1/CF1", env_a), nullptr);

  const policy::PriorStoreStats stats = store.stats();
  EXPECT_EQ(stats.keys, 1u);
  EXPECT_EQ(stats.pooled_keys, 1u);
  EXPECT_EQ(stats.observations, 6u);
  EXPECT_EQ(stats.recorded, 6u);
  EXPECT_EQ(stats.snapshots, 1u);

  // Snapshots are frozen: later records never mutate an issued snapshot.
  auto before = snap->find(key_a);
  for (int i = 0; i < 8; ++i)
    store.record(key_a, std::vector<double>{0.1, 0.2, 0.7, 0.5}, 5.0);
  EXPECT_EQ(snap->find(key_a), before);

  EXPECT_THROW(store.record(key_a, std::vector<double>{0.5}, 0.0), Error);
  // A configuration wider than a prior can fit is rejected up front.
  EXPECT_THROW(
      store.record(PriorKey{"Pixel 7", "SC9/CF9", env_a},
                   std::vector<double>(policy::ScenarioPrior::kMaxDim + 1, 0.1),
                   0.0),
      Error);
  EXPECT_THROW(
      store.record(key_a, std::vector<double>{0.1, 0.2, 0.7, 0.5},
                   std::nan("")),
      Error);
}

TEST(PriorStore, ReservoirSubsamplingIsDeterministic) {
  const PriorKey key{"Pixel 7", "SC2/CF2", {1, 2, 3}};
  auto fill = [&] {
    policy::PriorStore store;
    for (int i = 0; i < 400; ++i) {
      const double t = static_cast<double>(i) / 399.0;
      store.record(key, std::vector<double>{t, 1.0 - t, 0.0, 0.5 + 0.5 * t},
                   std::sin(7.0 * t));
    }
    return store.snapshot();
  };
  auto a = fill();
  auto b = fill();
  auto pa = a->find(key);
  auto pb = b->find(key);
  ASSERT_NE(pa, nullptr);
  ASSERT_NE(pb, nullptr);
  EXPECT_EQ(pa->support_size(),
            policy::PriorStoreConfig::max_observations_per_key);
  // Identical record streams -> bitwise identical fits.
  EXPECT_EQ(pa->global_mean(), pb->global_mean());
  EXPECT_EQ(pa->length_scale_factor(), pb->length_scale_factor());
  const std::vector<double> probe{0.25, 0.25, 0.5, 0.7};
  EXPECT_EQ(pa->mean(probe), pb->mean(probe));
}

TEST(PriorStore, KeysBelowMinObservationsFitNoPrior) {
  // A key fits a prior from min_observations (6) records on, not before.
  policy::PriorStore store;
  const PriorKey key{"Pixel 7", "SC2/CF2", {4, 2, 7}};
  const std::size_t need = policy::PriorStoreConfig::min_observations;
  auto record = [&store, &key](std::size_t i) {
    const double t = 0.1 * static_cast<double>(i);
    store.record(key, std::vector<double>{t, 0.5, 0.5 - t, 0.7}, -0.5 + t);
  };
  for (std::size_t i = 0; i + 1 < need; ++i) record(i);
  EXPECT_EQ(store.snapshot()->find(key), nullptr);
  EXPECT_EQ(store.snapshot()->prior_count(), 0u);
  record(need - 1);
  const auto snap = store.snapshot();
  ASSERT_NE(snap->find(key), nullptr);
  EXPECT_EQ(snap->find(key)->support_size(), need);
}

TEST(PriorStore, PooledBucketKeepsAtMostItsCap) {
  // Forty environments of one (device, scenario) feed one pooled bucket,
  // which keeps a reservoir of max_observations_pooled (256) of the 600
  // records; each exact key keeps all 15 of its own.
  policy::PriorStore store;
  for (int i = 0; i < 600; ++i) {
    const PriorKey key{"Pixel 7", "SC2/CF2",
                       {static_cast<std::uint64_t>(i % 40), 1, 1}};
    const double t = static_cast<double>(i) / 599.0;
    store.record(key, std::vector<double>{t, 1.0 - t, 0.0, 0.5},
                 std::cos(3.0 * t));
  }
  const auto snap = store.snapshot();
  const auto pooled = snap->find("Pixel 7", "SC2/CF2", {999, 1, 1});
  ASSERT_NE(pooled, nullptr);
  EXPECT_EQ(pooled->support_size(),
            policy::PriorStoreConfig::max_observations_pooled);
  const auto exact = snap->find(PriorKey{"Pixel 7", "SC2/CF2", {0, 1, 1}});
  ASSERT_NE(exact, nullptr);
  EXPECT_EQ(exact->support_size(), 15u);
  EXPECT_EQ(store.stats().observations, 600u);
}

// ---------------------------------------------------------------------------
// Prior injection into the Bayesian optimizer

/// A prior that knows the objective exactly: mean() is the true cost and
/// the single seed point is the optimum.
class OracleQuadraticPrior : public bo::SurrogatePrior {
 public:
  explicit OracleQuadraticPrior(std::vector<double> target)
      : target_(std::move(target)) {}
  static double cost(std::span<const double> z,
                     std::span<const double> target) {
    double d2 = 0.0;
    for (std::size_t i = 0; i < z.size(); ++i) {
      const double d = z[i] - target[i];
      d2 += d * d;
    }
    return d2;
  }
  void mean_many(std::span<const double> zs, std::size_t count,
                 std::span<double> out) const override {
    const std::size_t dim = zs.size() / count;
    for (std::size_t c = 0; c < count; ++c)
      out[c] = cost(zs.subspan(c * dim, dim), target_);
  }
  std::vector<std::vector<double>> seed_points(std::size_t k) const override {
    if (k == 0) return {};
    return {target_};
  }

 private:
  std::vector<double> target_;
};

TEST(OptimizerPrior, SeedPointsReplaceInitialDrawsAndPriorGuidesSearch) {
  const bo::SimplexBoxSpace space(3, 0.2, 1.0);
  const std::vector<double> target{0.6, 0.3, 0.1, 0.4};

  auto run = [&](std::shared_ptr<const bo::SurrogatePrior> prior) {
    bo::BoConfig cfg;
    cfg.n_initial = 3;
    cfg.prior = std::move(prior);
    bo::BayesianOptimizer opt(space, cfg);
    Rng rng(7);
    double best = 1e9;
    std::vector<double> first;
    for (int i = 0; i < 10; ++i) {
      std::vector<double> z = opt.suggest(rng);
      if (i == 0) first = z;
      const double c = OracleQuadraticPrior::cost(z, target);
      best = std::min(best, c);
      opt.tell(std::move(z), c);
    }
    return std::pair<double, std::vector<double>>(best, first);
  };

  auto [flat_best, flat_first] = run(nullptr);
  auto [oracle_best, oracle_first] =
      run(std::make_shared<OracleQuadraticPrior>(target));

  // The oracle's seed point is suggested first (target is feasible, so
  // clipping is the identity) and is itself the optimum.
  ASSERT_EQ(oracle_first.size(), target.size());
  for (std::size_t i = 0; i < target.size(); ++i)
    EXPECT_NEAR(oracle_first[i], target[i], 1e-9);
  EXPECT_NEAR(oracle_best, 0.0, 1e-12);
  // And it strictly beats the flat-prior run on the same budget/seed.
  EXPECT_LT(oracle_best, flat_best);
}

TEST(OptimizerPrior, LengthScaleHintJoinsGridOnlyWhenPositive) {
  class HintPrior : public bo::SurrogatePrior {
   public:
    explicit HintPrior(double f) : f_(f) {}
    void mean_many(std::span<const double>, std::size_t count,
                   std::span<double> out) const override {
      std::fill_n(out.begin(), count, 0.0);
    }
    double length_scale_factor() const override { return f_; }

   private:
    double f_;
  };
  const bo::SimplexBoxSpace space(3, 0.2, 1.0);
  // With or without a hint the optimizer must run; the hint only changes
  // which surrogate wins the marginal-likelihood refit. Exercise both
  // paths through several suggest/tell rounds.
  for (double f : {0.0, 0.45}) {
    bo::BoConfig cfg;
    cfg.n_initial = 2;
    cfg.prior = std::make_shared<HintPrior>(f);
    bo::BayesianOptimizer opt(space, cfg);
    Rng rng(11);
    for (int i = 0; i < 6; ++i) {
      std::vector<double> z = opt.suggest(rng);
      const double c = z[0] - z[3];
      opt.tell(std::move(z), c);
    }
    EXPECT_EQ(opt.observation_count(), 6u);
  }
}

// ---------------------------------------------------------------------------
// LinUCB bandit

TEST(Bandit, ArmGridIsFeasibleAndCoversVerticesMidpointsCentroid) {
  const auto arms = policy::make_arm_grid(0.2);
  EXPECT_EQ(arms.size(), 28u);  // 7 simplex points x 4 triangle levels
  for (const auto& z : arms) {
    ASSERT_EQ(z.size(), 4u);
    double sum = 0.0;
    for (int i = 0; i < 3; ++i) {
      EXPECT_GE(z[i], 0.0);
      sum += z[i];
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_GE(z[3], 0.2);
    EXPECT_LE(z[3], 1.0);
  }
  EXPECT_THROW(policy::make_arm_grid(0.0), Error);
}

TEST(Bandit, LearnsLinearRewardAndSelectsDeterministically) {
  policy::BanditConfig cfg;
  cfg.alpha = 0.5;
  // Three arms are enough for the synthetic task (and keep every arm
  // well-trained inside the budget; arm content is irrelevant to the
  // linear algebra under test).
  policy::LinUcbBandit bandit(
      {{1.0, 0.0, 0.0, 1.0}, {0.0, 1.0, 0.0, 1.0}, {0.0, 0.0, 1.0, 1.0}},
      cfg);

  // Synthetic task: reward depends on (arm, context feature 1). Arm 0 is
  // best when the feature is low, the last arm when it is high.
  auto reward_of = [&](std::size_t arm, double feature) {
    const double pref =
        arm == 0 ? 1.0 - feature : (arm + 1 == bandit.arm_count() ? feature : 0.3);
    return pref;
  };
  auto context_of = [](double feature) {
    std::vector<double> x(policy::kContextDim, 0.0);
    x[0] = 1.0;
    x[1] = feature;
    return x;
  };
  Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    const double feature = rng.uniform();
    const auto x = context_of(feature);
    const std::size_t arm = bandit.select(x);
    bandit.update(arm, x, reward_of(arm, feature));
  }
  EXPECT_EQ(bandit.updates(), 400u);
  // After training, low-feature contexts pick arm 0 and high-feature
  // contexts pick the last arm.
  EXPECT_EQ(bandit.select(context_of(0.02)), 0u);
  EXPECT_EQ(bandit.select(context_of(0.98)), bandit.arm_count() - 1);
  // The learned point estimate tracks the synthetic reward.
  EXPECT_NEAR(bandit.predicted_reward(0, context_of(0.1)), 0.9, 0.25);

  // Selection against a frozen copy matches the original bit for bit.
  const policy::LinUcbBandit frozen(bandit);
  for (double f : {0.0, 0.25, 0.5, 0.75, 1.0})
    EXPECT_EQ(bandit.select(context_of(f)), frozen.select(context_of(f)));

  EXPECT_THROW(bandit.select(std::vector<double>{1.0}), Error);
  EXPECT_THROW(bandit.update(bandit.arm_count(), context_of(0.5), 0.0),
               Error);
}

TEST(BanditSession, OnlineModePullsArmsAndRecordsExperience) {
  const soc::DeviceProfile device = soc::find_builtin("Pixel 7");
  auto app = scenario::make_app(device, scenario::ObjectSet::SC2,
                                scenario::TaskSet::CF2, 99);
  policy::BanditSessionConfig cfg;
  cfg.hbo.control_period_s = 1.0;
  cfg.hbo.monitor_period_s = 1.0;
  policy::BanditSession session(*app, cfg);
  session.run_until(20.0);

  ASSERT_FALSE(session.experiences().empty());
  const policy::Experience& e = session.experiences().front();
  EXPECT_EQ(e.context.size(), policy::kContextDim);
  EXPECT_LT(e.arm, session.model()->arms().size());
  EXPECT_EQ(e.reward, -e.cost);
  EXPECT_EQ(session.model()->updates(), session.experiences().size());
  EXPECT_GT(session.reward_stat().count(), 0u);

  auto drained = session.drain_experiences();
  EXPECT_FALSE(drained.empty());
  EXPECT_TRUE(session.experiences().empty());
}

// ---------------------------------------------------------------------------
// Fleet integration

fleet::FleetSpec fast_fleet(std::size_t sessions, std::size_t threads) {
  fleet::FleetSpec spec;
  spec.sessions = sessions;
  spec.threads = threads;
  spec.duration_s = 14.0;
  spec.session.hbo.n_initial = 2;
  spec.session.hbo.n_iterations = 2;
  spec.session.hbo.selection_candidates = 1;
  spec.session.hbo.control_period_s = 1.0;
  spec.session.hbo.monitor_period_s = 1.0;
  spec.session.reference_periods = 2;
  spec.scenarios = {{scenario::ObjectSet::SC2, scenario::TaskSet::CF2, 1.0}};
  return spec;
}

fleet::FleetSpec prior_fleet(std::size_t sessions, std::size_t threads) {
  fleet::FleetSpec spec = fast_fleet(sessions, threads);
  spec.devices = {{"Pixel 7", 1.0}};  // concentrate traffic on few keys
  spec.policy.mode = fleet::PolicyMode::Prior;
  spec.policy.epoch_sessions = 4;
  return spec;
}

TEST(FleetPolicy, ValidateRejectsNonsense) {
  fleet::FleetSpec spec = fast_fleet(4, 1);
  spec.policy.mode = fleet::PolicyMode::Prior;
  spec.policy.epoch_sessions = 0;
  EXPECT_THROW(fleet::FleetSimulator{spec}, Error);

  spec = fast_fleet(4, 1);
  spec.policy.mode = fleet::PolicyMode::Bandit;
  spec.use_shared_pool = true;
  EXPECT_THROW(fleet::FleetSimulator{spec}, Error);

  // The pool freezes on the policy epoch even with the policy layer off.
  spec = fast_fleet(4, 1);
  spec.use_shared_pool = true;
  spec.policy.epoch_sessions = 0;
  EXPECT_THROW(fleet::FleetSimulator{spec}, Error);
}

// Bitwise-parity pin: a Prior-mode fleet whose store never fits a prior
// (its one learner barrier snapshots the empty store before any traffic)
// must reproduce the Off-mode fleet exactly — the hooks fire, find()
// returns null, and every session runs the unchanged flat-prior code path.
TEST(FleetPolicy, NullPriorsLeaveResultsBitwiseIdenticalToPolicyOff) {
  fleet::FleetSpec off = fast_fleet(12, 2);
  fleet::FleetSpec inert = fast_fleet(12, 2);
  inert.policy.mode = fleet::PolicyMode::Prior;
  inert.policy.epoch_sessions = inert.sessions;

  fleet::FleetResult a = fleet::FleetSimulator(off).run();
  fleet::FleetResult b = fleet::FleetSimulator(inert).run();
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    EXPECT_EQ(a.sessions[i].mean_quality, b.sessions[i].mean_quality);
    EXPECT_EQ(a.sessions[i].mean_latency_ratio,
              b.sessions[i].mean_latency_ratio);
    EXPECT_EQ(a.sessions[i].mean_reward, b.sessions[i].mean_reward);
    EXPECT_EQ(a.sessions[i].sim_seconds, b.sessions[i].sim_seconds);
    EXPECT_EQ(a.sessions[i].activations, b.sessions[i].activations);
    EXPECT_EQ(b.sessions[i].prior_activations, 0u);
  }
  EXPECT_TRUE(b.metrics.policy.enabled);
  EXPECT_EQ(b.metrics.policy.priors_fitted, 0u);
}

// The crown-jewel invariant, policy edition: epoch-frozen snapshots and
// the id-ordered barrier feed keep a *learning* fleet bit-identical
// across thread counts.
TEST(FleetPolicy, PriorModeIsThreadCountInvariantAndInjectsPriors) {
  const std::size_t kSessions = 16;
  fleet::FleetResult serial =
      fleet::FleetSimulator(prior_fleet(kSessions, 1)).run();
  fleet::FleetResult threaded =
      fleet::FleetSimulator(prior_fleet(kSessions, 4)).run();

  ASSERT_EQ(serial.sessions.size(), kSessions);
  ASSERT_EQ(threaded.sessions.size(), kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    const fleet::SessionResult& a = serial.sessions[i];
    const fleet::SessionResult& b = threaded.sessions[i];
    EXPECT_EQ(a.mean_quality, b.mean_quality) << "session " << i;
    EXPECT_EQ(a.mean_latency_ratio, b.mean_latency_ratio) << "session " << i;
    EXPECT_EQ(a.mean_reward, b.mean_reward) << "session " << i;
    EXPECT_EQ(a.sim_seconds, b.sim_seconds) << "session " << i;
    EXPECT_EQ(a.activations, b.activations) << "session " << i;
    EXPECT_EQ(a.prior_activations, b.prior_activations) << "session " << i;
  }
  // The layer actually did something: priors were fitted and injected.
  EXPECT_TRUE(serial.metrics.policy.enabled);
  EXPECT_EQ(serial.metrics.policy.mode, "prior");
  EXPECT_EQ(serial.metrics.policy.epochs, 4u);
  EXPECT_GT(serial.metrics.policy.priors_fitted, 0u);
  EXPECT_GT(serial.metrics.policy.prior_activations, 0u);
  EXPECT_GT(serial.metrics.policy.store_observations, 0u);
  EXPECT_EQ(serial.metrics.policy.prior_activations,
            threaded.metrics.policy.prior_activations);
  // First-epoch sessions saw an empty snapshot; injection can only start
  // in epoch 2.
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(serial.sessions[i].prior_activations, 0u);
}

// An epoch longer than the in-flight window (64 on 1 thread) is consumed,
// and so feeds the store, before it ends; every session of the epoch must
// still read the empty snapshot frozen at its barrier.
TEST(FleetPolicy, EpochLongerThanTheWindowKeepsItsFrozenSnapshot) {
  fleet::FleetSpec spec = prior_fleet(72, 1);
  spec.policy.epoch_sessions = 72;
  std::size_t fed_mid_epoch = 0;
  const fleet::FleetSimulator* sim = nullptr;
  spec.progress_every = 1;
  spec.on_progress = [&](const fleet::FleetProgress& p) {
    if (p.completed == 1)
      fed_mid_epoch = sim->prior_store()->stats().observations;
  };
  fleet::FleetSimulator learning(spec);
  sim = &learning;
  const fleet::FleetResult a = learning.run();

  fleet::FleetSpec off = prior_fleet(72, 1);
  off.policy.mode = fleet::PolicyMode::Off;
  const fleet::FleetResult b = fleet::FleetSimulator(off).run();

  EXPECT_GT(fed_mid_epoch, 0u);
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    EXPECT_EQ(a.sessions[i].mean_quality, b.sessions[i].mean_quality);
    EXPECT_EQ(a.sessions[i].mean_reward, b.sessions[i].mean_reward);
    EXPECT_EQ(a.sessions[i].sim_seconds, b.sessions[i].sim_seconds);
    EXPECT_EQ(a.sessions[i].activations, b.sessions[i].activations);
  }
  EXPECT_EQ(a.metrics.policy.prior_activations, 0u);
  EXPECT_GT(a.metrics.policy.store_observations, 0u);
  EXPECT_EQ(a.metrics.policy.epochs, 1u);
}

TEST(FleetPolicy, BanditModeIsThreadCountInvariantAndLearns) {
  auto bandit_fleet = [](std::size_t threads) {
    fleet::FleetSpec spec = fast_fleet(16, threads);
    spec.devices = {{"Pixel 7", 1.0}};
    spec.policy.mode = fleet::PolicyMode::Bandit;
    spec.policy.epoch_sessions = 4;
    return spec;
  };
  fleet::FleetResult serial = fleet::FleetSimulator(bandit_fleet(1)).run();
  fleet::FleetResult threaded = fleet::FleetSimulator(bandit_fleet(4)).run();

  ASSERT_EQ(serial.sessions.size(), threaded.sessions.size());
  for (std::size_t i = 0; i < serial.sessions.size(); ++i) {
    const fleet::SessionResult& a = serial.sessions[i];
    const fleet::SessionResult& b = threaded.sessions[i];
    EXPECT_EQ(a.mean_quality, b.mean_quality) << "session " << i;
    EXPECT_EQ(a.mean_reward, b.mean_reward) << "session " << i;
    EXPECT_EQ(a.sim_seconds, b.sim_seconds) << "session " << i;
    EXPECT_EQ(a.bandit_pulls, b.bandit_pulls) << "session " << i;
  }
  EXPECT_TRUE(serial.metrics.policy.enabled);
  EXPECT_EQ(serial.metrics.policy.mode, "bandit");
  EXPECT_GT(serial.metrics.policy.bandit_pulls, 0u);
  EXPECT_GT(serial.metrics.policy.bandit_updates, 0u);
  EXPECT_EQ(serial.metrics.policy.bandit_updates,
            threaded.metrics.policy.bandit_updates);
  EXPECT_EQ(serial.metrics.policy.bandit_pulls,
            serial.metrics.policy.bandit_updates);
}

// The bandit twin of EpochLongerThanTheWindowKeepsItsFrozenSnapshot: the
// learner is updated while the 72-session epoch is still running, yet
// every session selects arms from the untrained model copied at the
// barrier.
TEST(FleetPolicy, BanditEpochLongerThanTheWindowKeepsItsFrozenModel) {
  fleet::FleetSpec spec = fast_fleet(72, 1);
  spec.devices = {{"Pixel 7", 1.0}};
  spec.policy.mode = fleet::PolicyMode::Bandit;
  spec.policy.epoch_sessions = 72;
  std::uint64_t updated_mid_epoch = 0;
  const fleet::FleetSimulator* sim = nullptr;
  spec.progress_every = 1;
  spec.on_progress = [&](const fleet::FleetProgress& p) {
    if (p.completed == 1) updated_mid_epoch = sim->bandit()->updates();
  };
  fleet::FleetSimulator learning(spec);
  sim = &learning;
  const fleet::FleetResult result = learning.run();

  const auto untrained = std::make_shared<const policy::LinUcbBandit>(
      policy::make_arm_grid(spec.session.hbo.r_min), spec.policy.bandit);
  EXPECT_GT(updated_mid_epoch, 0u);
  ASSERT_EQ(result.sessions.size(), 72u);
  for (std::size_t i = 0; i < result.sessions.size(); ++i) {
    const fleet::SessionResult& a = result.sessions[i];
    const fleet::SessionResult b =
        learning.run_policy_session(learning.session_spec(i), nullptr,
                                    untrained)
            .result;
    EXPECT_EQ(a.mean_quality, b.mean_quality) << "session " << i;
    EXPECT_EQ(a.mean_reward, b.mean_reward) << "session " << i;
    EXPECT_EQ(a.sim_seconds, b.sim_seconds) << "session " << i;
    EXPECT_EQ(a.bandit_pulls, b.bandit_pulls) << "session " << i;
  }
  EXPECT_EQ(result.metrics.policy.epochs, 1u);
  EXPECT_EQ(result.metrics.policy.bandit_updates,
            result.metrics.policy.bandit_pulls);
}

}  // namespace
}  // namespace hbosim
