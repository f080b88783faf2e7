// Tests for kernels and Gaussian-process regression.

#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>

#include "bo_reference.hpp"
#include "hbosim/bo/gp.hpp"
#include "hbosim/common/error.hpp"
#include "hbosim/common/mathx.hpp"
#include "hbosim/common/rng.hpp"

namespace hbosim::bo {
namespace {

TEST(Matern52Kernel, EquationSevenKnownValues) {
  const Matern52 k(1.0, 1.0);
  // k(0) = sigma_f^2.
  EXPECT_DOUBLE_EQ(k.from_distance(0.0), 1.0);
  // r = 1, l = 1: (1 + sqrt5 + 5/3) exp(-sqrt5).
  const double s5 = std::sqrt(5.0);
  EXPECT_NEAR(k.from_distance(1.0), (1.0 + s5 + 5.0 / 3.0) * std::exp(-s5),
              1e-12);
}

TEST(Matern52Kernel, SymmetricAndDecaying) {
  const Matern52 k(1.0, 2.0);
  double prev = k.from_distance(0.0) + 1.0;
  for (double r = 0.0; r < 5.0; r += 0.25) {
    const std::vector<double> a = {0.0, 0.0};
    const std::vector<double> b = {r, 0.0};
    const double v = k.from_distance(euclidean_distance(a, b));
    EXPECT_DOUBLE_EQ(v, k.from_distance(euclidean_distance(b, a)));
    EXPECT_LT(v, prev);
    EXPECT_GT(v, 0.0);
    prev = v;
  }
  EXPECT_DOUBLE_EQ(k.from_distance(0.0), 4.0);  // sigma_f^2
}

TEST(Kernels, LengthScaleControlsWidth) {
  const Matern52 narrow(0.5), wide(2.0);
  EXPECT_LT(narrow.from_distance(1.0), wide.from_distance(1.0));
}

TEST(Kernels, InvalidParamsThrow) {
  EXPECT_THROW(Matern52(0.0, 1.0), hbosim::Error);
  EXPECT_THROW(Matern52(1.0, 0.0), hbosim::Error);
  EXPECT_THROW(Rbf(0.0), hbosim::Error);
  EXPECT_THROW(Matern32(-1.0), hbosim::Error);
}

TEST(Kernels, RbfAndMatern32Forms) {
  const Rbf rbf(1.0, 1.0);
  const Matern32 m32(1.0, 1.0);
  EXPECT_NEAR(rbf.from_distance(1.0), std::exp(-0.5), 1e-12);
  const double s3 = std::sqrt(3.0);
  EXPECT_NEAR(m32.from_distance(1.0), (1.0 + s3) * std::exp(-s3), 1e-12);
}

GpConfig tight() {
  GpConfig cfg;
  cfg.noise_variance = 1e-10;
  return cfg;
}

void fit(GaussianProcess& gp, const std::vector<std::vector<double>>& x,
         const std::vector<double>& y) {
  gp.fit(x, y, reference::pairwise_distances(x));
}

/// Posterior at one point through the batched path.
GaussianProcess::Prediction predict(const GaussianProcess& gp,
                                    const std::vector<double>& z) {
  GaussianProcess::Prediction out;
  GaussianProcess::BatchScratch scratch;
  gp.predict_many(z, 1, {&out, 1}, scratch);
  return out;
}

TEST(GaussianProcess, InterpolatesTrainingPointsWithZeroNoise) {
  GaussianProcess gp(std::make_unique<Matern52>(), tight());
  const std::vector<std::vector<double>> x = {{0.0}, {0.5}, {1.0}};
  const std::vector<double> y = {1.0, -1.0, 2.0};
  fit(gp, x, y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto p = predict(gp, x[i]);
    EXPECT_NEAR(p.mean, y[i], 1e-5);
    EXPECT_NEAR(p.variance, 0.0, 1e-5);
  }
}

TEST(GaussianProcess, UncertaintyGrowsAwayFromData) {
  GaussianProcess gp(std::make_unique<Matern52>(), tight());
  fit(gp, {{0.0}, {1.0}}, {0.0, 1.0});
  const auto near = predict(gp, std::vector<double>{0.5});
  const auto far = predict(gp, std::vector<double>{10.0});
  EXPECT_LT(near.variance, far.variance);
  // Far from all data the posterior reverts to the prior.
  EXPECT_NEAR(far.variance, 1.0, 1e-3);
  EXPECT_NEAR(far.mean, 0.5, 1e-3);  // the (centered) data mean
}

TEST(GaussianProcess, PredictionIsSmoothBetweenPoints) {
  GaussianProcess gp(std::make_unique<Matern52>(), tight());
  fit(gp, {{0.0}, {1.0}}, {0.0, 1.0});
  const auto mid = predict(gp, std::vector<double>{0.5});
  EXPECT_GT(mid.mean, 0.1);
  EXPECT_LT(mid.mean, 0.9);
}

TEST(GaussianProcess, NoiseSmoothsInterpolation) {
  GpConfig noisy;
  noisy.noise_variance = 0.5;
  GaussianProcess gp(std::make_unique<Matern52>(), noisy);
  fit(gp, {{0.0}, {1e-6}}, {1.0, -1.0});  // conflicting near-duplicates
  const auto p = predict(gp, {0.0});
  EXPECT_NEAR(p.mean, 0.0, 0.5);  // averages the conflict
}

TEST(GaussianProcess, LogMarginalLikelihoodPrefersTheTruth) {
  // Data drawn from a smooth function: a GP with matched length scale
  // should score higher than a wildly mismatched one.
  Rng rng(17);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i <= 20; ++i) {
    const double t = i / 20.0;
    x.push_back({t});
    y.push_back(std::sin(2.0 * t));
  }
  GpConfig cfg;
  cfg.noise_variance = 1e-6;
  GaussianProcess good(std::make_unique<Matern52>(1.0), cfg);
  GaussianProcess bad(std::make_unique<Matern52>(0.001), cfg);
  fit(good, x, y);
  fit(bad, x, y);
  EXPECT_GT(good.log_marginal_likelihood(), bad.log_marginal_likelihood());
}

TEST(GaussianProcess, ValidatesInputs) {
  GaussianProcess gp(std::make_unique<Matern52>());
  const Matrix d2(2, 2);
  EXPECT_THROW(gp.fit({}, {}, d2), hbosim::Error);
  EXPECT_THROW(gp.fit({{0.0}}, {1.0, 2.0}, d2), hbosim::Error);
  EXPECT_THROW(gp.fit({{0.0}, {0.0, 1.0}}, {1.0, 2.0}, d2), hbosim::Error);
  EXPECT_THROW(gp.fit({{0.0}, {1.0}}, {1.0, 2.0}, Matrix(1, 1)),
               hbosim::Error);  // distance matrix too small
  EXPECT_THROW(predict(gp, {0.0}), hbosim::Error);
  fit(gp, {{0.0, 0.0}}, {1.0});
  EXPECT_THROW(predict(gp, {0.0}), hbosim::Error);
  EXPECT_THROW(GaussianProcess(nullptr), hbosim::Error);
}

TEST(GaussianProcess, RefitReplacesData) {
  GaussianProcess gp(std::make_unique<Matern52>(), tight());
  fit(gp, {{0.0}}, {5.0});
  fit(gp, {{0.0}}, {-5.0});
  EXPECT_NEAR(predict(gp, {0.0}).mean, -5.0, 1e-6);
  EXPECT_EQ(gp.observation_count(), 1u);
}

TEST(Kernels, FromDistanceManyMatchesScalarWithinUlps) {
  // The batched path may use a vectorized exp that differs from libm by a
  // couple ulp; anything beyond that is a bug in the polynomial kernels.
  const Matern52 m52(0.7, 1.3);
  const Matern32 m32(0.4, 2.0);
  const Rbf rbf(1.1, 0.9);
  std::vector<double> r(257);
  hbosim::Rng rng(22);
  for (auto& v : r) v = std::abs(rng.normal()) * 3.0;
  r[0] = 0.0;
  std::vector<double> out(r.size());
  for (const Kernel* k : {static_cast<const Kernel*>(&m52),
                          static_cast<const Kernel*>(&m32),
                          static_cast<const Kernel*>(&rbf)}) {
    k->from_distance_many(r, out);
    for (std::size_t i = 0; i < r.size(); ++i) {
      const double exact = k->from_distance(r[i]);
      EXPECT_NEAR(out[i], exact, std::abs(exact) * 1e-14 + 1e-300) << r[i];
    }
  }
}

TEST(Kernels, FromDistanceMatchesClosedForm) {
  // Each family's from_distance against its formula as documented in
  // kernel.hpp, at non-unit length scales and signal deviations. At r = 0
  // every kernel returns the prior variance sigma_f^2 exactly.
  const double l52 = 0.7, sf52 = 1.3, l32 = 0.4, sf32 = 2.0, lrbf = 1.1,
               sfrbf = 0.9;
  const Matern52 m52(l52, sf52);
  const Matern32 m32(l32, sf32);
  const Rbf rbf(lrbf, sfrbf);
  EXPECT_EQ(m52.from_distance(0.0), sf52 * sf52);
  EXPECT_EQ(m32.from_distance(0.0), sf32 * sf32);
  EXPECT_EQ(rbf.from_distance(0.0), sfrbf * sfrbf);
  const double s5 = std::sqrt(5.0), s3 = std::sqrt(3.0);
  for (double r = 0.05; r < 5.0; r += 0.15) {
    const double want52 = sf52 * sf52 *
                          (1.0 + s5 * r / l52 + 5.0 * r * r / (3.0 * l52 * l52)) *
                          std::exp(-s5 * r / l52);
    const double want32 =
        sf32 * sf32 * (1.0 + s3 * r / l32) * std::exp(-s3 * r / l32);
    const double wantrbf =
        sfrbf * sfrbf * std::exp(-r * r / (2.0 * lrbf * lrbf));
    EXPECT_NEAR(m52.from_distance(r), want52, want52 * 1e-14) << r;
    EXPECT_NEAR(m32.from_distance(r), want32, want32 * 1e-14) << r;
    EXPECT_NEAR(rbf.from_distance(r), wantrbf, wantrbf * 1e-14) << r;
  }
}

/// Shared fixture data: a small anisotropic data set on the simplex-ish
/// domain the optimizer uses.
std::pair<std::vector<std::vector<double>>, std::vector<double>>
wiggly_data(std::size_t n) {
  hbosim::Rng rng(33);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> z(3);
    for (auto& v : z) v = rng.uniform();
    x.push_back(z);
    y.push_back(std::sin(3.0 * z[0]) + z[1] * z[1] - 0.5 * z[2]);
  }
  return {x, y};
}

/// The kernels every GP test below runs under: one of each family, with
/// non-unit length scales and signal deviations.
template <class Check>
void for_each_kernel(Check check) {
  check(Matern52(0.6));
  check(Matern32(0.4, 2.0));
  check(Rbf(1.1, 0.9));
}

TEST(GaussianProcess, FitWithDistanceMatrixMatchesPlainFit) {
  // fit() derives the Gram matrix from a cached distance matrix; the
  // plain fit is the reference's, which builds it pair by pair from the
  // points and factors it the same way, so the likelihood (factor and
  // alpha) must agree bitwise. The posterior is pinned within 1e-12 by
  // PredictManyMatchesPredictWithinUlps: predict_many's blocked exp and
  // solves are not bitwise equal to a scalar posterior.
  const auto [x, y] = wiggly_data(12);
  for_each_kernel([&](const auto& kernel) {
    using K = std::decay_t<decltype(kernel)>;
    GaussianProcess cached(std::make_unique<K>(kernel), GpConfig{});
    fit(cached, x, y);
    const reference::Gp plain(kernel, GpConfig{}, x, y);
    EXPECT_EQ(cached.log_marginal_likelihood(),
              plain.log_marginal_likelihood());
  });
}

TEST(GaussianProcess, PredictManyMatchesPredictWithinUlps) {
  // predict_many against the reference's scalar posterior. More
  // candidates than one block (64) to cover the blocking logic,
  // including a ragged tail.
  const auto [x, y] = wiggly_data(20);
  const std::size_t count = 150;
  hbosim::Rng rng(45);
  std::vector<double> flat(count * 3);
  for (auto& v : flat) v = rng.uniform();
  for_each_kernel([&](const auto& kernel) {
    using K = std::decay_t<decltype(kernel)>;
    GaussianProcess gp(std::make_unique<K>(kernel), GpConfig{});
    fit(gp, x, y);
    const reference::Gp ref(kernel, GpConfig{}, x, y);
    std::vector<GaussianProcess::Prediction> preds(count);
    GaussianProcess::BatchScratch scratch;
    gp.predict_many(flat, count, preds, scratch);
    for (std::size_t c = 0; c < count; ++c) {
      const auto exact =
          ref.predict(std::span<const double>(flat.data() + c * 3, 3));
      EXPECT_NEAR(preds[c].mean, exact.mean, 1e-12) << c;
      EXPECT_NEAR(preds[c].variance, exact.variance, 1e-12) << c;
    }
  });
}

TEST(GaussianProcess, IncrementalCallsValidateInputs) {
  GaussianProcess gp(std::make_unique<Matern52>(0.6), GpConfig{});
  const std::vector<double> z = {0.5, 0.5};
  const std::vector<double> row2 = {std::sqrt(0.5), std::sqrt(0.5)};
  EXPECT_THROW(gp.append_point(z, {}), hbosim::Error);  // before fit
  EXPECT_THROW(gp.set_targets(std::vector<double>{1.0}), hbosim::Error);

  fit(gp, {{0.0, 0.0}, {1.0, 0.0}}, {1.0, 2.0});
  EXPECT_THROW(gp.append_point(std::vector<double>{0.5, 0.5, 0.5}, row2),
               hbosim::Error);  // dimension mismatch
  EXPECT_THROW(gp.append_point(z, std::vector<double>{0.3}),
               hbosim::Error);  // one distance per current point
  EXPECT_THROW(gp.set_targets(std::vector<double>{1.0}), hbosim::Error);
  EXPECT_EQ(gp.observation_count(), 2u);  // rejected calls change nothing

  gp.append_point(z, row2);
  EXPECT_EQ(gp.observation_count(), 3u);
  EXPECT_THROW(gp.set_targets(std::vector<double>{1.0, 2.0}), hbosim::Error);
  EXPECT_NO_THROW(gp.set_targets(std::vector<double>{1.0, 2.0, 0.5}));
}

TEST(GaussianProcess, IncrementalFitMatchesFullRefitAtEveryStep) {
  // Grow one GP a point at a time (append_point + set_targets); a fresh
  // GP fitted from scratch on the same prefix must agree bitwise (the
  // bordered Cholesky update performs the same arithmetic as the full
  // factorization's last row).
  const auto [x, y] = wiggly_data(16);
  const Matrix dist = reference::pairwise_distances(x);
  GaussianProcess inc(std::make_unique<Matern52>(0.6), GpConfig{});
  inc.fit({x[0]}, {y[0]}, dist);
  const std::vector<double> queries_flat = {0.2, 0.5, 0.8, 0.9, 0.1, 0.4};
  GaussianProcess::BatchScratch scratch;
  for (std::size_t n = 2; n <= x.size(); ++n) {
    inc.append_point(x[n - 1], dist.row(n - 1).first(n - 1));
    inc.set_targets(std::span<const double>(y.data(), n));
    GaussianProcess full(std::make_unique<Matern52>(0.6), GpConfig{});
    full.fit({x.begin(), x.begin() + n}, {y.begin(), y.begin() + n}, dist);
    EXPECT_EQ(inc.log_marginal_likelihood(), full.log_marginal_likelihood())
        << "n=" << n;
    std::vector<GaussianProcess::Prediction> pi(2), pf(2);
    inc.predict_many(queries_flat, 2, pi, scratch);
    full.predict_many(queries_flat, 2, pf, scratch);
    for (std::size_t q = 0; q < 2; ++q) {
      EXPECT_EQ(pi[q].mean, pf[q].mean) << "n=" << n;
      EXPECT_EQ(pi[q].variance, pf[q].variance) << "n=" << n;
    }
  }
  EXPECT_EQ(inc.observation_count(), x.size());
}

TEST(GaussianProcess, SetTargetsMatchesRefitWithNewTargets) {
  const auto [x, y] = wiggly_data(10);
  GaussianProcess gp(std::make_unique<Matern52>(0.6), GpConfig{});
  fit(gp, x, y);
  // Rescale the targets (what cost re-standardization does per suggest).
  std::vector<double> y2 = y;
  for (auto& v : y2) v = v * 2.5 - 1.0;
  gp.set_targets(y2);
  GaussianProcess fresh(std::make_unique<Matern52>(0.6), GpConfig{});
  fit(fresh, x, y2);
  EXPECT_EQ(gp.log_marginal_likelihood(), fresh.log_marginal_likelihood());
  const std::vector<double> q = {0.3, 0.3, 0.4};
  EXPECT_EQ(predict(gp, q).mean, predict(fresh, q).mean);
  EXPECT_EQ(predict(gp, q).variance, predict(fresh, q).variance);
}

}  // namespace
}  // namespace hbosim::bo
