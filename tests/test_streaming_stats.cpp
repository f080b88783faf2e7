// Tests for the streaming quantile machinery behind the fleet's
// retain_results=false path: percentile_sorted and percentile_select
// agreement with percentile(), P² exactness below five samples, the
// documented P² rank error bound on adversarial inputs, and
// StreamingSummary agreement with the exact summarize().

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "hbosim/common/error.hpp"
#include "hbosim/common/rng.hpp"
#include "hbosim/common/stats.hpp"

namespace hbosim {
namespace {

TEST(PercentileSorted, MatchesPercentileOnPresortedInput) {
  Rng rng(0xC0FFEEu);
  std::vector<double> values;
  for (int i = 0; i < 257; ++i)
    values.push_back(rng.uniform(-5.0, 20.0));
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double p : {0.0, 1.0, 37.5, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(percentile_sorted(sorted, p), percentile(values, p))
        << "p = " << p;
  }
  EXPECT_THROW(percentile_sorted({}, 50.0), Error);
  EXPECT_THROW(percentile_sorted({1.0}, -0.1), Error);
}

// Selection reads the same two order statistics a full sort would, so
// every percentile is bitwise percentile_sorted's, ties and tiny samples
// included, and further reads of the reordered sample stay exact.
TEST(PercentileSelect, BitwiseEqualsSortedPercentiles) {
  Rng rng(0x5E1EC7u);
  const std::vector<double> ps = {0.0, 1.0, 37.5, 50.0, 90.0, 95.0, 99.0,
                                  100.0};
  for (const std::size_t n : {1u, 2u, 3u, 10u, 257u, 2000u}) {
    std::vector<double> values;
    for (std::size_t i = 0; i < n; ++i) {
      // Half the sample on a coarse grid, so ties are common.
      const double x = rng.uniform(0.0, 8.0);
      values.push_back(rng.uniform() < 0.5 ? std::floor(x) : x);
    }
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> reused = values;
    for (const double p : ps) {
      std::vector<double> work = values;
      EXPECT_EQ(percentile_select(work, p), percentile_sorted(sorted, p))
          << "n = " << n << ", p = " << p;
      EXPECT_EQ(percentile_select(reused, p), percentile_sorted(sorted, p))
          << "reused sample, n = " << n << ", p = " << p;
    }
  }
  std::vector<double> v = {3.0, 1.0, 2.0};
  EXPECT_THROW(percentile_select(v, 100.5), Error);
  EXPECT_THROW(percentile_select(v, -1.0), Error);
  std::vector<double> empty;
  EXPECT_THROW(percentile_select(empty, 50.0), Error);
}

TEST(P2Quantile, RejectsOutOfRangeProbability) {
  EXPECT_THROW(P2Quantile(0.0), Error);
  EXPECT_THROW(P2Quantile(1.0), Error);
  EXPECT_THROW(P2Quantile(-0.5), Error);
}

TEST(P2Quantile, ExactUntilFiveSamples) {
  P2Quantile q(0.5);
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.value(), Error);
  std::vector<double> fed;
  // Deliberately unsorted feed; below five samples value() must equal the
  // exact percentile of everything seen so far.
  for (double x : {3.0, -1.0, 7.0, 2.0}) {
    q.add(x);
    fed.push_back(x);
    EXPECT_DOUBLE_EQ(q.value(), percentile(fed, 50.0))
        << "after " << fed.size() << " samples";
  }
  EXPECT_EQ(q.count(), 4u);
  EXPECT_DOUBLE_EQ(q.quantile(), 0.5);
}

TEST(P2Quantile, ConstantInputIsExact) {
  for (double p : {0.5, 0.9, 0.99}) {
    P2Quantile q(p);
    for (int i = 0; i < 5000; ++i) q.add(42.0);
    EXPECT_DOUBLE_EQ(q.value(), 42.0) << "p = " << p;
  }
}

/// The documented accuracy contract (see P2Quantile in stats.hpp): for
/// n >= 1000 the estimate lies between the exact (p-10)th and (p+10)th
/// percentiles of the sample — a rank bound, robust to heavy tails.
void expect_within_rank_bound(const std::vector<double>& data, double p,
                              const std::string& label) {
  P2Quantile q(p);
  for (double x : data) q.add(x);
  std::vector<double> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  const double lo =
      percentile_sorted(sorted, std::max(0.0, 100.0 * p - 10.0));
  const double hi =
      percentile_sorted(sorted, std::min(100.0, 100.0 * p + 10.0));
  EXPECT_GE(q.value(), lo) << label << ", p = " << p;
  EXPECT_LE(q.value(), hi) << label << ", p = " << p;
}

TEST(P2Quantile, RankErrorBoundOnAdversarialInputs) {
  const std::size_t n = 4000;
  std::vector<double> ascending, descending, uniform, heavy;
  Rng rng(0x5EEDu);
  for (std::size_t i = 0; i < n; ++i) {
    ascending.push_back(static_cast<double>(i));
    descending.push_back(static_cast<double>(n - i));
    uniform.push_back(rng.uniform(0.0, 1.0));
    // Pareto-ish tail: a few samples dwarf the rest.
    heavy.push_back(std::pow(1.0 - rng.uniform(0.0, 0.999), -1.5));
  }
  for (double p : {0.5, 0.9, 0.99}) {
    expect_within_rank_bound(ascending, p, "sorted ascending");
    expect_within_rank_bound(descending, p, "sorted descending");
    expect_within_rank_bound(uniform, p, "uniform");
    expect_within_rank_bound(heavy, p, "heavy-tailed");
  }
}

TEST(P2Quantile, TracksUniformQuantileClosely) {
  // On a well-behaved distribution the estimate is much tighter than the
  // rank bound: p50 of U(0,1) lands within a few percent.
  Rng rng(99u);
  P2Quantile q50(0.5), q90(0.9);
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform(0.0, 1.0);
    q50.add(u);
    q90.add(u);
  }
  EXPECT_NEAR(q50.value(), 0.5, 0.03);
  EXPECT_NEAR(q90.value(), 0.9, 0.03);
}

TEST(StreamingSummary, AgreesWithExactSummarize) {
  Rng rng(0xABCDEFu);
  std::vector<double> values;
  StreamingSummary stream;
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.uniform(-2.0, 3.0);
    values.push_back(x);
    stream.add(x);
  }
  EXPECT_EQ(stream.count(), values.size());
  const Summary exact = summarize(values);
  const Summary sketched = stream.summary();
  // count/min/mean/max are exact in both paths.
  EXPECT_EQ(sketched.count, exact.count);
  EXPECT_DOUBLE_EQ(sketched.min, exact.min);
  EXPECT_DOUBLE_EQ(sketched.max, exact.max);
  EXPECT_NEAR(sketched.mean, exact.mean, 1e-9);  // Welford vs naive sum
  // Percentiles within a small fraction of the sample span.
  const double span = exact.max - exact.min;
  EXPECT_NEAR(sketched.p50, exact.p50, 0.05 * span);
  EXPECT_NEAR(sketched.p90, exact.p90, 0.05 * span);
  EXPECT_NEAR(sketched.p95, exact.p95, 0.05 * span);
  EXPECT_NEAR(sketched.p99, exact.p99, 0.05 * span);
}

TEST(StreamingSummary, EmptySummaryIsZeroed) {
  const Summary s = StreamingSummary{}.summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.p95, 0.0);
  EXPECT_EQ(s.p99, 0.0);
  EXPECT_EQ(s.max, 0.0);
}

}  // namespace
}  // namespace hbosim
