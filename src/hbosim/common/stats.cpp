#include "hbosim/common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "hbosim/common/error.hpp"

namespace hbosim {

void RunningStat::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStat::reset() { *this = RunningStat{}; }

double RunningStat::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stdev() const { return std::sqrt(variance()); }

Ewma::Ewma(double alpha) : alpha_(alpha) {
  HB_REQUIRE(alpha > 0.0 && alpha <= 1.0, "Ewma alpha must be in (0,1]");
}

void Ewma::add(double x) {
  if (!initialized_) {
    value_ = x;
    initialized_ = true;
  } else {
    value_ = alpha_ * x + (1.0 - alpha_) * value_;
  }
}

double Ewma::value() const {
  HB_REQUIRE(initialized_, "Ewma::value on empty accumulator");
  return value_;
}

double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, p);
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  HB_REQUIRE(!sorted.empty(), "percentile of an empty sample");
  HB_REQUIRE(p >= 0.0 && p <= 100.0, "percentile p must be in [0,100]");
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double percentile_select(std::vector<double>& values, double p) {
  HB_REQUIRE(!values.empty(), "percentile of an empty sample");
  HB_REQUIRE(p >= 0.0 && p <= 100.0, "percentile p must be in [0,100]");
  // percentile_sorted's rank, order statistics and interpolation.
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto at = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), at, values.end());
  const double hi = std::ceil(rank) > static_cast<double>(lo)
                        ? *std::min_element(at + 1, values.end())
                        : *at;
  return *at + (hi - *at) * (rank - static_cast<double>(lo));
}

P2Quantile::P2Quantile(double p) : p_(p) {
  HB_REQUIRE(p > 0.0 && p < 1.0, "P2Quantile quantile must be in (0,1)");
}

void P2Quantile::add(double x) {
  if (count_ < 5) {
    q_[count_++] = x;
    if (count_ == 5) {
      std::sort(q_, q_ + 5);
      for (int i = 0; i < 5; ++i) n_[i] = static_cast<double>(i + 1);
      dn_[0] = 0.0;
      dn_[1] = p_ / 2.0;
      dn_[2] = p_;
      dn_[3] = (1.0 + p_) / 2.0;
      dn_[4] = 1.0;
      for (int i = 0; i < 5; ++i) np_[i] = 1.0 + 4.0 * dn_[i];
    }
    return;
  }
  ++count_;

  // Locate the cell, clamping the extreme markers to the sample range.
  int k;
  if (x < q_[0]) {
    q_[0] = x;
    k = 0;
  } else if (x >= q_[4]) {
    q_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= q_[k + 1]) ++k;
  }
  for (int i = k + 1; i < 5; ++i) n_[i] += 1.0;
  for (int i = 0; i < 5; ++i) np_[i] += dn_[i];

  // Nudge the three interior markers toward their desired positions:
  // piecewise-parabolic (P²) height prediction, falling back to linear
  // when the parabola would break marker monotonicity.
  for (int i = 1; i <= 3; ++i) {
    const double d = np_[i] - n_[i];
    if ((d >= 1.0 && n_[i + 1] - n_[i] > 1.0) ||
        (d <= -1.0 && n_[i - 1] - n_[i] < -1.0)) {
      const double s = d >= 0.0 ? 1.0 : -1.0;
      const double qp =
          q_[i] + s / (n_[i + 1] - n_[i - 1]) *
                      ((n_[i] - n_[i - 1] + s) * (q_[i + 1] - q_[i]) /
                           (n_[i + 1] - n_[i]) +
                       (n_[i + 1] - n_[i] - s) * (q_[i] - q_[i - 1]) /
                           (n_[i] - n_[i - 1]));
      if (q_[i - 1] < qp && qp < q_[i + 1]) {
        q_[i] = qp;
      } else {
        const int j = i + static_cast<int>(s);
        q_[i] += s * (q_[j] - q_[i]) / (n_[j] - n_[i]);
      }
      n_[i] += s;
    }
  }
}

double P2Quantile::value() const {
  HB_REQUIRE(count_ > 0, "P2Quantile::value on an empty sketch");
  if (count_ < 5) {
    // Exact while the sample still fits in the marker array: same
    // interpolation as percentile().
    std::vector<double> sorted(q_, q_ + count_);
    std::sort(sorted.begin(), sorted.end());
    return percentile_sorted(sorted, p_ * 100.0);
  }
  return q_[2];
}

Summary summarize(std::vector<double> values) {
  Summary out;
  out.count = values.size();
  if (values.empty()) return out;
  // The mean in the caller's order, before selection reorders the sample.
  double acc = 0.0;
  for (double v : values) acc += v;
  out.mean = acc / static_cast<double>(values.size());
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  out.min = *lo;
  out.max = *hi;
  out.p50 = percentile_select(values, 50.0);
  out.p90 = percentile_select(values, 90.0);
  out.p95 = percentile_select(values, 95.0);
  out.p99 = percentile_select(values, 99.0);
  return out;
}

void StreamingSummary::add(double x) {
  stat_.add(x);
  p50_.add(x);
  p90_.add(x);
  p95_.add(x);
  p99_.add(x);
}

Summary StreamingSummary::summary() const {
  Summary out;
  out.count = stat_.count();
  if (stat_.empty()) return out;
  out.min = stat_.min();
  out.mean = stat_.mean();
  out.p50 = p50_.value();
  out.p90 = p90_.value();
  out.p95 = p95_.value();
  out.p99 = p99_.value();
  out.max = stat_.max();
  return out;
}

}  // namespace hbosim
