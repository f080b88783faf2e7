#pragma once

#include <cstddef>
#include <limits>
#include <vector>

/// \file stats.hpp
/// Sample statistics used by the metrics pipeline: running moments,
/// percentiles, P² sketches, and the one sample summary.

namespace hbosim {

/// Welford's online mean/variance accumulator.
class RunningStat {
 public:
  void add(double x);
  void reset();

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1); 0 for n < 2.
  double stdev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exponentially weighted moving average.
class Ewma {
 public:
  /// alpha in (0, 1]: weight of the newest sample.
  explicit Ewma(double alpha);

  void add(double x);
  bool empty() const { return !initialized_; }
  double value() const;

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

/// The p-th percentile (p in [0, 100]) of `values` by linear interpolation
/// between order statistics. Throws on an empty sample or p out of range.
/// Takes the sample by value: it is sorted internally.
double percentile(std::vector<double> values, double p);

/// percentile() for a sample the caller has ALREADY sorted ascending —
/// lets one sort serve several percentile reads. Same interpolation, same
/// empty/range checks; the precondition is not re-verified.
double percentile_sorted(const std::vector<double>& sorted, double p);

/// percentile() by selection in O(n), bitwise percentile_sorted's: the
/// same two order statistics and interpolation. Reorders `values`.
double percentile_select(std::vector<double>& values, double p);

/// Streaming quantile estimate via the P² algorithm (Jain & Chlamtac,
/// CACM 1985): five markers track (min, p/2, p, (1+p)/2, max) heights and
/// are nudged by parabolic interpolation as observations arrive — O(1)
/// memory and time per sample, no retained data. The first four samples
/// are kept exactly, so value() matches percentile() exactly until the
/// sketch takes over at n == 5.
///
/// Accuracy is distribution-dependent; the documented bound (pinned by
/// tests/test_streaming_stats.cpp on sorted / reversed / constant /
/// heavy-tailed inputs) is a *rank* error: the estimate lies between the
/// exact (p-10) and (p+10) percentiles for n >= 1000. Estimates are
/// order-sensitive, so deterministic pipelines must feed samples in a
/// deterministic order (the fleet feeds in session-id order).
class P2Quantile {
 public:
  /// `p` in (0, 1), e.g. 0.99 for the 99th percentile.
  explicit P2Quantile(double p);

  void add(double x);
  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double quantile() const { return p_; }
  /// Current estimate; throws on an empty sketch.
  double value() const;

 private:
  double p_;
  std::size_t count_ = 0;
  double q_[5] = {};   ///< Marker heights (first `count_` samples if < 5).
  double n_[5] = {};   ///< Actual marker positions (1-based).
  double np_[5] = {};  ///< Desired marker positions.
  double dn_[5] = {};  ///< Desired-position increments per sample.
};

/// Min/mean/percentile summary of one sample — the one summary every
/// layer reports (fleet metrics, scheduler wait and slowdown). An empty
/// sample summarizes to all zeros with count 0.
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Summarize `values`: the mean summed in the caller's order, the
/// percentiles by percentile_select (bitwise percentile_sorted's). Takes
/// the sample by value: selection reorders it.
Summary summarize(std::vector<double> values);

/// Streaming counterpart of summarize(): exact count/min/mean/max via a
/// RunningStat, sketched p50/p90/p95/p99 via one P² estimator each. O(1)
/// memory regardless of sample count; estimates are feed-order sensitive.
class StreamingSummary {
 public:
  void add(double x);
  std::size_t count() const { return stat_.count(); }
  /// Zero summary when empty, like summarize().
  Summary summary() const;

 private:
  RunningStat stat_;
  P2Quantile p50_{0.50};
  P2Quantile p90_{0.90};
  P2Quantile p95_{0.95};
  P2Quantile p99_{0.99};
};

}  // namespace hbosim
