#pragma once

// The benchmark's own arithmetic: reported percentiles, span self time,
// worker busy fraction, and the per-layer share roll-up. Free of
// simulator types, so test_benchstats.cpp checks it on hand-built inputs.

#include <algorithm>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "hbosim/common/stats.hpp"

namespace perfbench {

inline double median(std::vector<double> v) {
  return hbosim::percentile(std::move(v), 50.0);
}

/// The highest of the reportable percentiles (99.9, 99, 90, 50) that
/// still has at least `min_beyond` of `n` samples strictly above its
/// rank, i.e. n * (1 - p/100) >= min_beyond. Empty when even the median
/// lacks that many (n < 2 * min_beyond).
inline std::optional<double> tail_percentile(std::size_t n,
                                             std::size_t min_beyond = 10) {
  // Integer arithmetic in thousandths, so 99.9 is exact.
  for (const std::size_t per_mille : {999u, 990u, 900u, 500u}) {
    if (n * (1000 - per_mille) >= min_beyond * 1000)
      return static_cast<double>(per_mille) / 10.0;
  }
  return std::nullopt;
}

/// A closed-open host-time interval [start, end), in any one unit.
struct Span {
  double start = 0.0;
  double end = 0.0;
  double duration() const { return end - start; }
};

/// A span's self time: its duration minus the part of it that its child
/// spans cover. Children may overlap one another (concurrent work) or
/// nest (a child of a child); each instant is subtracted once, and the
/// parts of children outside the parent are ignored.
inline double self_time(const Span& parent, std::vector<Span> children) {
  for (Span& c : children) {
    c.start = std::max(c.start, parent.start);
    c.end = std::min(c.end, parent.end);
  }
  std::erase_if(children, [](const Span& c) { return c.end <= c.start; });
  std::sort(children.begin(), children.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  double covered = 0.0;
  double run_start = 0.0, run_end = 0.0;
  bool open = false;
  for (const Span& c : children) {
    if (open && c.start <= run_end) {
      run_end = std::max(run_end, c.end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = c.start;
    run_end = c.end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return parent.duration() - covered;
}

/// Fraction of the fleet's worker capacity spent inside sessions:
/// sum of per-session host time / (threads * fleet wall time).
inline double worker_busy_frac(const std::vector<double>& session_walls,
                               std::size_t threads, double run_wall) {
  if (threads == 0 || !(run_wall > 0.0))
    throw std::invalid_argument("worker_busy_frac needs threads and wall > 0");
  double busy = 0.0;
  for (const double w : session_walls) busy += w;
  return busy / (static_cast<double>(threads) * run_wall);
}

/// One layer's cost inside a session: how many calls, and their summed
/// host time.
struct LayerCost {
  std::string layer;
  double calls = 0.0;
  double total = 0.0;  ///< Summed host time of the calls (same unit as host).
};

struct LayerShare {
  std::string layer;
  double calls = 0.0;
  double per_call = 0.0;  ///< total / calls (0 when no calls).
  double share = 0.0;     ///< total / host time.
};

/// Per-layer shares of `host` time (calls x time/call / host), plus a
/// final "unattributed" row holding 1 - sum of the layer shares. Layer
/// costs must be disjoint (top-level calls of the session), or the
/// unattributed share goes negative.
inline std::vector<LayerShare> share_rollup(const std::vector<LayerCost>& costs,
                                            double host) {
  if (!(host > 0.0)) throw std::invalid_argument("share_rollup needs host > 0");
  std::vector<LayerShare> out;
  double attributed = 0.0;
  for (const LayerCost& c : costs) {
    LayerShare s;
    s.layer = c.layer;
    s.calls = c.calls;
    s.per_call = c.calls > 0.0 ? c.total / c.calls : 0.0;
    s.share = c.total / host;
    attributed += s.share;
    out.push_back(s);
  }
  out.push_back(LayerShare{"unattributed", 0.0, 0.0, 1.0 - attributed});
  return out;
}

}  // namespace perfbench
