#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

/// \file metrics.hpp
/// The telemetry metrics registry: monotonic counters and fixed-bucket
/// histograms with percentile summaries.
///
/// Write-path design: every writing thread owns a private *shard* (a
/// vector of plain cells guarded by a per-shard mutex that only that
/// thread and the occasional snapshot ever take, so the lock is
/// uncontended and stays on the futex fast path). snapshot() aggregates
/// all shards under the registry lock.

namespace hbosim::telemetry {

namespace detail {
/// Emit `s` as a quoted, escaped JSON string (shared by the metrics and
/// trace exporters).
void write_json_string(std::ostream& os, std::string_view s);
}  // namespace detail

using MetricId = std::uint32_t;

enum class MetricKind : std::uint8_t { Counter, Histogram };

/// Aggregated view of one histogram. Percentiles are linearly
/// interpolated within the owning bucket and clamped to the observed
/// min/max, so exact-boundary distributions report exact values.
struct HistogramSummary {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  /// Upper bounds of the finite buckets; counts has one extra overflow slot.
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;

  double mean() const {
    return count ? sum / static_cast<double>(count) : 0.0;
  }
};

/// One metric in a snapshot.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  double value = 0.0;        ///< Counter total.
  std::uint64_t count = 0;   ///< Counter add() calls.
  HistogramSummary hist;     ///< Populated for histograms.
};

struct MetricsSnapshot {
  std::vector<MetricValue> metrics;  ///< Sorted by name.

  /// `{"counters": {...}, "histograms": {...}}`.
  void write_json(std::ostream& os) const;

  /// Convenience lookup; nullptr if absent.
  const MetricValue* find(std::string_view name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register (or look up) a metric by name. Re-registering the same name
  /// with the same kind returns the existing id; a kind mismatch throws.
  MetricId counter(std::string_view name);
  MetricId histogram(std::string_view name, std::vector<double> bounds);

  /// Log-spaced microsecond buckets, 1 us .. 10 s (for latency histograms).
  static const std::vector<double>& default_us_buckets();

  /// Monotonic add to a counter (delta must be >= 0).
  void add(MetricId id, double delta = 1.0);
  /// Record one observation into a histogram.
  void observe(MetricId id, double value);

  /// Aggregate every shard. Safe to call while writers are active (each
  /// shard is locked briefly); the result is a consistent per-shard view.
  MetricsSnapshot snapshot() const;

 private:
  struct Cell {
    double sum = 0.0;
    std::uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    std::vector<std::uint64_t> buckets;  ///< Histograms only.
  };
  struct Shard {
    mutable std::mutex mu;
    std::vector<Cell> cells;  ///< Indexed by MetricId, grown on demand.
  };
  struct Descriptor {
    std::string name;
    MetricKind kind;
    std::vector<double> bounds;  ///< Histograms only.
  };

  MetricId register_metric(std::string_view name, MetricKind kind,
                           std::vector<double> bounds);
  Shard& shard_for_this_thread();
  Cell& cell(Shard& shard, MetricId id);

  const std::uint64_t registry_id_;  ///< Process-unique, for TLS caching.
  mutable std::mutex mu_;
  /// Deque, not vector: observe() reads a descriptor's bounds after
  /// releasing mu_, so element addresses must survive concurrent
  /// registration (deque push_back never moves existing elements).
  std::deque<Descriptor> descriptors_;
  std::unordered_map<std::string, MetricId> by_name_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace hbosim::telemetry
