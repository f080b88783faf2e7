#include "hbosim/telemetry/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "hbosim/common/error.hpp"

namespace hbosim::telemetry {

namespace {

std::atomic<std::uint64_t> g_next_registry_id{1};

/// TLS cache of (registry id -> shard). Registry ids are never reused, so
/// entries for destroyed registries are dead weight but never looked up
/// again (only the owning registry's methods consult its own id).
struct TlsShardCache {
  std::vector<std::pair<std::uint64_t, void*>> entries;
};
thread_local TlsShardCache t_shards;

/// Percentile by linear interpolation inside the owning bucket, clamped
/// to the observed [min, max].
double bucket_percentile(const HistogramSummary& h, double q) {
  if (h.count == 0) return 0.0;
  const double target = q * static_cast<double>(h.count);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < h.counts.size(); ++b) {
    const std::uint64_t prev = cum;
    cum += h.counts[b];
    if (static_cast<double>(cum) >= target && h.counts[b] > 0) {
      const double lo = b == 0 ? h.min : h.bounds[b - 1];
      const double hi = b < h.bounds.size() ? h.bounds[b] : h.max;
      const double span_frac =
          (target - static_cast<double>(prev)) /
          static_cast<double>(h.counts[b]);
      const double v = lo + (hi - lo) * span_frac;
      return std::clamp(v, h.min, h.max);
    }
  }
  return h.max;
}

}  // namespace

namespace detail {
void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}
}  // namespace detail

namespace {
using detail::write_json_string;
}  // namespace

const MetricValue* MetricsSnapshot::find(std::string_view name) const {
  for (const MetricValue& m : metrics)
    if (m.name == name) return &m;
  return nullptr;
}

void MetricsSnapshot::write_json(std::ostream& os) const {
  auto emit_group = [&](MetricKind kind, const char* label, bool first) {
    if (!first) os << ",\n";
    os << "  \"" << label << "\": {";
    bool any = false;
    for (const MetricValue& m : metrics) {
      if (m.kind != kind) continue;
      if (any) os << ",";
      any = true;
      os << "\n    ";
      write_json_string(os, m.name);
      if (kind == MetricKind::Histogram) {
        const HistogramSummary& h = m.hist;
        os << ": {\"count\": " << h.count << ", \"sum\": " << h.sum
           << ", \"mean\": " << h.mean() << ", \"min\": " << h.min
           << ", \"max\": " << h.max << ", \"p50\": " << h.p50
           << ", \"p95\": " << h.p95 << ", \"p99\": " << h.p99 << "}";
      } else {
        os << ": " << m.value;
      }
    }
    os << (any ? "\n  }" : "}");
  };
  os << "{\n";
  emit_group(MetricKind::Counter, "counters", true);
  emit_group(MetricKind::Histogram, "histograms", false);
  os << "\n}\n";
}

MetricsRegistry::MetricsRegistry()
    : registry_id_(g_next_registry_id.fetch_add(1)) {}

MetricsRegistry::~MetricsRegistry() = default;

const std::vector<double>& MetricsRegistry::default_us_buckets() {
  static const std::vector<double> buckets = {
      1,     2,     5,     10,    20,    50,    100,   200,
      500,   1e3,   2e3,   5e3,   1e4,   2e4,   5e4,   1e5,
      2e5,   5e5,   1e6,   2e6,   5e6,   1e7};
  return buckets;
}

MetricId MetricsRegistry::register_metric(std::string_view name,
                                          MetricKind kind,
                                          std::vector<double> bounds) {
  HB_REQUIRE(!name.empty(), "metric name must be non-empty");
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(std::string(name));
  if (it != by_name_.end()) {
    HB_REQUIRE(descriptors_[it->second].kind == kind,
               "metric re-registered with a different kind: " +
                   std::string(name));
    return it->second;
  }
  const MetricId id = static_cast<MetricId>(descriptors_.size());
  descriptors_.push_back(Descriptor{std::string(name), kind,
                                    std::move(bounds)});
  by_name_.emplace(std::string(name), id);
  return id;
}

MetricId MetricsRegistry::counter(std::string_view name) {
  return register_metric(name, MetricKind::Counter, {});
}

MetricId MetricsRegistry::histogram(std::string_view name,
                                    std::vector<double> bounds) {
  HB_REQUIRE(std::is_sorted(bounds.begin(), bounds.end()),
             "histogram bucket bounds must be sorted");
  HB_REQUIRE(!bounds.empty(), "histogram needs at least one bucket bound");
  return register_metric(name, MetricKind::Histogram, std::move(bounds));
}

MetricsRegistry::Shard& MetricsRegistry::shard_for_this_thread() {
  for (auto& [id, ptr] : t_shards.entries)
    if (id == registry_id_) return *static_cast<Shard*>(ptr);
  std::lock_guard<std::mutex> lock(mu_);
  shards_.push_back(std::make_unique<Shard>());
  Shard* shard = shards_.back().get();
  t_shards.entries.emplace_back(registry_id_, shard);
  return *shard;
}

MetricsRegistry::Cell& MetricsRegistry::cell(Shard& shard, MetricId id) {
  if (shard.cells.size() <= id) shard.cells.resize(id + 1);
  return shard.cells[id];
}

void MetricsRegistry::add(MetricId id, double delta) {
  HB_ASSERT(delta >= 0.0, "counters are monotonic: delta must be >= 0");
  Shard& shard = shard_for_this_thread();
  std::lock_guard<std::mutex> lock(shard.mu);
  Cell& c = cell(shard, id);
  c.sum += delta;
  ++c.count;
}

void MetricsRegistry::observe(MetricId id, double value) {
  // The bounds vector is immutable after registration and descriptors_ is
  // a deque (element addresses survive concurrent register_metric()), so
  // reading the bounds without the registry lock is safe.
  const std::vector<double>* bounds;
  {
    std::lock_guard<std::mutex> lock(mu_);
    HB_REQUIRE(id < descriptors_.size(), "unknown metric id");
    HB_REQUIRE(descriptors_[id].kind == MetricKind::Histogram,
               "observe() requires a histogram");
    bounds = &descriptors_[id].bounds;
  }
  Shard& shard = shard_for_this_thread();
  std::lock_guard<std::mutex> lock(shard.mu);
  Cell& c = cell(shard, id);
  if (c.buckets.empty()) c.buckets.assign(bounds->size() + 1, 0);
  // First bucket is value <= bounds[0]; overflow bucket catches the rest.
  const auto it = std::lower_bound(bounds->begin(), bounds->end(), value);
  ++c.buckets[static_cast<std::size_t>(it - bounds->begin())];
  if (c.count == 0) {
    c.min = value;
    c.max = value;
  } else {
    c.min = std::min(c.min, value);
    c.max = std::max(c.max, value);
  }
  c.sum += value;
  ++c.count;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot out;
  out.metrics.reserve(descriptors_.size());
  for (MetricId id = 0; id < descriptors_.size(); ++id) {
    const Descriptor& d = descriptors_[id];
    MetricValue m;
    m.name = d.name;
    m.kind = d.kind;
    if (d.kind == MetricKind::Counter) {
      for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> slock(shard->mu);
        if (id < shard->cells.size()) {
          m.value += shard->cells[id].sum;
          m.count += shard->cells[id].count;
        }
      }
    } else {
      HistogramSummary& h = m.hist;
      h.bounds = d.bounds;
      h.counts.assign(d.bounds.size() + 1, 0);
      h.min = std::numeric_limits<double>::infinity();
      h.max = -std::numeric_limits<double>::infinity();
      for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> slock(shard->mu);
        if (id >= shard->cells.size()) continue;
        const Cell& c = shard->cells[id];
        if (c.count == 0) continue;
        h.count += c.count;
        h.sum += c.sum;
        h.min = std::min(h.min, c.min);
        h.max = std::max(h.max, c.max);
        for (std::size_t b = 0; b < c.buckets.size(); ++b)
          h.counts[b] += c.buckets[b];
      }
      if (h.count == 0) {
        h.min = 0.0;
        h.max = 0.0;
      }
      h.p50 = bucket_percentile(h, 0.50);
      h.p95 = bucket_percentile(h, 0.95);
      h.p99 = bucket_percentile(h, 0.99);
    }
    out.metrics.push_back(std::move(m));
  }
  std::sort(out.metrics.begin(), out.metrics.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
  return out;
}

}  // namespace hbosim::telemetry
