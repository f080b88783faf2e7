#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "hbosim/app/mar_app.hpp"

/// \file lookup_table.hpp
/// Section VI's proposed fast-path for dynamic environments: remember the
/// best configuration found for past environmental conditions (total
/// triangle count, average user-object distance, taskset) and, when the
/// current conditions are close to a remembered entry, re-apply its
/// solution instead of spending 20 control periods on a fresh Bayesian
/// activation. The paper leaves this as future work; it is implemented
/// here and evaluated by the ablation bench.

namespace hbosim::core {

/// Quantized environmental conditions.
struct EnvironmentKey {
  std::uint64_t triangle_bucket = 0;  ///< T^max / 100k, rounded.
  std::uint64_t distance_bucket = 0;  ///< Avg effective distance, 0.5 m bins.
  std::uint64_t taskset_hash = 0;     ///< Order-insensitive model-set hash.

  auto operator<=>(const EnvironmentKey&) const = default;
};

struct StoredSolution {
  std::vector<double> z;  ///< [c_1..c_N, x].
  double cost = 0.0;      ///< Cost observed when it was stored.
};

class SolutionLookupTable {
 public:
  /// Quantize the app's current conditions into a key.
  static EnvironmentKey make_key(app::MarApp& app);

  /// Remember a solution (keeps the lower-cost entry on collision).
  void store(const EnvironmentKey& key, StoredSolution solution);

  /// Unconditionally overwrite an entry — used when a remembered cost
  /// proved unachievable during warm-start validation, so the lower-cost
  /// collision policy would keep the stale entry forever.
  void replace(const EnvironmentKey& key, StoredSolution solution);

  /// Exact-bucket match.
  std::optional<StoredSolution> find(const EnvironmentKey& key) const;

  std::size_t size() const { return entries_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  std::map<EnvironmentKey, StoredSolution> entries_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
};

}  // namespace hbosim::core
