#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "hbosim/core/lookup_table.hpp"
#include "hbosim/edge/cache.hpp"

/// \file shared_pool.hpp
/// The fleet-wide, cross-session extension of the Section VI solution
/// lookup table. One session's converged configuration warm-starts every
/// other session that encounters the same (device, scenario, environment)
/// conditions — the paper's "optimization results should be shared across
/// users" direction, made concrete.
///
/// One writer: the fleet's main thread publishes each session's solutions
/// as it consumes the session, in session-id order, and freezes the pool
/// into an immutable PoolSnapshot at every learner barrier. Sessions only
/// read snapshots, so the pool needs no locks and a pooled fleet is
/// bitwise identical on any thread count.

namespace hbosim::fleet {

/// Identifies which solutions are mutually applicable across sessions:
/// same device model, same scenario (object set × taskset), and the same
/// quantized environmental conditions the per-session table already keys
/// on.
struct PoolKey {
  std::string device;    ///< DeviceProfile name, e.g. "Pixel 7".
  std::string scenario;  ///< e.g. "SC1/CF1".
  core::EnvironmentKey env;

  /// Flattened string form, composed with the edge cache key scheme.
  std::string str() const;
};

/// The pool's contents frozen at one barrier, keyed by PoolKey::str().
using PoolSnapshot = std::unordered_map<std::string, core::StoredSolution>;

struct SharedSolutionPoolStats {
  std::size_t size = 0;
  /// Session fetches against frozen snapshots, tallied by the fleet;
  /// SharedSolutionPool::stats() leaves them 0.
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;  ///< publish() calls.
  std::uint64_t evictions = 0;

  /// Fraction of fetches served, in [0, 1]; 0 when nothing was fetched.
  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

class SharedSolutionPool {
 public:
  explicit SharedSolutionPool(std::size_t capacity = 4096) : cache_(capacity) {}

  /// On collision the lower-cost solution wins (same policy as the
  /// per-session table), and either way the key becomes the most recent.
  /// Beyond capacity the least recently published key is evicted.
  void publish(const PoolKey& key, const core::StoredSolution& solution);

  /// The current contents, frozen (never null); rebuilt only after a
  /// publish changed them.
  std::shared_ptr<const PoolSnapshot> snapshot();

  SharedSolutionPoolStats stats() const;

 private:
  edge::BasicLruCache<core::StoredSolution> cache_;
  std::uint64_t stores_ = 0;
  std::shared_ptr<const PoolSnapshot> frozen_;  ///< Null once stale.
};

}  // namespace hbosim::fleet
