#include "hbosim/fleet/shared_pool.hpp"

namespace hbosim::fleet {

std::string PoolKey::str() const {
  return edge::compose_key({device, scenario,
                            "tri" + std::to_string(env.triangle_bucket),
                            "dist" + std::to_string(env.distance_bucket),
                            "task" + std::to_string(env.taskset_hash)});
}

void SharedSolutionPool::publish(const PoolKey& key,
                                 const core::StoredSolution& solution) {
  ++stores_;
  const std::string k = key.str();
  // get() also refreshes the key's recency on a losing collision.
  if (const core::StoredSolution* existing = cache_.get(k)) {
    if (existing->cost <= solution.cost) return;  // keep the better entry
  }
  cache_.put(k, solution);
  frozen_.reset();
}

std::shared_ptr<const PoolSnapshot> SharedSolutionPool::snapshot() {
  if (!frozen_) {
    PoolSnapshot entries;
    cache_.for_each_entry(
        [&](const auto& k, const auto& s) { entries.emplace(k, s); });
    frozen_ = std::make_shared<const PoolSnapshot>(std::move(entries));
  }
  return frozen_;
}

SharedSolutionPoolStats SharedSolutionPool::stats() const {
  SharedSolutionPoolStats out;
  out.size = cache_.size();
  out.stores = stores_;
  out.evictions = cache_.evictions();
  return out;
}

}  // namespace hbosim::fleet
