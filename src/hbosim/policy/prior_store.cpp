#include "hbosim/policy/prior_store.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "hbosim/common/error.hpp"
#include "hbosim/telemetry/telemetry.hpp"

namespace hbosim::policy {

namespace {

double sq_distance(std::span<const double> a, std::span<const double> b) {
  double d2 = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    d2 += d * d;
  }
  return d2;
}

}  // namespace

// ---------------------------------------------------------------------------
// ScenarioPrior

ScenarioPrior::ScenarioPrior(std::vector<std::vector<double>> zs,
                             std::vector<double> costs,
                             const PriorStoreConfig& cfg) {
  HB_REQUIRE(!zs.empty() && zs.size() == costs.size(),
             "prior needs matching non-empty support");
  dim_ = zs.front().size();
  costs_ = std::move(costs);
  zs_flat_.reserve(zs.size() * dim_);
  for (const std::vector<double>& z : zs) {
    HB_REQUIRE(z.size() == dim_, "inconsistent support dimension");
    zs_flat_.insert(zs_flat_.end(), z.begin(), z.end());
  }
  const std::size_t n = costs_.size();

  double sum = 0.0;
  for (double c : costs_) sum += c;
  global_mean_ = sum / static_cast<double>(n);
  inv_two_h2_ = 1.0 / (2.0 * cfg.mean_bandwidth * cfg.mean_bandwidth);

  // Length-scale hint: the median pairwise support distance, relative to
  // the kernel's default scale of 1 (the simplex-box diameter is ~1.4, so
  // the clamp keeps the hint inside the refit grid's sane range). With
  // every point coincident there is no evidence — leave "no opinion".
  if (n >= 2) {
    std::vector<double> dists;
    dists.reserve(n * (n - 1) / 2);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) {
        const double d2 =
            sq_distance({zs_flat_.data() + i * dim_, dim_},
                        {zs_flat_.data() + j * dim_, dim_});
        if (d2 > 0.0) dists.push_back(std::sqrt(d2));
      }
    if (!dists.empty()) {
      std::nth_element(dists.begin(), dists.begin() + dists.size() / 2,
                       dists.end());
      length_scale_factor_ =
          std::clamp(dists[dists.size() / 2], 0.15, 1.5);
    }
  }

  // Seed order: support indices cost-ascending (index-ascending on ties so
  // the order is a pure function of the support), keeping only points at
  // least seed_separation from every already-kept one.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (costs_[a] != costs_[b]) return costs_[a] < costs_[b];
    return a < b;
  });
  const double min_d2 = cfg.seed_separation * cfg.seed_separation;
  for (std::size_t idx : order) {
    bool distinct = true;
    for (std::size_t kept : seed_order_) {
      if (sq_distance({zs_flat_.data() + idx * dim_, dim_},
                      {zs_flat_.data() + kept * dim_, dim_}) < min_d2) {
        distinct = false;
        break;
      }
    }
    if (distinct) seed_order_.push_back(idx);
    if (seed_order_.size() >= cfg.max_seed_points) break;
  }
}

double ScenarioPrior::mean(std::span<const double> z) const {
  if (z.size() != dim_) return global_mean_;
  const std::size_t n = costs_.size();
  // Subtract the minimum distance before exponentiating: far from the
  // support every raw weight underflows to 0 and the estimate would be
  // 0/0. With the shift the nearest point always has weight 1, and the
  // estimate degrades gracefully toward it (then we blend to the global
  // mean as even the nearest point becomes remote).
  double min_d2 = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i)
    min_d2 = std::min(
        min_d2, sq_distance(z, {zs_flat_.data() + i * dim_, dim_}));
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d2 = sq_distance(z, {zs_flat_.data() + i * dim_, dim_});
    const double w = std::exp(-(d2 - min_d2) * inv_two_h2_);
    num += w * costs_[i];
    den += w;
  }
  const double local = num / den;  // den >= 1 by the shift
  // Confidence in the local estimate: how close the nearest support point
  // is, on the same kernel scale. 1 on top of data, ~0 far away.
  const double conf = std::exp(-min_d2 * inv_two_h2_);
  return conf * local + (1.0 - conf) * global_mean_;
}

std::vector<std::vector<double>> ScenarioPrior::seed_points(
    std::size_t k) const {
  std::vector<std::vector<double>> out;
  out.reserve(std::min(k, seed_order_.size()));
  for (std::size_t idx : seed_order_) {
    if (out.size() >= k) break;
    out.emplace_back(zs_flat_.begin() + idx * dim_,
                     zs_flat_.begin() + (idx + 1) * dim_);
  }
  return out;
}

// ---------------------------------------------------------------------------
// PriorSnapshot

std::shared_ptr<const ScenarioPrior> PriorSnapshot::find(
    const PriorKey& key) const {
  if (auto it = exact_.find(key); it != exact_.end()) return it->second;
  if (auto it = pooled_.find({key.device, key.scenario}); it != pooled_.end())
    return it->second;
  return nullptr;
}

std::shared_ptr<const ScenarioPrior> PriorSnapshot::find(
    const std::string& device, const std::string& scenario,
    const core::EnvironmentKey& env) const {
  return find(PriorKey{device, scenario, env});
}

// ---------------------------------------------------------------------------
// PriorStore

PriorStore::PriorStore(PriorStoreConfig cfg) : cfg_(cfg) {}

void PriorStore::Bucket::offer(std::span<const double> z, double cost,
                               std::size_t cap) {
  ++seen;
  if (zs.size() < cap) {
    zs.emplace_back(z.begin(), z.end());
    costs.push_back(cost);
    return;
  }
  // Algorithm R: keep each of the `seen` offers with probability cap/seen.
  // The replacement stream is the bucket's own seeded SplitMix64, so which
  // observations survive depends only on the offer order, never on which
  // thread produced them.
  const std::uint64_t j = reservoir.next() % seen;
  if (j < cap) {
    zs[j].assign(z.begin(), z.end());
    costs[j] = cost;
  }
}

std::uint64_t PriorStore::key_hash(const PriorKey& key) {
  // FNV-1a over the key's rendered fields: stable across runs and
  // platforms (unlike std::hash), so the per-bucket reservoir streams are
  // part of the determinism contract.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* data, std::size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  mix(key.device.data(), key.device.size());
  mix("\x1f", 1);
  mix(key.scenario.data(), key.scenario.size());
  mix("\x1f", 1);
  mix(&key.env.triangle_bucket, sizeof(key.env.triangle_bucket));
  mix(&key.env.distance_bucket, sizeof(key.env.distance_bucket));
  mix(&key.env.taskset_hash, sizeof(key.env.taskset_hash));
  return h;
}

void PriorStore::record(const PriorKey& key, std::span<const double> z,
                       double cost) {
  HB_REQUIRE(!z.empty(), "cannot record an empty configuration");
  HB_REQUIRE(std::isfinite(cost), "cannot record a non-finite cost");
  const std::uint64_t h = key_hash(key);
  std::lock_guard<std::mutex> lock(mu_);
  ++recorded_;
  auto [it, fresh] = exact_.try_emplace(key, cfg_.seed ^ h);
  if (fresh) it->second.dim = z.size();
  HB_REQUIRE(it->second.dim == z.size(), "configuration dimension changed");
  it->second.offer(z, cost, cfg_.max_observations_per_key);

  const std::pair<std::string, std::string> pool_key{key.device, key.scenario};
  auto [pit, pfresh] =
      pooled_.try_emplace(pool_key, cfg_.seed ^ (h * 0x9E3779B97F4A7C15ull));
  if (pfresh) pit->second.dim = z.size();
  if (pit->second.dim == z.size())
    pit->second.offer(z, cost, cfg_.max_observations_pooled);
}

std::shared_ptr<const PriorSnapshot> PriorStore::snapshot() const {
  HB_TRACE_SCOPE("policy", "policy.snapshot");
  auto snap = std::make_shared<PriorSnapshot>();
  std::lock_guard<std::mutex> lock(mu_);
  ++snapshots_;
  for (const auto& [key, bucket] : exact_) {
    if (bucket.costs.size() < cfg_.min_observations) continue;
    snap->exact_.emplace(
        key, std::make_shared<ScenarioPrior>(bucket.zs, bucket.costs, cfg_));
    ++fits_;
  }
  for (const auto& [key, bucket] : pooled_) {
    if (bucket.costs.size() < cfg_.min_observations) continue;
    snap->pooled_.emplace(
        key, std::make_shared<ScenarioPrior>(bucket.zs, bucket.costs, cfg_));
    ++fits_;
  }
  HB_TELEM_COUNT("policy.snapshots", 1.0);
  HB_TELEM_COUNT("policy.priors_fitted",
                 static_cast<double>(snap->prior_count()));
  return snap;
}

PriorStoreStats PriorStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PriorStoreStats s;
  s.keys = exact_.size();
  s.pooled_keys = pooled_.size();
  for (const auto& [key, bucket] : exact_) s.observations += bucket.costs.size();
  s.recorded = recorded_;
  s.fits = fits_;
  s.snapshots = snapshots_;
  return s;
}

}  // namespace hbosim::policy
