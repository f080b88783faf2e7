#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hbosim/bo/prior.hpp"
#include "hbosim/common/rng.hpp"
#include "hbosim/core/lookup_table.hpp"

/// \file prior_store.hpp
/// Meta-warm-starts: the fleet's SharedSolutionPool moves *solutions*
/// across sessions; the PriorStore moves *models*. It accumulates the raw
/// (z, cost) observation history that full HBO activations produce, keyed
/// by (device, scenario, EnvironmentKey), and fits a scenario-conditioned
/// prior per key — an empirical mean function over the cost surface plus a
/// length-scale estimate — so a cold MonitoredSession starts its GP
/// surrogate near-converged instead of from a flat prior (the ROADMAP's
/// "learned policy layer" and the agent-driven direction of
/// arXiv:2508.08627).
///
/// Determinism contract (the hard part, and the point): sessions never
/// read live mutable store state. The fleet feeds record() on its main
/// thread, in session-id order, as it consumes each session, and at every
/// epoch barrier hands the next epoch's sessions an immutable
/// PriorSnapshot fitted from the state at that barrier. All fitting,
/// subsampling, and tie-breaking is a pure function of (config seed,
/// record order), so 1-thread and N-thread fleets see bit-identical
/// priors — and therefore bit-identical trajectories.

namespace hbosim::policy {

/// Which sessions' observations are mutually informative: same device
/// model, same scenario (object set x taskset), same quantized
/// environment. Mirrors fleet::PoolKey, but lives here so policy does not
/// depend on fleet.
struct PriorKey {
  std::string device;
  std::string scenario;  ///< e.g. "SC1/CF1".
  core::EnvironmentKey env;

  auto operator<=>(const PriorKey&) const = default;
};

/// The store's constants. No value here is settable; the type stays
/// because PriorStore and FleetPolicyConfig::prior take it.
struct PriorStoreConfig {
  /// Retained observations per exact (device, scenario, env) key; beyond
  /// this, seeded reservoir sampling keeps an unbiased deterministic
  /// subsample (see `seed`).
  static constexpr std::size_t max_observations_per_key = 96;
  /// Retained observations per pooled (device, scenario) fallback bucket,
  /// serving environments no exact key has covered yet.
  static constexpr std::size_t max_observations_pooled = 256;
  /// Keys with fewer observations than this fit no prior (a mean function
  /// extrapolated from two points misleads more than a flat prior).
  static constexpr std::size_t min_observations = 6;
  /// Gaussian bandwidth of the Nadaraya-Watson mean function, in z-space
  /// distance (the HBO simplex-box has diameter ~1.4).
  static constexpr double mean_bandwidth = 0.25;
  /// Seed configurations a fitted prior offers the optimizer.
  static constexpr std::size_t max_seed_points = 4;
  /// Minimum z-distance between two offered seed points (dedup).
  static constexpr double seed_separation = 0.05;
  /// Seeds the per-bucket reservoir replacement streams; every tie-break
  /// in the store derives from this and the record order, never from
  /// scheduling.
  static constexpr std::uint64_t seed = 0x9E1AC7ED5EEDull;
};

struct PriorStoreStats {
  std::size_t keys = 0;          ///< Exact keys with any retained history.
  std::size_t pooled_keys = 0;   ///< (device, scenario) fallback buckets.
  std::size_t observations = 0;  ///< Retained across all exact keys.
  std::uint64_t recorded = 0;    ///< record() calls ever.
  std::uint64_t fits = 0;        ///< Priors fitted across all snapshots.
  std::uint64_t snapshots = 0;   ///< snapshot() calls.
};

/// A fitted scenario-conditioned prior: Nadaraya-Watson empirical mean
/// over retained support observations, a median-distance length-scale
/// estimate, and the lowest-cost support points as seeds. Immutable after
/// fitting; safe for concurrent reads from any number of sessions.
class ScenarioPrior : public bo::SurrogatePrior {
 public:
  /// Fit from support observations (zs: n points of dimension dim).
  /// Requires n >= 1; callers gate on PriorStoreConfig::min_observations.
  ScenarioPrior(std::vector<std::vector<double>> zs, std::vector<double> costs,
                const PriorStoreConfig& cfg);

  /// Gaussian-kernel Nadaraya-Watson estimate of the cost at z; falls back
  /// to the global support mean far from every support point.
  double mean(std::span<const double> z) const override;

  /// Median pairwise support distance, clamped to [0.15, 1.5]; 0 with
  /// fewer than two distinct support points.
  double length_scale_factor() const override { return length_scale_factor_; }

  /// Lowest-cost support points, cost-ascending, separated by at least
  /// cfg.seed_separation.
  std::vector<std::vector<double>> seed_points(std::size_t k) const override;

  /// Dimension of the support points; lets consumers reject this prior
  /// when the active search space has a different dimension.
  std::size_t dim() const override { return dim_; }

  std::size_t support_size() const { return costs_.size(); }
  double global_mean() const { return global_mean_; }

 private:
  std::size_t dim_ = 0;
  std::vector<double> zs_flat_;  ///< support points, row-major n x dim
  std::vector<double> costs_;
  std::vector<std::size_t> seed_order_;  ///< indices, cost-ascending, deduped
  double global_mean_ = 0.0;
  double inv_two_h2_ = 0.0;  ///< 1 / (2 h^2)
  double length_scale_factor_ = 0.0;
};

/// An immutable fit of the whole store at one instant. Lookups resolve the
/// exact (device, scenario, env) prior first and fall back to the pooled
/// (device, scenario) prior, so a cold session in a never-seen environment
/// still benefits from same-scenario traffic.
class PriorSnapshot {
 public:
  std::shared_ptr<const ScenarioPrior> find(const PriorKey& key) const;
  std::shared_ptr<const ScenarioPrior> find(const std::string& device,
                                            const std::string& scenario,
                                            const core::EnvironmentKey& env) const;

  std::size_t prior_count() const { return exact_.size() + pooled_.size(); }
  bool empty() const { return exact_.empty() && pooled_.empty(); }

 private:
  friend class PriorStore;
  std::map<PriorKey, std::shared_ptr<const ScenarioPrior>> exact_;
  std::map<std::pair<std::string, std::string>,
           std::shared_ptr<const ScenarioPrior>>
      pooled_;
};

class PriorStore {
 public:
  explicit PriorStore(PriorStoreConfig cfg = {});

  /// File one observed (z, cost) under its key. Thread-safe, but fleets
  /// call it from the main thread in session-id order — the determinism
  /// contract is about the order of calls, not their locking.
  void record(const PriorKey& key, std::span<const double> z, double cost);

  /// Fit every key with enough history and freeze the result. The
  /// returned snapshot is immutable and shared; later record() calls
  /// never mutate it.
  std::shared_ptr<const PriorSnapshot> snapshot() const;

  PriorStoreStats stats() const;

 private:
  struct Bucket {
    std::size_t dim = 0;
    std::vector<std::vector<double>> zs;
    std::vector<double> costs;
    std::uint64_t seen = 0;   ///< All observations ever offered.
    SplitMix64 reservoir;     ///< Seeded per-bucket replacement stream.

    explicit Bucket(std::uint64_t seed) : reservoir(seed) {}
    void offer(std::span<const double> z, double cost, std::size_t cap);
  };

  static std::uint64_t key_hash(const PriorKey& key);

  PriorStoreConfig cfg_;
  mutable std::mutex mu_;
  std::map<PriorKey, Bucket> exact_;
  std::map<std::pair<std::string, std::string>, Bucket> pooled_;
  std::uint64_t recorded_ = 0;
  mutable std::uint64_t fits_ = 0;
  mutable std::uint64_t snapshots_ = 0;
};

}  // namespace hbosim::policy
