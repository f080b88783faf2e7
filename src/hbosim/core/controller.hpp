#pragma once

#include <limits>
#include <memory>
#include <vector>

#include "hbosim/app/mar_app.hpp"
#include "hbosim/bo/optimizer.hpp"
#include "hbosim/common/rng.hpp"
#include "hbosim/core/allocation.hpp"
#include "hbosim/core/config.hpp"
#include "hbosim/core/triangle_distribution.hpp"

/// \file controller.hpp
/// The HBO controller: one activation = Algorithm 1 executed for
/// n_initial + n_iterations iterations. Each iteration asks the Bayesian
/// optimizer for a configuration z = (c, x), translates it with the
/// heuristic allocator (lines 2-22) and the triangle distributor (line
/// 23), applies it to the MAR app, measures one control period, and feeds
/// the cost phi = -(Q - w*eps) back into the BO database (lines 24-26).
/// After the last iteration the lowest-cost configuration is re-applied
/// and kept until the next activation.

namespace hbosim::core {

struct IterationRecord {
  int index = 0;
  bool random_init = false;           ///< From the initialization phase?
  std::vector<double> z;              ///< [c_1..c_N, x]; with offload the
                                      ///< simplex carries a 4th (edge)
                                      ///< coordinate: [c_1..c_3, e, x].
  std::vector<double> usage;          ///< On-device c (per-delegate
                                      ///< proportions fed to the allocator).
  double triangle_ratio = 1.0;        ///< x.
  double edge_share = 0.0;            ///< Sampled (clamped) edge coordinate.
  std::vector<double> offload_shares; ///< Per-task remote fractions applied
                                      ///< (empty with offload disabled).
  std::vector<soc::Delegate> allocation;
  std::vector<double> object_ratios;  ///< Per-object decimation ratios.
  double quality = 1.0;               ///< Measured Q_t.
  double latency_ratio = 0.0;         ///< Measured epsilon_t.
  double cost = 0.0;                  ///< phi = -(Q - w*eps).
};

struct ActivationResult {
  std::vector<IterationRecord> history;
  std::size_t best_index = 0;
  /// Re-measured cost of the winning configuration from the validation
  /// pass (NaN when selection_candidates == 1 and no pass ran).
  double validated_cost = std::numeric_limits<double>::quiet_NaN();

  const IterationRecord& best() const;

  /// Running minimum of cost per iteration (Fig. 4c / Fig. 7 series).
  std::vector<double> best_cost_curve() const;

  /// Euclidean distance between consecutive z's (Fig. 6a series).
  std::vector<double> consecutive_distances() const;
};

class HboController {
 public:
  HboController(app::MarApp& app, HboConfig cfg = {});

  const HboConfig& config() const { return cfg_; }

  /// Dimension of the configuration vectors this controller searches and
  /// applies: kNumDelegates + 1 for the paper's 3-resource space, one
  /// more with offload enabled. Warm-start consumers use it to reject
  /// stored solutions from the other decision space.
  std::size_t config_dim() const;

  /// Run one full activation on the app (which must have its objects and
  /// tasks in place). Applies the best configuration before returning.
  ActivationResult run_activation();

  /// Current per-object states (effective distances, Eq. 1 parameters) —
  /// the TD input. Exposed for baselines that reuse HBO's distributor.
  static std::vector<ObjectState> object_states(app::MarApp& app);

  /// Apply one configuration (c, x) to the app without measuring:
  /// heuristic allocation + water-filled triangle distribution. Returns
  /// what was applied. Reused by the activation loop and by baselines.
  IterationRecord apply_configuration(std::span<const double> z);

  /// Learned warm-start prior injected into the next run_activation()'s
  /// Bayesian optimizer (see bo/prior.hpp). Sticky until replaced; pass
  /// nullptr to restore the flat-prior behaviour. Null keeps every
  /// activation bitwise identical to a prior-free controller.
  void set_surrogate_prior(std::shared_ptr<const bo::SurrogatePrior> prior) {
    prior_ = std::move(prior);
  }

 private:
  app::MarApp& app_;
  HboConfig cfg_;
  Rng rng_;
  std::unique_ptr<HeuristicAllocator> allocator_;
  std::shared_ptr<const bo::SurrogatePrior> prior_;

  void ensure_allocator();
};

}  // namespace hbosim::core
