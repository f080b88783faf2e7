#include "hbosim/core/controller.hpp"

#include <algorithm>
#include <limits>

#include "hbosim/common/error.hpp"
#include "hbosim/common/mathx.hpp"
#include "hbosim/core/cost.hpp"

namespace hbosim::core {

const IterationRecord& ActivationResult::best() const {
  HB_REQUIRE(best_index < history.size(), "empty activation result");
  return history[best_index];
}

std::vector<double> ActivationResult::best_cost_curve() const {
  std::vector<double> out;
  out.reserve(history.size());
  double best = std::numeric_limits<double>::infinity();
  for (const IterationRecord& r : history) {
    best = std::min(best, r.cost);
    out.push_back(best);
  }
  return out;
}

std::vector<double> ActivationResult::consecutive_distances() const {
  std::vector<double> out;
  for (std::size_t i = 1; i < history.size(); ++i)
    out.push_back(euclidean_distance(history[i - 1].z, history[i].z));
  return out;
}

HboController::HboController(app::MarApp& app, HboConfig cfg)
    : app_(app), cfg_(cfg), rng_(cfg.seed) {
  cfg_.validate();
}

std::size_t HboController::config_dim() const {
  return static_cast<std::size_t>(soc::kNumDelegates) +
         (cfg_.offload.enabled ? 2 : 1);
}

void HboController::ensure_allocator() {
  if (allocator_) return;
  HB_REQUIRE(!app_.tasks().empty(), "HBO needs at least one AI task");
  allocator_ = std::make_unique<HeuristicAllocator>(app_.profiles(),
                                                    app_.task_models());
}

std::vector<ObjectState> HboController::object_states(app::MarApp& app) {
  std::vector<ObjectState> out;
  for (ObjectId id : app.scene().object_ids()) {
    const render::VirtualObject& obj = app.scene().object(id);
    out.push_back(ObjectState{obj.asset().params(),
                              app.scene().effective_distance(id),
                              obj.asset().max_triangles()});
  }
  return out;
}

IterationRecord HboController::apply_configuration(
    std::span<const double> z) {
  ensure_allocator();
  HB_REQUIRE(z.size() == config_dim(),
             cfg_.offload.enabled
                 ? "configuration must be [c_1..c_N, e, x]"
                 : "configuration must be [c_1..c_N, x]");
  IterationRecord rec;
  rec.z.assign(z.begin(), z.end());
  auto [usage, x] = bo::SimplexBoxSpace::split(z);
  rec.triangle_ratio = x;

  if (cfg_.offload.enabled) {
    // The sampled simplex is CPU/GPU/NPU/edge: peel the edge coordinate
    // off (clamped to the operator cap) and renormalize the on-device
    // remainder for the unchanged 3-resource heuristic allocator — the
    // *local* workload still splits across the local accelerators in the
    // sampled proportions. Shares below min_edge_share snap to zero:
    // continuous simplex samples almost never land exactly on the
    // zero-edge face, and without the snap a session on a hostile link
    // converges to a small residual share that keeps lighting the radio
    // for nothing — the all-local corner must be *reachable*, not just
    // approachable.
    double edge = std::min(usage.back(), cfg_.offload.max_edge_share);
    if (edge < cfg_.offload.min_edge_share) edge = 0.0;
    usage.pop_back();
    double local_sum = 0.0;
    for (const double c : usage) local_sum += c;
    if (local_sum > 1e-12) {
      for (double& c : usage) c /= local_sum;
    } else {
      // Degenerate all-edge sample: the allocator still needs a valid
      // on-device split for the (1 - edge) residue of every task.
      for (double& c : usage) c = 1.0 / static_cast<double>(usage.size());
    }
    rec.edge_share = edge;

    std::vector<double> expected;
    const std::vector<TaskId> ids = app_.tasks();
    expected.reserve(ids.size());
    for (const TaskId id : ids) expected.push_back(app_.expected_ms(id));
    rec.offload_shares = offload::plan_task_shares(edge, expected);
    app_.apply_offload_shares(rec.offload_shares);
  }
  rec.usage = usage;

  const AllocationResult alloc = allocator_->allocate(usage);
  rec.allocation = alloc.delegates;
  app_.apply_allocation(alloc.delegates);

  const std::vector<ObjectState> objects = object_states(app_);
  rec.object_ratios = distribute_waterfill(objects, x);
  if (!rec.object_ratios.empty()) app_.apply_object_ratios(rec.object_ratios);
  return rec;
}

ActivationResult HboController::run_activation() {
  ensure_allocator();
  app_.start();

  // With offload enabled the Constraints 8-10 simplex grows one
  // coordinate: per-resource proportions over CPU/GPU/NPU/edge. The
  // disabled path constructs the identical 3-simplex space as always.
  const std::size_t n_simplex =
      static_cast<std::size_t>(soc::kNumDelegates) +
      (cfg_.offload.enabled ? 1 : 0);
  bo::BoConfig bo_cfg = cfg_.bo;
  bo_cfg.n_initial = cfg_.n_initial;
  bo_cfg.prior = prior_;  // null unless a policy layer injected one
  if (bo_cfg.prior && bo_cfg.prior->dim() != 0 &&
      bo_cfg.prior->dim() != n_simplex + 1) {
    // A prior fitted in the other decision space (3- vs 4-target) would
    // evaluate its mean function out of domain; fall back to flat.
    bo_cfg.prior = nullptr;
  }
  bo::BayesianOptimizer optimizer(
      bo::SimplexBoxSpace(n_simplex, cfg_.r_min, 1.0), bo_cfg);

  ActivationResult result;
  const int total_iters = cfg_.n_initial + cfg_.n_iterations;
  for (int iter = 0; iter < total_iters; ++iter) {
    const std::vector<double> z = optimizer.suggest(rng_);
    IterationRecord rec = apply_configuration(z);
    rec.index = iter;
    rec.random_init = iter < cfg_.n_initial;

    const app::PeriodMetrics metrics =
        app_.run_period(cfg_.control_period_s);
    rec.quality = metrics.average_quality;
    rec.latency_ratio = metrics.latency_ratio;
    rec.cost = cost_of(metrics,
                       CostTerms{cfg_.w, cfg_.w_energy, cfg_.market_price});
    optimizer.tell(rec.z, rec.cost);
    result.history.push_back(std::move(rec));
  }

  // "After the last iteration, the configuration that obtained the lowest
  // cost value is selected to be used until the next activation." A
  // single 2-second window is a noisy estimator, so the top few
  // candidates are re-measured once each and the re-measured winner is
  // kept (see HboConfig::selection_candidates).
  std::vector<std::size_t> order(result.history.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return result.history[a].cost < result.history[b].cost;
  });
  const std::size_t k = std::min<std::size_t>(
      static_cast<std::size_t>(cfg_.selection_candidates), order.size());
  result.best_index = order[0];
  if (k > 1) {
    double best_validated = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < k; ++i) {
      apply_configuration(result.history[order[i]].z);
      const app::PeriodMetrics m = app_.run_period(cfg_.control_period_s);
      const double c =
          cost_of(m, CostTerms{cfg_.w, cfg_.w_energy, cfg_.market_price});
      if (c < best_validated) {
        best_validated = c;
        result.best_index = order[i];
      }
    }
    result.validated_cost = best_validated;
  }
  apply_configuration(result.history[result.best_index].z);
  return result;
}

}  // namespace hbosim::core
