#include "hbosim/baselines/bnt.hpp"

#include "hbosim/bo/optimizer.hpp"
#include "hbosim/common/rng.hpp"
#include "hbosim/core/allocation.hpp"

namespace hbosim::baselines {

BaselineOutcome run_bnt(app::MarApp& app, const core::HboConfig& cfg) {
  cfg.validate();
  BaselineOutcome out;
  out.name = "BNT";
  out.triangle_ratio = 1.0;
  out.object_ratios.assign(app.scene().object_count(), 1.0);

  app.start();
  if (!out.object_ratios.empty()) app.apply_object_ratios(out.object_ratios);

  core::HeuristicAllocator allocator(app.profiles(), app.task_models());

  // Same optimizer as HBO, but the box coordinate is pinned to [1, 1] so
  // only the allocation proportions are searched, and the cost fed back is
  // the bare latency ratio.
  bo::BoConfig bo_cfg = cfg.bo;
  bo_cfg.n_initial = cfg.n_initial;
  bo::BayesianOptimizer optimizer(
      bo::SimplexBoxSpace(soc::kNumDelegates, 1.0, 1.0), bo_cfg);
  Rng rng(cfg.seed ^ 0xB17u);

  const int total = cfg.n_initial + cfg.n_iterations;
  for (int iter = 0; iter < total; ++iter) {
    const std::vector<double> z = optimizer.suggest(rng);
    auto [usage, x] = bo::SimplexBoxSpace::split(z);
    (void)x;  // always 1
    app.apply_allocation(allocator.allocate(usage).delegates);
    const app::PeriodMetrics m = app.run_period(cfg.control_period_s);
    optimizer.tell(z, m.latency_ratio);
  }

  auto [best_usage, best_x] = bo::SimplexBoxSpace::split(optimizer.best().z);
  (void)best_x;
  out.allocation = allocator.allocate(best_usage).delegates;
  app.apply_allocation(out.allocation);
  out.metrics = app.run_period(kSettleS);
  return out;
}

}  // namespace hbosim::baselines
