#include "hbosim/baselines/sml.hpp"

#include "hbosim/baselines/static_alloc.hpp"
#include "hbosim/core/controller.hpp"
#include "hbosim/core/triangle_distribution.hpp"

namespace hbosim::baselines {

BaselineOutcome run_sml(app::MarApp& app, const SmlConfig& cfg) {
  BaselineOutcome out;
  out.name = "SML";
  out.allocation = static_best_allocation(app);

  app.start();
  app.apply_allocation(out.allocation);

  const std::vector<core::ObjectState> objects =
      core::HboController::object_states(app);

  // Gradually reduce x until the measured epsilon reaches the target (or
  // the floor stops us); triangles are spread with the same distributor
  // HBO uses so quality is the best achievable at each probed x.
  double x = 1.0;
  for (;;) {
    out.object_ratios = core::distribute_waterfill(objects, x);
    app.apply_object_ratios(out.object_ratios);
    out.metrics = app.run_period(SmlConfig::probe_s);
    if (out.metrics.latency_ratio <= cfg.target_latency_ratio) break;
    if (x <= core::HboConfig::r_min) break;
    x = std::max(x - SmlConfig::step, core::HboConfig::r_min);
  }
  out.triangle_ratio = x;
  out.metrics = app.run_period(kSettleS);
  return out;
}

}  // namespace hbosim::baselines
