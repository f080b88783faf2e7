#include "hbosim/baselines/alln.hpp"

namespace hbosim::baselines {

BaselineOutcome run_alln(app::MarApp& app) {
  BaselineOutcome out;
  out.name = "AllN";
  out.triangle_ratio = 1.0;
  out.object_ratios.assign(app.scene().object_count(), 1.0);

  for (const std::string& model : app.task_models()) {
    if (app.device().supports(model, soc::Delegate::Nnapi)) {
      out.allocation.push_back(soc::Delegate::Nnapi);
    } else {
      out.allocation.push_back(app.device().best_delegate(model));
    }
  }

  app.start();
  app.apply_allocation(out.allocation);
  if (!out.object_ratios.empty()) app.apply_object_ratios(out.object_ratios);
  out.metrics = app.run_period(kSettleS);
  return out;
}

}  // namespace hbosim::baselines
