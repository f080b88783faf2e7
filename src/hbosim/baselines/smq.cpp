#include "hbosim/baselines/smq.hpp"

#include "hbosim/baselines/static_alloc.hpp"
#include "hbosim/common/error.hpp"

namespace hbosim::baselines {

BaselineOutcome run_smq(app::MarApp& app,
                        const std::vector<double>& hbo_object_ratios,
                        double hbo_triangle_ratio) {
  HB_REQUIRE(hbo_object_ratios.size() == app.scene().object_count(),
             "SMQ requires HBO's per-object ratios for this scene");
  BaselineOutcome out;
  out.name = "SMQ";
  out.allocation = static_best_allocation(app);
  out.triangle_ratio = hbo_triangle_ratio;
  out.object_ratios = hbo_object_ratios;

  app.start();
  app.apply_allocation(out.allocation);
  app.apply_object_ratios(out.object_ratios);
  out.metrics = app.run_period(kSettleS);
  return out;
}

}  // namespace hbosim::baselines
