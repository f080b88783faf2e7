// Ablations for the design choices the paper calls out, all on SC1-CF1
// (Pixel 7):
//  1. Acquisition function: EI vs PI vs LCB. The paper picked EI after
//     finding PI "too conservative during exploration" and LCB in need of
//     a tuned parameter (Section IV-C).
//  2. Kernel smoothness: Matern-5/2 (paper, nu chosen "based on extensive
//     testing") vs Matern-3/2 vs RBF.
//  3. Triangle distributor: exact water-filling vs the paper's
//     sensitivity-ordered heuristic vs naive uniform decimation, compared
//     on the quality they extract from the same budget.
//  4. The Section VI lookup-table extension: cost of a fresh activation vs
//     re-applying a remembered solution when the environment repeats.

#include <iostream>

#include "bench_util.hpp"
#include "hbosim/common/table.hpp"
#include "hbosim/core/controller.hpp"
#include "hbosim/core/cost.hpp"
#include "hbosim/core/lookup_table.hpp"
#include "hbosim/core/triangle_distribution.hpp"
#include "hbosim/scenario/scenarios.hpp"
#include "hbosim/soc/devices_builtin.hpp"

using namespace hbosim;

namespace {

core::ActivationResult run_with(const core::HboConfig& cfg,
                                std::uint64_t app_seed = 0x5EEDu) {
  const soc::DeviceProfile device = soc::pixel7();
  auto app = scenario::make_app(device, scenario::ObjectSet::SC1,
                                scenario::TaskSet::CF1, app_seed);
  core::HboController hbo(*app, cfg);
  return hbo.run_activation();
}

void acquisition_ablation() {
  benchutil::section("Ablation 1: acquisition function (3 seeds each)");
  TextTable table(std::vector<std::string>{
      "acquisition", "mean best cost", "best", "worst"});
  for (auto kind : {bo::AcquisitionKind::ExpectedImprovement,
                    bo::AcquisitionKind::ProbabilityOfImprovement,
                    bo::AcquisitionKind::LowerConfidenceBound}) {
    double sum = 0.0;
    double best = 1e9;
    double worst = -1e9;
    for (int seed = 0; seed < 3; ++seed) {
      core::HboConfig cfg;
      cfg.bo.acquisition = kind;
      cfg.seed = 100 + 31 * seed;
      const double c = run_with(cfg).best().cost;
      sum += c;
      best = std::min(best, c);
      worst = std::max(worst, c);
    }
    table.add_row({bo::acquisition_name(kind), TextTable::num(sum / 3, 3),
                   TextTable::num(best, 3), TextTable::num(worst, 3)});
  }
  table.print(std::cout);
}

void kernel_ablation() {
  benchutil::section("Ablation 2: GP kernel (3 seeds each)");
  TextTable table(std::vector<std::string>{"kernel", "mean best cost"});
  for (auto kind : {bo::KernelKind::Matern52, bo::KernelKind::Matern32,
                    bo::KernelKind::Rbf}) {
    double sum = 0.0;
    for (int seed = 0; seed < 3; ++seed) {
      core::HboConfig cfg;
      cfg.bo.kernel = kind;
      cfg.seed = 500 + 13 * seed;
      sum += run_with(cfg).best().cost;
    }
    table.add_row({bo::kernel_kind_name(kind), TextTable::num(sum / 3, 3)});
  }
  table.print(std::cout);
}

void distributor_ablation() {
  benchutil::section(
      "Ablation 3: triangle distributor quality at equal budgets");
  const soc::DeviceProfile device = soc::pixel7();
  auto app = scenario::make_app(device, scenario::ObjectSet::SC1,
                                scenario::TaskSet::CF1);
  const auto objects = core::HboController::object_states(*app);
  TextTable table(std::vector<std::string>{
      "budget x", "uniform Q", "sensitivity Q (paper)", "water-fill Q"});
  for (double x : {0.3, 0.5, 0.72, 0.9}) {
    const std::vector<double> uniform(objects.size(), x);
    const auto sens = core::distribute_sensitivity(objects, x);
    const auto water = core::distribute_waterfill(objects, x);
    table.add_row({TextTable::num(x, 2),
                   TextTable::num(core::assignment_quality(objects, uniform), 3),
                   TextTable::num(core::assignment_quality(objects, sens), 3),
                   TextTable::num(core::assignment_quality(objects, water), 3)});
  }
  table.print(std::cout);
  std::cout << "  (water-filling is optimal for the concave objective; the\n"
               "  sensitivity heuristic should sit between it and uniform)\n";
}

void lookup_ablation() {
  benchutil::section("Ablation 4: Section VI lookup-table warm start");
  const soc::DeviceProfile device = soc::pixel7();

  // First visit: full activation, remember the solution.
  auto app1 = scenario::make_app(device, scenario::ObjectSet::SC1,
                                 scenario::TaskSet::CF1);
  core::HboConfig cfg;
  core::HboController hbo1(*app1, cfg);
  const core::ActivationResult full = hbo1.run_activation();
  core::SolutionLookupTable table;
  table.store(core::SolutionLookupTable::make_key(*app1),
              core::StoredSolution{full.best().z, full.best().cost});

  // Revisit of the same environment: apply the remembered solution.
  auto app2 = scenario::make_app(device, scenario::ObjectSet::SC1,
                                 scenario::TaskSet::CF1, /*seed=*/0xFACEu);
  app2->start();
  core::HboController hbo2(*app2, cfg);
  const auto hit = table.find(core::SolutionLookupTable::make_key(*app2));
  double warm_cost = 0.0;
  if (hit) {
    hbo2.apply_configuration(hit->z);
    app2->run_period(2.0);  // settle
    warm_cost = core::cost_of(app2->run_period(4.0), core::CostTerms{cfg.w});
  }

  const int full_periods = cfg.n_initial + cfg.n_iterations;
  TextTable t(std::vector<std::string>{"path", "control periods spent",
                                       "resulting cost"});
  t.add_row({"fresh activation", std::to_string(full_periods),
             TextTable::num(full.best().cost, 3)});
  t.add_row({"lookup-table warm start", "1",
             TextTable::num(warm_cost, 3)});
  t.print(std::cout);
  std::cout << "  hits=" << table.hits() << " misses=" << table.misses()
            << " (a warm start skips " << full_periods - 1
            << " exploration periods)\n";
}

}  // namespace

int main() {
  benchutil::banner("Ablations", "design choices called out by the paper");
  acquisition_ablation();
  kernel_ablation();
  distributor_ablation();
  lookup_ablation();
  return 0;
}
