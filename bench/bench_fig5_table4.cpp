// Reproduces Fig. 5 (a: task allocation, b: average quality vs triangle
// ratio, c: average latency ratio) and Table IV (AI allocation and
// triangle-ratio comparison) for the SC1-CF1 scenario on the Pixel 7:
// HBO against SMQ, SML, BNT and AllN.
//
// Headline paper numbers this harness checks the *shape* of:
//   - SMQ matches HBO's quality but pays ~1.5x HBO's average latency;
//   - SML matches HBO's latency but HBO's quality is ~14.5% better;
//   - HBO's average latency is ~2.2x better than BNT and ~3.5x than AllN,
//     while giving up only ~13% quality vs their full-quality rendering.

#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "hbosim/baselines/alln.hpp"
#include "hbosim/baselines/bnt.hpp"
#include "hbosim/baselines/sml.hpp"
#include "hbosim/baselines/smq.hpp"
#include "hbosim/common/table.hpp"
#include "hbosim/core/controller.hpp"
#include "hbosim/scenario/scenarios.hpp"
#include "hbosim/soc/devices_builtin.hpp"

using namespace hbosim;

namespace {

struct Row {
  std::string name;
  std::vector<soc::Delegate> allocation;
  double ratio;
  double quality;
  double eps;
  double mean_ms;
};

Row row_from(const baselines::BaselineOutcome& o) {
  return Row{o.name, o.allocation, o.triangle_ratio,
             o.metrics.average_quality, o.metrics.latency_ratio,
             o.metrics.mean_task_latency_ms()};
}

}  // namespace

int main() {
  benchutil::banner("Fig. 5 + Table IV",
                    "HBO vs SMQ/SML/BNT/AllN on SC1-CF1 (Pixel 7)");

  const soc::DeviceProfile device = soc::pixel7();
  const auto make = [&] {
    return scenario::make_app(device, scenario::ObjectSet::SC1,
                              scenario::TaskSet::CF1);
  };

  // --- HBO -----------------------------------------------------------------
  auto hbo_app = make();
  core::HboConfig cfg;  // paper defaults (w = 2.5, 5 + 15 iterations)
  core::HboController hbo(*hbo_app, cfg);
  const core::ActivationResult activation = hbo.run_activation();
  const core::IterationRecord& best = activation.best();
  const app::PeriodMetrics hbo_metrics = hbo_app->run_period(4.0);

  Row hbo_row{"HBO", best.allocation, best.triangle_ratio,
              hbo_metrics.average_quality, hbo_metrics.latency_ratio,
              hbo_metrics.mean_task_latency_ms()};

  // --- baselines (each on a fresh, identical app) ---------------------------
  auto smq_app = make();
  const Row smq_row = row_from(baselines::run_smq(
      *smq_app, best.object_ratios, best.triangle_ratio));

  auto sml_app = make();
  baselines::SmlConfig sml_cfg;
  sml_cfg.target_latency_ratio = hbo_metrics.latency_ratio;
  const Row sml_row = row_from(baselines::run_sml(*sml_app, sml_cfg));

  auto bnt_app = make();
  const Row bnt_row = row_from(baselines::run_bnt(*bnt_app, cfg));

  auto alln_app = make();
  const Row alln_row = row_from(baselines::run_alln(*alln_app));

  const std::vector<Row> rows = {hbo_row, smq_row, sml_row, bnt_row, alln_row};

  // --- Table IV: allocation + triangle ratio --------------------------------
  benchutil::section("Table IV: AI allocation and triangle ratio comparison");
  const auto labels = hbo_app->task_labels();
  std::vector<std::string> header = {"AI Model/Experiment"};
  for (const Row& r : rows) header.push_back(r.name);
  TextTable table(header);
  for (std::size_t t = 0; t < labels.size(); ++t) {
    std::vector<std::string> cells = {labels[t]};
    for (const Row& r : rows)
      cells.push_back(soc::delegate_name(r.allocation[t]));
    table.add_row(cells);
  }
  std::vector<std::string> ratio_row = {"Triangle Count Ratio"};
  for (const Row& r : rows) ratio_row.push_back(TextTable::num(r.ratio, 2));
  table.add_row(ratio_row);
  table.print(std::cout);

  // --- Fig. 5b/5c: quality, ratio, latency ----------------------------------
  benchutil::section("Fig. 5b/5c: quality vs ratio, latency ratio");
  TextTable fig(std::vector<std::string>{
      "Strategy", "Triangle ratio x", "Avg quality Q", "Avg latency eps",
      "Mean task latency (ms)", "Mean latency vs HBO"});
  for (const Row& r : rows) {
    fig.add_row({r.name, TextTable::num(r.ratio, 2),
                 TextTable::num(r.quality, 3), TextTable::num(r.eps, 2),
                 TextTable::num(r.mean_ms, 1),
                 TextTable::num(r.mean_ms / hbo_row.mean_ms, 2) + "x"});
  }
  fig.print(std::cout);

  // --- paper-vs-measured recap ----------------------------------------------
  benchutil::section("Paper vs measured (shape check)");
  benchutil::recap_line(
      "SMQ latency vs HBO (same quality)", "~1.5x",
      TextTable::num(smq_row.mean_ms / hbo_row.mean_ms, 2) + "x");
  std::string quality_gain = "+";
  quality_gain += TextTable::num(
      100.0 * (hbo_row.quality - sml_row.quality) / sml_row.quality, 1);
  quality_gain += '%';
  benchutil::recap_line("HBO quality vs SML (same latency)", "+14.5%",
                        quality_gain);
  benchutil::recap_line(
      "BNT latency vs HBO", "~2.2x",
      TextTable::num(bnt_row.mean_ms / hbo_row.mean_ms, 2) + "x");
  benchutil::recap_line(
      "AllN latency vs HBO", "~3.5x",
      TextTable::num(alln_row.mean_ms / hbo_row.mean_ms, 2) + "x");
  benchutil::recap_line(
      "HBO quality sacrifice vs full-quality baselines", "~13% (1.15x)",
      TextTable::num(
          100.0 * (alln_row.quality - hbo_row.quality) / alln_row.quality, 1) +
          "%");
  benchutil::recap_line("HBO triangle ratio", "0.72",
                        TextTable::num(hbo_row.ratio, 2));
  return 0;
}
