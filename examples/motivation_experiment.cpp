// Re-running the paper's motivation experiment interactively (Section
// III-B / Fig. 2b): five deeplabv3 instances on a Galaxy S22, scripted
// reallocations, then virtual objects. This example shows the low-level
// experiment API (ScriptRunner + TraceRecorder) that the figure benches
// are built on, and prints the full latency time series as CSV so it can
// be plotted directly:
//
//   ./motivation_experiment > series.csv && python -m plotnine ... (etc.)

#include <iostream>

#include "hbosim/app/script.hpp"
#include "hbosim/common/table.hpp"
#include "hbosim/scenario/scenarios.hpp"
#include "hbosim/soc/devices_builtin.hpp"

using namespace hbosim;

int main() {
  const soc::DeviceProfile device = soc::galaxy_s22();
  app::MarApp app(device);

  std::vector<TaskId> ids(5);
  ids[0] = app.add_task("deeplabv3", "deeplabv3_1", soc::Delegate::Cpu);

  des::TraceRecorder trace;
  app::ScriptRunner script(app, trace);

  script.reallocate_at(25, ids[0], soc::Delegate::Nnapi, 1);
  const double joins[] = {40, 55, 75, 95};
  for (int i = 2; i <= 5; ++i) {
    std::string label = "N";
    label += std::to_string(i);
    script.at(joins[i - 2], label,
              [&ids, i](app::MarApp& a) {
                ids[i - 1] = a.add_task("deeplabv3",
                                        "deeplabv3_" + std::to_string(i),
                                        soc::Delegate::Nnapi);
              });
  }
  script.at(120, "C5", [&ids](app::MarApp& a) {
    a.engine().set_delegate(ids[4], soc::Delegate::Cpu);
  });
  script.add_object_at(150, scenario::mesh_asset("plane"), 2.0);
  script.add_object_at(151, scenario::mesh_asset("bike"), 1.6);
  script.add_object_at(152, scenario::mesh_asset("statue"), 1.5);
  script.at(200, "C5", [&ids](app::MarApp& a) {
    a.engine().set_delegate(ids[4], soc::Delegate::Cpu);
  });
  script.run_until(240);

  // Emit one CSV block per task series, then the annotation markers.
  for (const std::string& series : trace.series_names()) {
    std::cout << "# series: " << series << "\n";
    trace.dump_series_csv(series, std::cout);
  }
  std::cout << "# markers\n";
  for (const auto& [t, label] : trace.markers())
    std::cout << "# " << t << "s: " << label << "\n";
  return 0;
}
