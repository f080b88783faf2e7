// Thermal-throttling sweep: sustained load x device -> steady-state DVFS
// point, AI latency inflation, and projected battery drain. Each cell runs
// the same taskset twice — once without the power subsystem (the nominal
// baseline every earlier bench measured) and once with hbosim::power
// attached, a warm die, and a still ambient — and reports how much of the
// nominal performance survives sustained heat.
//
// Not a paper artefact — the paper's testbed measurements implicitly
// include whatever throttling its phones did; this bench characterizes
// the explicit battery/thermal/DVFS model the hbosim::power subsystem
// adds, and feeds the EXPERIMENTS.md throttling table.
//
// Usage: bench_power [--smoke] [--json <path>]
//   --smoke   shorter soak horizon (CI)
//   --json    write a machine-readable summary (default: BENCH_power.json)
// Any other argument exits 2 with "bench_power: <message>".

#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hbosim/power/power_manager.hpp"
#include "hbosim/scenario/scenarios.hpp"
#include "hbosim/soc/devices_builtin.hpp"

namespace {

using namespace hbosim;

struct CellResult {
  std::string device;
  std::string load;
  double base_ms = 0.0;       ///< Mean task latency, power disabled.
  double hot_ms = 0.0;        ///< Mean task latency, sustained heat.
  double inflation = 1.0;     ///< hot / base.
  double steady_freq = 1.0;   ///< Final DVFS frequency scale.
  double max_temp_c = 0.0;
  std::uint64_t throttle_events = 0;
  double drain_pct_per_hour = 0.0;
  double mean_power_w = 0.0;
};

/// Mean measured task latency (ms) over the last half of `periods`
/// control periods at fixed full quality and the static allocation.
double sustained_latency_ms(app::MarApp& app, int periods) {
  double acc = 0.0;
  int counted = 0;
  for (int p = 0; p < periods; ++p) {
    const app::PeriodMetrics m = app.run_period(2.0);
    if (p >= periods / 2) {
      acc += m.mean_task_latency_ms();
      ++counted;
    }
  }
  return acc / counted;
}

/// One sweep point: an object set plus the AI taskset driving it.
struct LoadPoint {
  const char* name;
  scenario::ObjectSet objects;
  scenario::TaskSet tasks;
};

CellResult run_cell(const std::string& device_name, const LoadPoint& load,
                    int periods, double initial_temp_c) {
  const soc::DeviceProfile device = soc::find_builtin(device_name);

  CellResult out;
  out.device = device_name;
  out.load = load.name;

  // Baseline: the pre-power behavior (clocks pinned at nominal).
  {
    auto app = scenario::make_app(device, load.objects, load.tasks,
                                  /*seed=*/0x9AC);
    app->start();
    out.base_ms = sustained_latency_ms(*app, periods);
  }

  // Heat soak: same workload, warm die, still room-temperature ambient.
  // sigma = 0 keeps the cell bit-reproducible run to run.
  {
    app::MarAppConfig cfg;
    cfg.enable_power = true;
    cfg.power.ambient_c = 26.0;
    cfg.power.ambient_sigma_c = 0.0;
    cfg.power.initial_temp_c = initial_temp_c;
    auto app = scenario::make_app(device, load.objects, load.tasks,
                                  /*seed=*/0x9AC, cfg);
    app->start();
    out.hot_ms = sustained_latency_ms(*app, periods);
    const power::PowerStats ps = app->power()->stats();
    out.steady_freq = app->power()->freq_scale();
    out.max_temp_c = ps.max_die_temp_c;
    out.throttle_events = ps.throttle_events;
    out.drain_pct_per_hour = ps.drain_pct_per_hour;
    out.mean_power_w = ps.mean_power_w;
  }
  out.inflation = out.hot_ms / out.base_ms;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args =
      benchutil::parse_args(argc, argv, "bench_power", "BENCH_power.json");
  if (!args) return 2;
  const bool smoke = args->smoke;
  const std::string& json_path = args->json_path;

  benchutil::banner("bench_power",
                    "sustained load x device thermal-throttling sweep");
  // Full mode soaks 240 simulated seconds per cell (~2 thermal time
  // constants from a warm 55 C start), enough for every device to settle
  // into its throttled steady state. Smoke starts the die hotter — a
  // device already cooked by prior use — so the governor reaction and the
  // latency inflation show up inside a CI-sized 40-second horizon.
  const int periods = smoke ? 40 : 120;
  const double initial_temp_c = smoke ? 58.0 : 55.0;
  const std::vector<std::string> devices = {"Pixel 7", "Galaxy S22",
                                            "MidTier"};
  const std::vector<LoadPoint> loads = {
      {"light", scenario::ObjectSet::SC2, scenario::TaskSet::CF2},
      {"heavy", scenario::ObjectSet::SC1, scenario::TaskSet::CF1},
      {"soak", scenario::ObjectSet::ThermalSoak, scenario::TaskSet::CF1}};

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<CellResult> cells;
  std::cout << std::fixed
            << "  device      load         base_ms  hot_ms  inflate  freq  "
               "maxT_C  steps  drain%/h\n";
  for (const std::string& dev : devices) {
    for (const LoadPoint& load : loads) {
      const CellResult c = run_cell(dev, load, periods, initial_temp_c);
      cells.push_back(c);
      std::cout << "  " << std::left << std::setw(10) << c.device << "  "
                << std::setw(11) << c.load << std::right
                << std::setprecision(1) << std::setw(9) << c.base_ms
                << std::setw(8) << c.hot_ms << std::setprecision(2)
                << std::setw(9) << c.inflation << std::setw(6)
                << c.steady_freq << std::setprecision(1) << std::setw(8)
                << c.max_temp_c << std::setw(7) << c.throttle_events
                << std::setw(10) << c.drain_pct_per_hour << "\n";
    }
  }
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

  // The throttling story: light loads keep nominal clocks, the soak load
  // must throttle on every device and measurably inflate AI latency.
  bool light_nominal = true, soak_throttles = true, soak_inflates = true;
  for (const CellResult& c : cells) {
    if (c.load == "light") light_nominal &= c.steady_freq == 1.0;
    if (c.load == "soak") {
      soak_throttles &= c.throttle_events > 0;
      soak_inflates &= c.inflation > 1.05;
    }
  }

  benchutil::section("recap");
  benchutil::recap_line("light load steady freq", "1.0 (no throttle)",
                        light_nominal ? "1.0 on all devices" : "THROTTLED");
  benchutil::recap_line("soak load throttles every device", "yes",
                        soak_throttles ? "yes" : "NO");
  benchutil::recap_line("soak AI latency inflation", "> 1.05x",
                        soak_inflates ? "yes" : "NO");

  std::ofstream json(json_path);
  json << std::setprecision(6) << std::fixed;
  json << "{\n  \"bench\": \"bench_power\",\n  \"smoke\": "
       << (smoke ? "true" : "false")
       << ",\n  \"host\": " << benchutil::host_json()
       << ",\n  \"periods_per_cell\": "
       << periods << ",\n  \"wall_s\": " << wall_s << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    json << "    {\"device\": \"" << c.device << "\", \"load\": \"" << c.load
         << "\", \"base_ms\": " << c.base_ms << ", \"hot_ms\": " << c.hot_ms
         << ", \"inflation\": " << c.inflation << ", \"steady_freq\": "
         << c.steady_freq << ", \"max_temp_c\": " << c.max_temp_c
         << ", \"throttle_events\": " << c.throttle_events
         << ", \"drain_pct_per_hour\": " << c.drain_pct_per_hour
         << ", \"mean_power_w\": " << c.mean_power_w << "}"
         << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "\nJSON summary written to " << json_path << "\n";

  return (light_nominal && soak_throttles && soak_inflates) ? 0 : 1;
}
