// Reproduces Fig. 2 — the motivation study on the Galaxy S22: AI task
// latency time series under scripted allocation changes and virtual-object
// placements, showing that the best delegate choice depends on the taskset
// and the triangle count.
//
//  (a) deconv-munet instances moved between CPU and GPU;
//  (b) five deeplabv3 instances crowding the NNAPI delegate, relieved by
//      CPU relocation, then hit by virtual objects;
//  (c) a mixed taskset on GPU/NNAPI.
//
// Output: per-segment mean latency per task (the figure's y values within
// each annotated interval) plus the timeline markers (C/G/N allocation
// codes and object placements).

#include <iomanip>
#include <iostream>

#include "bench_util.hpp"
#include "hbosim/app/script.hpp"
#include "hbosim/common/table.hpp"
#include "hbosim/scenario/scenarios.hpp"
#include "hbosim/soc/devices_builtin.hpp"

using namespace hbosim;

namespace {

/// Print mean latency of every task over each [t_i, t_{i+1}) segment.
void print_segments(const des::TraceRecorder& trace,
                    const std::vector<std::string>& labels,
                    const std::vector<double>& edges) {
  std::vector<std::string> header = {"segment"};
  for (const auto& l : labels) header.push_back(l + " (ms)");
  TextTable table(header);
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    std::string segment = "[";
    segment += TextTable::num(edges[i], 0);
    segment += ',';
    segment += TextTable::num(edges[i + 1], 0);
    segment += ")s";
    std::vector<std::string> row = {segment};
    for (const auto& l : labels) {
      const double v = trace.has_series(l)
                           ? trace.window_mean(l, edges[i], edges[i + 1])
                           : 0.0;
      row.push_back(v > 0.0 ? TextTable::num(v, 1) : "-");
    }
    table.add_row(row);
  }
  table.print(std::cout);
}

void print_markers(const des::TraceRecorder& trace) {
  std::cout << "markers:";
  for (const auto& [t, label] : trace.markers())
    std::cout << "  " << label << "@" << std::setprecision(3) << t << "s";
  std::cout << "\n";
}

// --- Fig. 2b: five deeplabv3 instances -------------------------------------
void fig2b(const soc::DeviceProfile& device) {
  benchutil::section("Fig. 2b: 5x deeplabv3, CPU vs NNAPI, then objects");
  app::MarAppConfig cfg;
  app::MarApp app(device, cfg);
  // Instance 1 starts alone on the CPU (the paper's C1); the rest join
  // the running system directly on the NNAPI delegate between t=40 and
  // t=95, exactly as the paper "progressively adds AI tasks".
  std::vector<TaskId> ids(5);
  ids[0] = app.add_task("deeplabv3", "deeplabv3_1", soc::Delegate::Cpu);

  des::TraceRecorder trace;
  app::ScriptRunner script(app, trace);
  // t=25: first instance CPU -> NNAPI (paper: C1 ... N1 at t=25).
  script.reallocate_at(25, ids[0], soc::Delegate::Nnapi, 1);
  // t=40..95: progressively crowd the NNAPI delegate with new instances.
  const double joins[] = {40, 55, 75, 95};
  for (int i = 2; i <= 5; ++i) {
    std::string label = "N";
    label += std::to_string(i);
    script.at(joins[i - 2], label,
              [&ids, i](app::MarApp& a) {
                ids[i - 1] = a.add_task(
                    "deeplabv3", "deeplabv3_" + std::to_string(i),
                    soc::Delegate::Nnapi);
              });
  }
  // t=120: relieve the delegate by moving instance 5 to the CPU...
  script.at(120, "C5", [&ids](app::MarApp& a) {
    a.engine().set_delegate(ids[4], soc::Delegate::Cpu);
  });
  // ...and t=140: back to NNAPI before the objects arrive.
  script.at(140, "N5", [&ids](app::MarApp& a) {
    a.engine().set_delegate(ids[4], soc::Delegate::Nnapi);
  });
  // t~150/180: heavy virtual objects land (the figure's red crosses).
  script.add_object_at(150, scenario::mesh_asset("plane"), 2.0);
  script.add_object_at(151, scenario::mesh_asset("bike"), 1.6);
  script.add_object_at(152, scenario::mesh_asset("plane"), 1.9);
  script.add_object_at(180, scenario::mesh_asset("plane"), 2.4);
  script.add_object_at(181, scenario::mesh_asset("splane"), 1.8);
  script.add_object_at(182, scenario::mesh_asset("Cocacola"), 1.4);
  script.add_object_at(183, scenario::mesh_asset("plane"), 1.7);
  script.add_object_at(184, scenario::mesh_asset("statue"), 1.5);
  // t=200: relocation to CPU now helps *everyone* (unlike at t=120)...
  script.at(200, "C5", [&ids](app::MarApp& a) {
    a.engine().set_delegate(ids[4], soc::Delegate::Cpu);
  });
  // ...but a second CPU relocation overloads the CPU cluster.
  script.at(225, "C4", [&ids](app::MarApp& a) {
    a.engine().set_delegate(ids[3], soc::Delegate::Cpu);
  });
  script.run_until(255);

  std::vector<std::string> labels;
  for (TaskId id : ids) labels.push_back(app.engine().task(id).label);
  print_segments(trace, labels,
                 {0, 25, 40, 55, 75, 95, 120, 140, 150, 180, 200, 225, 255});
  print_markers(trace);
}

// --- Fig. 2a: deconv-munet on CPU/GPU ---------------------------------------
void fig2a(const soc::DeviceProfile& device) {
  benchutil::section("Fig. 2a: deconv-munet instances, CPU vs GPU");
  app::MarAppConfig cfg;
  app::MarApp app(device, cfg);
  std::vector<TaskId> ids;
  for (int i = 1; i <= 3; ++i) {
    ids.push_back(app.add_task("deconv-munet",
                               "deconv_" + std::to_string(i),
                               soc::Delegate::Cpu));
  }
  des::TraceRecorder trace;
  app::ScriptRunner script(app, trace);
  // Move instances onto the GPU one by one, then add objects so the GPU
  // delegate becomes the wrong choice again.
  script.reallocate_at(20, ids[0], soc::Delegate::Gpu, 1);
  script.reallocate_at(40, ids[1], soc::Delegate::Gpu, 2);
  script.reallocate_at(60, ids[2], soc::Delegate::Gpu, 3);
  script.add_object_at(90, scenario::mesh_asset("bike"), 1.5);
  script.add_object_at(91, scenario::mesh_asset("plane"), 2.2);
  script.add_object_at(92, scenario::mesh_asset("splane"), 2.0);
  script.add_object_at(93, scenario::mesh_asset("statue"), 1.6);
  script.add_object_at(94, scenario::mesh_asset("plane"), 1.8);
  script.add_object_at(95, scenario::mesh_asset("bike"), 2.1);
  script.reallocate_at(120, ids[2], soc::Delegate::Cpu, 3);
  script.run_until(150);

  std::vector<std::string> labels;
  for (TaskId id : ids) labels.push_back(app.engine().task(id).label);
  print_segments(trace, labels, {0, 20, 40, 60, 90, 120, 150});
  print_markers(trace);
}

// --- Fig. 2c: mixed taskset on GPU/NNAPI ------------------------------------
void fig2c(const soc::DeviceProfile& device) {
  benchutil::section("Fig. 2c: mixed taskset (segmentation+classification)");
  app::MarAppConfig cfg;
  app::MarApp app(device, cfg);
  const TaskId mob1 = app.add_task("mobilenet-v1", "mobilenetv1_1",
                                   soc::Delegate::Nnapi);
  const TaskId inc1 =
      app.add_task("inception-v1-q", "inception_1", soc::Delegate::Nnapi);
  const TaskId dec1 =
      app.add_task("deconv-munet", "deconv_1", soc::Delegate::Gpu);
  const TaskId dlb1 =
      app.add_task("deeplabv3", "deeplabv3_1", soc::Delegate::Nnapi);

  des::TraceRecorder trace;
  app::ScriptRunner script(app, trace);
  script.add_object_at(40, scenario::mesh_asset("plane"), 2.0);
  script.add_object_at(41, scenario::mesh_asset("bike"), 1.8);
  script.add_object_at(42, scenario::mesh_asset("Cocacola"), 1.2);
  script.add_object_at(43, scenario::mesh_asset("statue"), 1.5);
  script.add_object_at(44, scenario::mesh_asset("plane"), 1.7);
  script.add_object_at(45, scenario::mesh_asset("splane"), 2.2);
  // Under render load the GPU-affine deconv suffers; NNAPI absorbs it.
  script.reallocate_at(80, dec1, soc::Delegate::Nnapi, 1);
  // Crowding NNAPI backfires for the light classifiers; move one out.
  script.reallocate_at(120, inc1, soc::Delegate::Gpu, 1);
  script.run_until(160);

  std::vector<std::string> labels;
  for (TaskId id : {mob1, inc1, dec1, dlb1})
    labels.push_back(app.engine().task(id).label);
  print_segments(trace, labels, {0, 40, 80, 120, 160});
  print_markers(trace);
}

}  // namespace

int main() {
  benchutil::banner("Fig. 2",
                    "taskset + triangle count vs AI latency (Galaxy S22)");
  const soc::DeviceProfile device = soc::galaxy_s22();
  fig2a(device);
  fig2b(device);
  fig2c(device);

  benchutil::section("Shape checks (paper claims)");
  std::cout
      << "  - Fig 2b: N1 beats C1 in isolation; each added NNAPI instance\n"
        "    raises everyone's latency; C5 at t=120 helps instance 5 only;\n"
        "    objects at t=150+ inflate ALL NNAPI latencies; C5 at t=200 now\n"
        "    helps every task; C4 at t=225 helps NNAPI residents but hurts\n"
        "    the CPU residents.\n"
        "  - Compare the segment tables above against those claims.\n";
  return 0;
}
