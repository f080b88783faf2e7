#include "hbosim/app/script.hpp"

#include "hbosim/common/error.hpp"
#include "hbosim/common/types.hpp"

namespace hbosim::app {

ScriptRunner::ScriptRunner(MarApp& app, des::TraceRecorder& trace)
    : app_(app), trace_(trace) {
  app_.engine().set_observer(
      [this](const ai::AiTask& task, double latency_s) {
        trace_.record(task.label, app_.sim().now(), to_ms(latency_s));
      });
}

ScriptRunner::~ScriptRunner() { app_.engine().set_observer(nullptr); }

void ScriptRunner::at(SimTime when, const std::string& annotation,
                      Action action) {
  HB_REQUIRE(action != nullptr, "script action must be callable");
  app_.sim().schedule_at(when, [this, when, annotation,
                                action = std::move(action)] {
    if (!annotation.empty()) trace_.mark(when, annotation);
    action(app_);
  });
}

void ScriptRunner::reallocate_at(SimTime when, TaskId task, soc::Delegate d,
                                 int instance_number) {
  std::string annotation(1, soc::delegate_code(d));
  annotation += std::to_string(instance_number);
  at(when, annotation,
     [task, d](MarApp& app) { app.engine().set_delegate(task, d); });
}

void ScriptRunner::add_object_at(
    SimTime when, std::shared_ptr<const render::MeshAsset> asset,
    double distance_m) {
  at(when, "+obj", [asset = std::move(asset), distance_m](MarApp& app) {
    app.add_object(asset, distance_m);
  });
}

void ScriptRunner::set_distance_scale_at(SimTime when, double scale) {
  at(when, "dist", [scale](MarApp& app) {
    app.set_user_distance_scale(scale);
  });
}

void ScriptRunner::run_until(SimTime end) {
  app_.start();
  app_.sim().run_until(end);
}

}  // namespace hbosim::app
