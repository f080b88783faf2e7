#include "hbosim/ai/profiler.hpp"

#include <algorithm>

#include "hbosim/ai/engine.hpp"
#include "hbosim/common/error.hpp"
#include "hbosim/common/types.hpp"

namespace hbosim::ai {

void ProfileTable::set(const std::string& model, ModelProfile profile) {
  profiles_[model] = profile;
}

bool ProfileTable::has(const std::string& model) const {
  return profiles_.count(model) > 0;
}

const ModelProfile& ProfileTable::get(const std::string& model) const {
  auto it = profiles_.find(model);
  HB_REQUIRE(it != profiles_.end(), "model not profiled: " + model);
  return it->second;
}

std::vector<std::string> ProfileTable::model_names() const {
  std::vector<std::string> out;
  out.reserve(profiles_.size());
  for (const auto& [name, p] : profiles_) out.push_back(name);
  return out;
}

namespace {

/// Inferences averaged per (model, delegate) profile.
constexpr int kProfileReps = 3;

/// One isolated measurement: a fresh simulator, one task, kProfileReps
/// inferences, mean latency in ms.
double measure_isolated_ms(const soc::DeviceProfile& device,
                           const std::string& model, soc::Delegate delegate) {
  des::Simulator sim;
  soc::SocRuntime soc(sim, device);
  EngineConfig cfg;
  cfg.latency_noise = 0.0;  // exact profiling
  cfg.inference_gap_s = 0.001;
  InferenceEngine engine(sim, soc, cfg);
  const TaskId id = engine.add_task(model, model, delegate);

  int remaining = kProfileReps;
  engine.set_observer([&](const AiTask&, double) { --remaining; });
  engine.start();
  while (remaining > 0) {
    HB_ASSERT(sim.step(), "profiling simulation drained unexpectedly");
  }
  return to_ms(engine.window_mean_latency_s(id));
}

}  // namespace

ProfileTable profile_models(const soc::DeviceProfile& device,
                            const std::vector<std::string>& models) {
  ProfileTable table;
  for (const std::string& model : models) {
    if (table.has(model)) continue;  // duplicates share one profile
    ModelProfile p;
    double best_ms = 0.0;
    bool first = true;
    for (int i = 0; i < soc::kNumDelegates; ++i) {
      const auto d = soc::delegate_from_index(i);
      if (!device.supports(model, d)) continue;
      const double v = measure_isolated_ms(device, model, d);
      p.isolation_ms[static_cast<std::size_t>(i)] = v;
      if (first || v < best_ms) {
        best_ms = v;
        p.best = d;
        first = false;
      }
    }
    HB_ASSERT(!first, "model supports no delegate: " + model);
    p.expected_ms = best_ms;
    table.set(model, p);
  }
  return table;
}

std::vector<PriorityEntry> build_priority_entries(
    const ProfileTable& profiles,
    const std::vector<std::string>& task_models) {
  std::vector<PriorityEntry> entries;
  for (std::size_t t = 0; t < task_models.size(); ++t) {
    const ModelProfile& p = profiles.get(task_models[t]);
    for (int i = 0; i < soc::kNumDelegates; ++i) {
      const auto& lat = p.isolation_ms[static_cast<std::size_t>(i)];
      if (!lat) continue;
      entries.push_back(
          PriorityEntry{*lat, t, soc::delegate_from_index(i)});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const PriorityEntry& a, const PriorityEntry& b) {
              if (a.latency_ms != b.latency_ms)
                return a.latency_ms < b.latency_ms;
              if (a.task_index != b.task_index)
                return a.task_index < b.task_index;
              return static_cast<int>(a.delegate) < static_cast<int>(b.delegate);
            });
  return entries;
}

}  // namespace hbosim::ai
