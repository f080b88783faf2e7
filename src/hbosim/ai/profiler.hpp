#pragma once

#include <array>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "hbosim/soc/device.hpp"

/// \file profiler.hpp
/// Offline isolation profiling (Section IV-C of the paper): each AI task is
/// measured on each compatible delegate with *no* other tasks and *no*
/// virtual objects, yielding (a) the expected latency tau^e used to
/// normalize Eq. 4 and (b) the priority queue P of (latency, task,
/// resource) pairs consumed by Algorithm 1. The paper performs this once on
/// the user's device; we perform it once per (device, model) on a private
/// throwaway simulation, so the exact same runtime code path is exercised.

namespace hbosim::ai {

/// Isolation profile of one model on a device.
struct ModelProfile {
  /// Measured latency per delegate index (Cpu, Gpu, Nnapi); nullopt = NA.
  std::array<std::optional<double>, soc::kNumDelegates> isolation_ms;
  soc::Delegate best = soc::Delegate::Cpu;  ///< argmin latency.
  double expected_ms = 0.0;                 ///< tau^e = min latency.
};

/// Profiles for a set of models on one device.
class ProfileTable {
 public:
  void set(const std::string& model, ModelProfile profile);
  bool has(const std::string& model) const;
  const ModelProfile& get(const std::string& model) const;
  std::vector<std::string> model_names() const;

 private:
  std::map<std::string, ModelProfile> profiles_;
};

/// Entry of Algorithm 1's priority queue P.
struct PriorityEntry {
  double latency_ms;       ///< Profiled isolation latency.
  std::size_t task_index;  ///< Index into the task list given to HBO.
  soc::Delegate delegate;
};

/// Measure isolation latency of every model in `models` on every
/// compatible delegate, as the mean of 3 inferences on a fresh private
/// simulator. Noise is disabled so profiles are exact (the paper averages
/// repeated runs to the same effect).
ProfileTable profile_models(const soc::DeviceProfile& device,
                            const std::vector<std::string>& models);

/// Build Algorithm 1's priority queue entries for an ordered taskset:
/// one entry per (task, compatible delegate), sorted by latency
/// non-decreasing (ties broken by task then delegate index, so the order
/// is deterministic).
std::vector<PriorityEntry> build_priority_entries(
    const ProfileTable& profiles, const std::vector<std::string>& task_models);

}  // namespace hbosim::ai
