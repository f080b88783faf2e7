// Tests for the isolation profiler and priority-queue construction, plus
// the Eq. 4 latency statistic.

#include <gtest/gtest.h>

#include "hbosim/ai/latency_stats.hpp"
#include "hbosim/ai/profiler.hpp"
#include "hbosim/common/error.hpp"
#include "hbosim/soc/devices_builtin.hpp"

namespace hbosim::ai {
namespace {

TEST(Profiler, MeasuresTableValuesInIsolation) {
  const soc::DeviceProfile p7 = soc::pixel7();
  const ProfileTable table =
      profile_models(p7, {"model-metadata", "mobilenetDetv1"});
  const ModelProfile& gd = table.get("model-metadata");
  EXPECT_NEAR(*gd.isolation_ms[0], 25.5, 1e-6);  // CPU
  EXPECT_NEAR(*gd.isolation_ms[1], 24.6, 1e-6);  // GPU
  EXPECT_NEAR(*gd.isolation_ms[2], 40.7, 1e-6);  // NNAPI
  EXPECT_EQ(gd.best, soc::Delegate::Gpu);
  EXPECT_NEAR(gd.expected_ms, 24.6, 1e-6);
}

TEST(Profiler, NaDelegatesStayEmpty) {
  const soc::DeviceProfile p7 = soc::pixel7();
  const ProfileTable table = profile_models(p7, {"deeplabv3"});
  const ModelProfile& p = table.get("deeplabv3");
  EXPECT_TRUE(p.isolation_ms[0].has_value());   // CPU
  EXPECT_TRUE(p.isolation_ms[1].has_value());   // GPU
  EXPECT_FALSE(p.isolation_ms[2].has_value());  // NNAPI is NA on Pixel 7
  EXPECT_EQ(p.best, soc::Delegate::Cpu);        // 110.1 < 136.6
}

TEST(Profiler, DuplicateModelsProfiledOnce) {
  const soc::DeviceProfile p7 = soc::pixel7();
  const ProfileTable table =
      profile_models(p7, {"mnist", "mnist", "mnist"});
  EXPECT_EQ(table.model_names().size(), 1u);
}

TEST(Profiler, UnprofiledLookupThrows) {
  ProfileTable table;
  EXPECT_FALSE(table.has("x"));
  EXPECT_THROW(table.get("x"), hbosim::Error);
}

TEST(Profiler, ExpectedIsMinimumAcrossDelegates) {
  const soc::DeviceProfile s22 = soc::galaxy_s22();
  const ProfileTable table = profile_models(s22, s22.model_names());
  for (const std::string& model : table.model_names()) {
    const ModelProfile& p = table.get(model);
    for (const auto& v : p.isolation_ms) {
      if (v) {
        EXPECT_GE(*v, p.expected_ms);
      }
    }
    EXPECT_NEAR(
        *p.isolation_ms[static_cast<std::size_t>(
            static_cast<int>(p.best))],
        p.expected_ms, 1e-9);
  }
}

TEST(PriorityEntries, SortedNonDecreasingAndComplete) {
  const soc::DeviceProfile p7 = soc::pixel7();
  const std::vector<std::string> models = {"mnist", "deeplabv3",
                                           "model-metadata"};
  const ProfileTable table = profile_models(p7, models);
  const auto entries = build_priority_entries(table, models);
  // deeplabv3 has 2 delegates on Pixel 7, the others 3 -> 8 entries.
  EXPECT_EQ(entries.size(), 8u);
  for (std::size_t i = 1; i < entries.size(); ++i)
    EXPECT_LE(entries[i - 1].latency_ms, entries[i].latency_ms);
  // The head is the globally fastest pair: mnist on GPU (6 ms).
  EXPECT_EQ(entries.front().task_index, 0u);
  EXPECT_EQ(entries.front().delegate, soc::Delegate::Gpu);
}

TEST(PriorityEntries, DuplicateModelsGetDistinctTaskIndexes) {
  const soc::DeviceProfile p7 = soc::pixel7();
  const std::vector<std::string> models = {"mnist", "mnist"};
  const auto entries =
      build_priority_entries(profile_models(p7, models), models);
  EXPECT_EQ(entries.size(), 6u);
  // Ties between identical models break by task index.
  EXPECT_EQ(entries[0].task_index, 0u);
  EXPECT_EQ(entries[1].task_index, 1u);
}

TEST(LatencyStats, EquationFourKnownValues) {
  // Two tasks: one at expectation (ratio 0), one 3x slower (ratio 2).
  const std::vector<LatencySample> samples = {{10.0, 10.0}, {30.0, 10.0}};
  EXPECT_DOUBLE_EQ(average_latency_ratio(samples), 1.0);
}

TEST(LatencyStats, FasterThanExpectedGoesNegative) {
  const std::vector<LatencySample> samples = {{5.0, 10.0}};
  EXPECT_DOUBLE_EQ(average_latency_ratio(samples), -0.5);
}

TEST(LatencyStats, InvalidInputsThrow) {
  EXPECT_THROW(average_latency_ratio({}), hbosim::Error);
  EXPECT_THROW(average_latency_ratio({{10.0, 0.0}}), hbosim::Error);
}

}  // namespace
}  // namespace hbosim::ai
