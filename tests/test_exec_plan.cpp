// Tests for execution-plan construction: isolation sums must reproduce the
// device tables exactly, and the NNAPI split must follow npu_fraction.

#include <gtest/gtest.h>

#include <deque>
#include <string>

#include "hbosim/ai/exec_plan.hpp"
#include "hbosim/common/error.hpp"
#include "hbosim/common/types.hpp"
#include "hbosim/soc/devices_builtin.hpp"

namespace hbosim::ai {
namespace {

using soc::Delegate;

struct PlanCase {
  int device_index;  // into builtin_devices()
  const char* model;
  Delegate delegate;
};

class PlanSumTest : public ::testing::TestWithParam<PlanCase> {};

TEST_P(PlanSumTest, IsolationSumEqualsProfiledLatency) {
  const auto devices = soc::builtin_devices();
  const soc::DeviceProfile& device =
      devices[static_cast<std::size_t>(GetParam().device_index)];
  if (!device.supports(GetParam().model, GetParam().delegate)) {
    EXPECT_THROW(
        build_exec_plan(device, GetParam().model, GetParam().delegate),
        hbosim::Error);
    return;
  }
  const ExecPlan plan =
      build_exec_plan(device, GetParam().model, GetParam().delegate);
  EXPECT_NEAR(to_ms(plan_isolation_seconds(plan)),
              device.isolation_ms(GetParam().model, GetParam().delegate),
              1e-9);
}

std::vector<PlanCase> all_cases() {
  // Model names must outlive the test registry; static storage (a deque
  // never moves its elements) keeps them alive without leaking them.
  static std::deque<std::string> models;
  std::vector<PlanCase> cases;
  const auto devices = soc::builtin_devices();
  for (int d = 0; d < static_cast<int>(devices.size()); ++d) {
    for (const std::string& model :
         devices[static_cast<std::size_t>(d)].model_names()) {
      const char* name = models.emplace_back(model).c_str();
      for (int i = 0; i < soc::kNumDelegates; ++i) {
        cases.push_back(PlanCase{d, name, soc::delegate_from_index(i)});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllDevicesModelsDelegates, PlanSumTest,
                         ::testing::ValuesIn(all_cases()));

TEST(ExecPlan, CpuPlanIsASingleMultiThreadedPhase) {
  const soc::DeviceProfile p7 = soc::pixel7();
  const ExecPlan plan = build_exec_plan(p7, "deeplabv3", Delegate::Cpu);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].kind, Phase::Kind::Compute);
  EXPECT_EQ(plan[0].unit, soc::Unit::Cpu);
  EXPECT_DOUBLE_EQ(plan[0].cores, p7.model("deeplabv3").cpu_threads);
  EXPECT_GT(plan[0].cores, 1.0);  // heavy segmentation model
}

TEST(ExecPlan, GpuPlanIsDispatchPlusGpuPhase) {
  const soc::DeviceProfile p7 = soc::pixel7();
  const ExecPlan plan = build_exec_plan(p7, "model-metadata", Delegate::Gpu);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].kind, Phase::Kind::Delay);
  EXPECT_NEAR(to_ms(plan[0].seconds), p7.comm_ms(Delegate::Gpu), 1e-12);
  EXPECT_EQ(plan[1].kind, Phase::Kind::Compute);
  EXPECT_EQ(plan[1].unit, soc::Unit::Gpu);
}

TEST(ExecPlan, NnapiPlanSplitsNpuAndGpuByFraction) {
  const soc::DeviceProfile p7 = soc::pixel7();
  const soc::ModelLatency& lat = p7.model("mobilenetDetv1");
  const ExecPlan plan = build_exec_plan(p7, "mobilenetDetv1", Delegate::Nnapi);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].kind, Phase::Kind::Delay);
  EXPECT_EQ(plan[1].unit, soc::Unit::Npu);
  EXPECT_EQ(plan[2].unit, soc::Unit::Gpu);
  const double work = *lat.nnapi_ms - p7.comm_ms(Delegate::Nnapi);
  EXPECT_NEAR(to_ms(plan[1].seconds), work * lat.npu_fraction, 1e-9);
  EXPECT_NEAR(to_ms(plan[2].seconds), work * (1.0 - lat.npu_fraction), 1e-9);
}

TEST(ExecPlan, FullNpuFractionOmitsGpuPhase) {
  soc::DeviceProfile d("t", 4.0, soc::RenderLoadModel{}, 2.0, 3.0);
  soc::ModelLatency lat;
  lat.cpu_ms = 20.0;
  lat.nnapi_ms = 10.0;
  lat.npu_fraction = 1.0;
  d.set_model("m", lat);
  const ExecPlan plan = build_exec_plan(d, "m", Delegate::Nnapi);
  ASSERT_EQ(plan.size(), 2u);  // delay + NPU only
  EXPECT_EQ(plan[1].unit, soc::Unit::Npu);
}

TEST(ExecPlan, UnsupportedDelegateThrows) {
  const soc::DeviceProfile p7 = soc::pixel7();
  EXPECT_THROW(build_exec_plan(p7, "deeplabv3", Delegate::Nnapi),
               hbosim::Error);
}

}  // namespace
}  // namespace hbosim::ai
