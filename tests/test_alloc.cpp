// Allocation accounting for the two hot paths. BO: the acquisition loop
// scores hundreds of candidates per suggest, so the batched predict and
// the per-suggest target re-solve must be allocation-free once warmed up.
// DES: every inference phase is an event or a PS job whose handler must
// fit std::function's inline buffer, so the warm inference loop must not
// allocate either. This binary replaces the global allocation functions
// with counting versions and asserts the steady-state count is exactly
// zero.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

namespace {
std::atomic<long> g_alloc_count{0};
std::atomic<bool> g_counting{false};

void* counted_alloc(std::size_t sz) {
  if (g_counting.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(sz ? sz : 1);
  if (!p) throw std::bad_alloc();
  return p;
}

class AllocGuard {
 public:
  AllocGuard() {
    g_alloc_count.store(0);
    g_counting.store(true);
  }
  long stop() {
    g_counting.store(false);
    return g_alloc_count.load();
  }
  ~AllocGuard() { g_counting.store(false); }
};
}  // namespace

void* operator new(std::size_t sz) { return counted_alloc(sz); }
void* operator new[](std::size_t sz) { return counted_alloc(sz); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#include "bo_reference.hpp"
#include "hbosim/ai/engine.hpp"
#include "hbosim/bo/gp.hpp"
#include "hbosim/common/rng.hpp"
#include "hbosim/soc/devices_builtin.hpp"
#include "hbosim/telemetry/telemetry.hpp"

namespace hbosim::bo {
namespace {

GaussianProcess fitted_gp(std::size_t n) {
  hbosim::Rng rng(7);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> z(4);
    for (auto& v : z) v = rng.uniform();
    x.push_back(z);
    y.push_back(z[0] * z[0] - z[1] + 0.3 * z[2]);
  }
  GaussianProcess gp(std::make_unique<Matern52>(0.6), GpConfig{});
  gp.fit(x, y, reference::pairwise_distances(x));
  return gp;
}

TEST(Allocations, PredictManyIsAllocationFreeAtSteadyState) {
  const GaussianProcess gp = fitted_gp(32);
  const std::size_t count = 576;  // the default acquisition batch size
  hbosim::Rng rng(9);
  std::vector<double> flat(count * 4);
  for (auto& v : flat) v = rng.uniform();
  std::vector<GaussianProcess::Prediction> preds(count);
  GaussianProcess::BatchScratch scratch;
  gp.predict_many(flat, count, preds, scratch);  // warm up

  AllocGuard guard;
  for (int rep = 0; rep < 20; ++rep)
    gp.predict_many(flat, count, preds, scratch);
  EXPECT_EQ(guard.stop(), 0) << "predict_many allocated on the steady-state "
                                "path";
}

TEST(Allocations, TriangularSolvesAreAllocationFree) {
  const GaussianProcess gp = fitted_gp(24);
  // Indirect check that the span solve overloads the GP relies on do not
  // allocate: repeated set_targets reuses every internal buffer.
  std::vector<double> y(24);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = 0.1 * static_cast<double>(i);
  auto& mutable_gp = const_cast<GaussianProcess&>(gp);
  mutable_gp.set_targets(y);  // warm up

  AllocGuard guard;
  for (int rep = 0; rep < 100; ++rep) mutable_gp.set_targets(y);
  EXPECT_EQ(guard.stop(), 0) << "set_targets allocated at steady state";
}

}  // namespace
}  // namespace hbosim::bo

namespace hbosim {
namespace {

TEST(Allocations, WarmInferenceLoopIsAllocationFree) {
  // Three tasks on the GPU and CPU of a bare Pixel 7, telemetry off. Once
  // the plans are built and the event slots and job lists have grown,
  // every gap, phase and completion reuses storage.
  ASSERT_FALSE(telemetry::enabled());
  const soc::DeviceProfile device = soc::pixel7();
  des::Simulator sim;
  soc::SocRuntime soc(sim, device);
  ai::InferenceEngine engine(sim, soc);
  engine.add_task("mnist", "digits", soc::Delegate::Gpu);
  engine.add_task("deeplabv3", "segment", soc::Delegate::Cpu);
  engine.add_task("mobilenet-v1", "classify", soc::Delegate::Gpu);
  engine.start();
  sim.run_until(5.0);  // warm up

  const std::uint64_t events = sim.events_executed();
  const std::uint64_t inferences = engine.completed_inferences();
  AllocGuard guard;
  sim.run_until(20.0);
  const long allocations = guard.stop();
  EXPECT_EQ(allocations, 0) << "the warm inference loop allocated";
  EXPECT_GT(sim.events_executed() - events, 1000u);
  EXPECT_GT(engine.completed_inferences() - inferences, 300u);
}

}  // namespace
}  // namespace hbosim
