// Micro-benchmarks (google-benchmark) for the paper's overhead claims
// (Section VI): the non-BO part of HBO runs in ~50 ms on-device, and the
// algorithm's complexity is O(K^3 + MN log(MN) + L log(L)). These benches
// measure the actual cost of each component on this host:
//   - GP fit/predict as the BO database grows (the K^3 term),
//   - one full BO suggest step,
//   - Algorithm 1's heuristic allocation (MN log MN term),
//   - the triangle distributor (L log L term),
//   - raw discrete-event engine throughput.

#include <benchmark/benchmark.h>

#include "hbosim/bo/optimizer.hpp"
#include "hbosim/common/mathx.hpp"
#include "hbosim/common/matrix.hpp"
#include "hbosim/common/rng.hpp"
#include "hbosim/core/allocation.hpp"
#include "hbosim/core/controller.hpp"
#include "hbosim/core/triangle_distribution.hpp"
#include "hbosim/des/ps_resource.hpp"
#include "hbosim/scenario/scenarios.hpp"
#include "hbosim/soc/devices_builtin.hpp"

using namespace hbosim;

namespace {

// --- GP fit + predict -------------------------------------------------------
// One surrogate fit from a distance matrix, then one predict_many over the
// candidate block a suggest() scores (kRandomCandidates + kLocalCandidates).
void BM_GpFitPredict(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  bo::SimplexBoxSpace space(3, 0.2, 1.0);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (std::size_t i = 0; i < n; ++i) {
    x.push_back(space.sample(rng));
    y.push_back(rng.uniform(-1.0, 1.0));
  }
  Matrix dist(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      dist(i, j) = euclidean_distance(x[i], x[j]);
  const std::size_t count = static_cast<std::size_t>(bo::kRandomCandidates +
                                                     bo::kLocalCandidates);
  std::vector<double> candidates(count * space.dim());
  for (std::size_t c = 0; c < count; ++c)
    space.sample_into({candidates.data() + c * space.dim(), space.dim()}, rng);
  std::vector<bo::GaussianProcess::Prediction> preds(count);
  bo::GaussianProcess::BatchScratch scratch;
  for (auto _ : state) {
    bo::GaussianProcess gp(std::make_unique<bo::Matern52>());
    gp.fit(x, y, dist);
    gp.predict_many(candidates, count, preds, scratch);
    benchmark::DoNotOptimize(preds.data());
  }
}

// --- one full BO suggest (the K^3 + acquisition sweep) ----------------------
void BM_BoSuggest(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  bo::BayesianOptimizer opt(bo::SimplexBoxSpace(3, 0.2, 1.0));
  for (std::size_t i = 0; i < n; ++i)
    opt.tell(opt.space().sample(rng), rng.uniform(-1.0, 1.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt.suggest(rng));
  }
}

// --- Algorithm 1 lines 2-22 --------------------------------------------------
void BM_HeuristicAllocation(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const soc::DeviceProfile device = soc::pixel7();
  std::vector<std::string> models;
  const auto names = device.model_names();
  for (std::size_t i = 0; i < m; ++i) models.push_back(names[i % names.size()]);
  const ai::ProfileTable profiles = ai::profile_models(device, models);
  core::HeuristicAllocator allocator(profiles, models);
  const std::vector<double> usage = {0.4, 0.25, 0.35};
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.allocate(usage));
  }
}

// --- Triangle distribution (TD, line 23) -------------------------------------
void BM_TriangleDistribution(benchmark::State& state) {
  const auto l = static_cast<std::size_t>(state.range(0));
  std::vector<core::ObjectState> objects;
  for (std::size_t i = 0; i < l; ++i) {
    const auto asset = scenario::mesh_asset(i % 2 ? "plane" : "Cocacola");
    objects.push_back(core::ObjectState{asset->params(),
                                        1.0 + 0.1 * static_cast<double>(i),
                                        asset->max_triangles()});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::distribute_waterfill(objects, 0.7));
  }
}

// --- discrete-event engine throughput ----------------------------------------
void BM_DesThroughput(benchmark::State& state) {
  for (auto _ : state) {
    des::Simulator sim;
    des::PsResource res(sim, "gpu", 1.0);
    int completions = 0;
    // A self-sustaining chain of jobs: each completion submits the next.
    std::function<void()> next = [&] {
      if (++completions < 10000) res.submit(0.001, next);
    };
    res.submit(0.001, next);
    sim.run();
    benchmark::DoNotOptimize(completions);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}

// --- full non-BO control path (the paper's ~50 ms claim) ---------------------
void BM_NonBoControlPath(benchmark::State& state) {
  const soc::DeviceProfile device = soc::pixel7();
  auto app = scenario::make_app(device, scenario::ObjectSet::SC1,
                                scenario::TaskSet::CF1);
  app->start();
  core::HeuristicAllocator allocator(app->profiles(), app->task_models());
  const std::vector<double> usage = {0.5, 0.0, 0.5};
  for (auto _ : state) {
    const core::AllocationResult alloc = allocator.allocate(usage);
    app->apply_allocation(alloc.delegates);
    const auto objects = core::HboController::object_states(*app);
    const auto ratios = core::distribute_waterfill(objects, 0.72);
    app->apply_object_ratios(ratios);
    benchmark::DoNotOptimize(ratios);
  }
}

}  // namespace

BENCHMARK(BM_GpFitPredict)->Arg(5)->Arg(10)->Arg(20)->Arg(40);
BENCHMARK(BM_BoSuggest)->Arg(5)->Arg(10)->Arg(20);
BENCHMARK(BM_HeuristicAllocation)->Arg(3)->Arg(6)->Arg(24)->Arg(96);
BENCHMARK(BM_TriangleDistribution)->Arg(2)->Arg(9)->Arg(64)->Arg(512);
BENCHMARK(BM_DesThroughput);
BENCHMARK(BM_NonBoControlPath);

BENCHMARK_MAIN();
