// Tests for the TD function (Algorithm 1, line 23): budget fidelity,
// bounds, and optimality of the water-filling distribution.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "hbosim/common/error.hpp"
#include "hbosim/common/rng.hpp"
#include "hbosim/core/triangle_distribution.hpp"
#include "hbosim/render/mesh.hpp"

namespace hbosim::core {
namespace {

std::vector<ObjectState> demo_objects() {
  std::vector<ObjectState> objects;
  const char* names[] = {"apricot", "bike", "plane", "Cocacola", "hammer"};
  const std::uint64_t tris[] = {86016, 178552, 146803, 94080, 6250};
  const double dist[] = {1.2, 2.0, 2.5, 1.5, 1.8};
  for (int i = 0; i < 5; ++i) {
    objects.push_back(ObjectState{
        render::synthesize_degradation_params(names[i], tris[i]), dist[i],
        tris[i]});
  }
  return objects;
}

TEST(WaterFill, FullBudgetGivesFullQuality) {
  const auto objects = demo_objects();
  const auto ratios = distribute_waterfill(objects, 1.0);
  for (double r : ratios) EXPECT_DOUBLE_EQ(r, 1.0);
}

TEST(WaterFill, EmptySceneYieldsEmptyAssignment) {
  EXPECT_TRUE(distribute_waterfill({}, 0.5).empty());
  EXPECT_TRUE(distribute_sensitivity({}, 0.5).empty());
}

class BudgetFidelity : public ::testing::TestWithParam<double> {};

TEST_P(BudgetFidelity, WaterFillMeetsTheBudget) {
  const auto objects = demo_objects();
  const double x = GetParam();
  const auto ratios = distribute_waterfill(objects, x);
  double total_max = 0.0;
  for (const auto& o : objects)
    total_max += static_cast<double>(o.max_triangles);
  const double budget = std::max(x, 0.05) * total_max;
  EXPECT_NEAR(assignment_triangles(objects, ratios), budget,
              0.002 * total_max);
  for (double r : ratios) {
    EXPECT_GE(r, 0.05 - 1e-12);
    EXPECT_LE(r, 1.0 + 1e-12);
  }
}

TEST_P(BudgetFidelity, SensitivityHeuristicStaysWithinBudgetAndBounds) {
  const auto objects = demo_objects();
  const double x = GetParam();
  const auto ratios = distribute_sensitivity(objects, x);
  double total_max = 0.0;
  for (const auto& o : objects)
    total_max += static_cast<double>(o.max_triangles);
  // The heuristic is approximate: allow 5% budget slack.
  EXPECT_LE(assignment_triangles(objects, ratios),
            std::max(x, 0.05) * total_max * 1.05 + 1.0);
  for (double r : ratios) {
    EXPECT_GE(r, 0.05 - 1e-12);
    EXPECT_LE(r, 1.0 + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, BudgetFidelity,
                         ::testing::Values(0.1, 0.2, 0.35, 0.5, 0.72, 0.9,
                                           0.99));

TEST(WaterFill, DominatesUniformAndSensitivity) {
  const auto objects = demo_objects();
  for (double x : {0.2, 0.4, 0.6, 0.8}) {
    const auto water = distribute_waterfill(objects, x);
    const auto sens = distribute_sensitivity(objects, x);
    const std::vector<double> uniform(objects.size(), x);
    const double qw = assignment_quality(objects, water);
    const double qs = assignment_quality(objects, sens);
    const double qu = assignment_quality(objects, uniform);
    EXPECT_GE(qw, qu - 1e-9) << "x=" << x;
    EXPECT_GE(qw, qs - 1e-9) << "x=" << x;
  }
}

TEST(WaterFill, QualityIsMonotoneInBudget) {
  const auto objects = demo_objects();
  double prev = 0.0;
  for (double x = 0.1; x <= 1.0; x += 0.05) {
    const auto ratios = distribute_waterfill(objects, x);
    const double q = assignment_quality(objects, ratios);
    EXPECT_GE(q, prev - 1e-9);
    prev = q;
  }
}

TEST(WaterFill, WaterFillEqualizesMarginalGains) {
  // KKT check: for interior ratios (not clamped), the marginal quality per
  // triangle must be equal across objects.
  const auto objects = demo_objects();
  const auto ratios = distribute_waterfill(objects, 0.6);
  std::vector<double> marginals;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (ratios[i] > 0.06 && ratios[i] < 0.999) {
      const double slope = render::degradation_slope(
          objects[i].params, ratios[i], objects[i].distance);
      marginals.push_back(-slope /
                          static_cast<double>(objects[i].max_triangles));
    }
  }
  ASSERT_GE(marginals.size(), 2u);
  for (std::size_t i = 1; i < marginals.size(); ++i)
    EXPECT_NEAR(marginals[i] / marginals[0], 1.0, 1e-3);
}

TEST(WaterFill, CloserObjectsGetMoreTrianglesCeterisParibus) {
  // Two identical meshes at different distances: the close one degrades
  // more visibly, so it must receive the larger ratio.
  const auto params = render::synthesize_degradation_params("plane", 146803);
  std::vector<ObjectState> objects = {
      ObjectState{params, 1.0, 146803},
      ObjectState{params, 4.0, 146803},
  };
  const auto ratios = distribute_waterfill(objects, 0.5);
  EXPECT_GT(ratios[0], ratios[1]);
}

TEST(Distribution, SingleObjectGetsTheWholeBudget) {
  const auto params = render::synthesize_degradation_params("bike", 178552);
  const std::vector<ObjectState> objects = {ObjectState{params, 1.5, 178552}};
  for (double x : {0.3, 0.7}) {
    const auto r = distribute_waterfill(objects, x);
    EXPECT_NEAR(r[0], x, 1e-6);
  }
}

TEST(Distribution, InvalidInputsThrow) {
  auto objects = demo_objects();
  EXPECT_THROW(distribute_waterfill(objects, 1.5), hbosim::Error);
  EXPECT_THROW(distribute_waterfill(objects, -0.1), hbosim::Error);
  objects[0].params.a = -1.0;
  EXPECT_THROW(distribute_waterfill(objects, 0.5), hbosim::Error);
  EXPECT_THROW(assignment_quality(demo_objects(), {0.5}), hbosim::Error);
}

/// A small random scene for the brute-force oracle: 1-4 objects at 0.5-6 m
/// (every other instance puts its first object inside 1 m, where Eq. 1's
/// distance clamp applies) and a budget x in (kObjectRatioFloor, 0.95].
struct OracleInstance {
  std::vector<ObjectState> objects;
  double x = 0.5;
};

OracleInstance oracle_instance(int index) {
  Rng rng(0x0AC1Eu + static_cast<std::uint64_t>(index));
  const char* names[] = {"apricot", "bike",  "plane", "Cocacola",
                         "hammer",  "cabin", "andy",  "statue"};
  OracleInstance inst;
  const int count = 1 + index % 4;
  for (int j = 0; j < count; ++j) {
    const std::uint64_t tris = 5000 + rng.uniform_index(195001);
    const double dist = j == 0 && index % 2 == 0 ? rng.uniform(0.5, 1.0)
                                                 : rng.uniform(0.5, 6.0);
    inst.objects.push_back(ObjectState{
        render::synthesize_degradation_params(names[(index + j) % 8], tris),
        dist, tris});
  }
  inst.x = rng.uniform(0.06, 0.95);
  return inst;
}

/// Best average quality over a grid that spends exactly `budget`
/// triangles: the smaller objects take ratios on `steps` even steps of
/// [kObjectRatioFloor, 1], and the largest takes whatever remains when
/// that lies in [kObjectRatioFloor, 1]. -inf when no grid point fits.
double grid_best_quality(const std::vector<ObjectState>& objects,
                         double budget, int steps) {
  std::size_t largest = 0;
  for (std::size_t i = 1; i < objects.size(); ++i)
    if (objects[i].max_triangles > objects[largest].max_triangles) largest = i;
  const ObjectState& big = objects[largest];

  std::vector<double> grid(static_cast<std::size_t>(steps) + 1);
  for (std::size_t k = 0; k < grid.size(); ++k)
    grid[k] = std::min(1.0, kObjectRatioFloor + (1.0 - kObjectRatioFloor) *
                                                    static_cast<double>(k) /
                                                    steps);
  // quality[j][k]: smaller object j at grid ratio k.
  std::vector<const ObjectState*> small;
  std::vector<std::vector<double>> quality;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (i == largest) continue;
    small.push_back(&objects[i]);
    quality.emplace_back();
    for (double r : grid)
      quality.back().push_back(
          render::object_quality(objects[i].params, r, objects[i].distance));
  }

  double best = -std::numeric_limits<double>::infinity();
  std::vector<std::size_t> k(small.size(), 0);
  for (;;) {
    double tris = 0.0;
    double q = 0.0;
    for (std::size_t j = 0; j < small.size(); ++j) {
      tris += grid[k[j]] * static_cast<double>(small[j]->max_triangles);
      q += quality[j][k[j]];
    }
    const double r = (budget - tris) / static_cast<double>(big.max_triangles);
    if (r >= kObjectRatioFloor && r <= 1.0) {
      q += render::object_quality(big.params, r, big.distance);
      best = std::max(best, q / static_cast<double>(objects.size()));
    }
    std::size_t j = 0;
    while (j < k.size() && ++k[j] == grid.size()) k[j++] = 0;
    if (j == k.size()) break;
  }
  return best;
}

class WaterFillOracle : public ::testing::TestWithParam<int> {};

TEST_P(WaterFillOracle, MatchesBruteForceOptimum) {
  const OracleInstance inst = oracle_instance(GetParam());
  double total_max = 0.0;
  for (const ObjectState& o : inst.objects)
    total_max += static_cast<double>(o.max_triangles);
  const double q_water = assignment_quality(
      inst.objects, distribute_waterfill(inst.objects, inst.x));
  const int steps = inst.objects.size() <= 3 ? 400 : 60;
  const double q_grid =
      grid_best_quality(inst.objects, inst.x * total_max, steps);
  ASSERT_TRUE(std::isfinite(q_grid));
  // No feasible split beats the water-fill...
  EXPECT_LE(q_grid, q_water + 1e-12);
  // ...and the grid is fine enough to have found a near-equal one.
  EXPECT_GE(q_grid, q_water - 1e-3);
}

INSTANTIATE_TEST_SUITE_P(SmallScenes, WaterFillOracle, ::testing::Range(0, 20));

TEST(Distribution, BudgetBelowFloorClampsToFloor) {
  const auto objects = demo_objects();
  const auto ratios = distribute_waterfill(objects, 0.01);
  for (double r : ratios) EXPECT_NEAR(r, 0.05, 1e-9);
}

}  // namespace
}  // namespace hbosim::core
