#include "hbosim/core/triangle_distribution.hpp"

#include <algorithm>
#include <cmath>

#include "hbosim/common/error.hpp"
#include "hbosim/common/mathx.hpp"

namespace hbosim::core {

namespace {

/// Bisection iterations for the water-filling multiplier search.
constexpr int kBisectionIters = 60;
/// Reference decimation ratio of the sensitivity heuristic.
constexpr double kSensitivityReferenceRatio = 0.5;

double effective_pow(const ObjectState& o) {
  return std::pow(std::max(o.distance, 1.0), o.params.d);
}

/// r_i(lambda): the unique ratio where object i's marginal quality gain
/// per triangle equals lambda, clamped into [kObjectRatioFloor, 1].
double ratio_at_multiplier(const ObjectState& o, double lambda) {
  const double t = static_cast<double>(o.max_triangles);
  const double r =
      (-o.params.b - lambda * effective_pow(o) * t) / (2.0 * o.params.a);
  return clampd(r, kObjectRatioFloor, 1.0);
}

void validate_inputs(const std::vector<ObjectState>& objects,
                     double total_ratio) {
  HB_REQUIRE(total_ratio >= 0.0 && total_ratio <= 1.0,
             "total triangle ratio must be in [0,1]");
  for (const ObjectState& o : objects) {
    HB_REQUIRE(o.params.valid(), "invalid degradation parameters");
    HB_REQUIRE(o.max_triangles > 0, "object must have triangles");
    HB_REQUIRE(o.distance > 0.0, "object distance must be positive");
  }
}

}  // namespace

std::vector<double> distribute_waterfill(
    const std::vector<ObjectState>& objects, double total_ratio) {
  validate_inputs(objects, total_ratio);
  if (objects.empty()) return {};

  double total_max = 0.0;
  for (const ObjectState& o : objects)
    total_max += static_cast<double>(o.max_triangles);
  const double budget = std::max(total_ratio, kObjectRatioFloor) * total_max;

  // lambda = 0 gives every object ratio 1 (validity implies the error is
  // still falling at R=1, so unconstrained optima sit at or above 1).
  if (budget >= total_max) return std::vector<double>(objects.size(), 1.0);

  // Upper bound: the multiplier at which every object clamps to floor.
  double lambda_hi = 0.0;
  for (const ObjectState& o : objects) {
    const double t = static_cast<double>(o.max_triangles);
    lambda_hi = std::max(lambda_hi, -o.params.b / (effective_pow(o) * t));
  }

  auto triangles_at = [&](double lambda) {
    double acc = 0.0;
    for (const ObjectState& o : objects)
      acc += ratio_at_multiplier(o, lambda) *
             static_cast<double>(o.max_triangles);
    return acc;
  };

  double lo = 0.0;
  double hi = lambda_hi;
  for (int i = 0; i < kBisectionIters; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (triangles_at(mid) > budget) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double lambda = 0.5 * (lo + hi);

  std::vector<double> ratios(objects.size());
  for (std::size_t i = 0; i < objects.size(); ++i)
    ratios[i] = ratio_at_multiplier(objects[i], lambda);
  return ratios;
}

std::vector<double> distribute_sensitivity(
    const std::vector<ObjectState>& objects, double total_ratio) {
  validate_inputs(objects, total_ratio);
  if (objects.empty()) return {};

  double total_max = 0.0;
  for (const ObjectState& o : objects)
    total_max += static_cast<double>(o.max_triangles);
  const double budget = std::max(total_ratio, kObjectRatioFloor) * total_max;
  if (budget >= total_max) return std::vector<double>(objects.size(), 1.0);

  // Sensitivity: degradation at the common reference ratio minus the
  // degradation at full quality — how much this object suffers from
  // decimation (paper, Section IV-D "Triangle Distribution").
  std::vector<double> weight(objects.size());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const ObjectState& o = objects[i];
    const double s =
        render::degradation_error(o.params, kSensitivityReferenceRatio,
                                  o.distance) -
        render::degradation_error(o.params, 1.0, o.distance);
    weight[i] = std::max(s, 1e-6);
  }

  // Hand the budget out proportionally to weight * size, clamping into
  // [floor, 1] and redistributing the slack over a few passes (objects are
  // processed in descending sensitivity order, hence the O(L log L) sort).
  std::vector<std::size_t> order(objects.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return weight[a] > weight[b];
  });

  std::vector<double> ratios(objects.size(), 0.0);
  std::vector<bool> fixed(objects.size(), false);
  double remaining_budget = budget;
  double remaining_weight = 0.0;
  for (std::size_t i = 0; i < objects.size(); ++i)
    remaining_weight +=
        weight[i] * static_cast<double>(objects[i].max_triangles);

  for (int pass = 0; pass < 4; ++pass) {
    bool clamped_any = false;
    for (std::size_t idx : order) {
      if (fixed[idx]) continue;
      const double t = static_cast<double>(objects[idx].max_triangles);
      const double share =
          remaining_weight > 0.0
              ? remaining_budget * (weight[idx] * t) / remaining_weight
              : 0.0;
      const double r = share / t;
      if (r >= 1.0 || r <= kObjectRatioFloor) {
        ratios[idx] = clampd(r, kObjectRatioFloor, 1.0);
        fixed[idx] = true;
        remaining_budget -= ratios[idx] * t;
        remaining_weight -= weight[idx] * t;
        clamped_any = true;
      } else {
        ratios[idx] = r;
      }
    }
    if (!clamped_any) break;
  }
  for (auto& r : ratios) r = clampd(r, kObjectRatioFloor, 1.0);
  return ratios;
}

double assignment_quality(const std::vector<ObjectState>& objects,
                          const std::vector<double>& ratios) {
  HB_REQUIRE(objects.size() == ratios.size(), "size mismatch");
  if (objects.empty()) return 1.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    acc += render::object_quality(objects[i].params, ratios[i],
                                  objects[i].distance);
  }
  return acc / static_cast<double>(objects.size());
}

double assignment_triangles(const std::vector<ObjectState>& objects,
                            const std::vector<double>& ratios) {
  HB_REQUIRE(objects.size() == ratios.size(), "size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < objects.size(); ++i)
    acc += ratios[i] * static_cast<double>(objects[i].max_triangles);
  return acc;
}

}  // namespace hbosim::core
