#pragma once

#include <cstdint>
#include <vector>

#include "hbosim/render/degradation.hpp"

/// \file triangle_distribution.hpp
/// Algorithm 1, line 23 — the TD function: split the total triangle budget
/// x * T^max across the L on-screen virtual objects to maximize the
/// average quality of Eq. 2.
///
/// Two implementations are provided:
///
///  - `distribute_waterfill` (default): because each object's degradation
///    (Eq. 1) is convex and decreasing in its ratio, maximizing the sum of
///    qualities under a triangle budget is a separable concave program;
///    the exact solution equalizes the marginal quality-per-triangle
///    across objects (water-filling on the Lagrange multiplier, solved by
///    bisection with per-object clamping to [r_min, 1]).
///
///  - `distribute_sensitivity`: the paper's prose description — weight
///    objects by the sensitivity of their degradation to triangle
///    variations (degradation at a common reference ratio minus current
///    degradation), sort, and hand out triangles proportionally. Kept for
///    the ablation bench; the water-filling solution dominates it by
///    construction.
///
/// Both respect the budget exactly (up to rounding) and never assign a
/// ratio outside [kObjectRatioFloor, 1].

namespace hbosim::core {

/// What TD needs to know about one on-screen object.
struct ObjectState {
  render::DegradationParams params;
  double distance = 1.0;          ///< Effective viewing distance.
  std::uint64_t max_triangles = 1;
};

/// Per-object ratio floor (objects never vanish entirely).
inline constexpr double kObjectRatioFloor = 0.05;
static_assert(kObjectRatioFloor > 0.0 && kObjectRatioFloor <= 1.0,
              "object ratio floor must be in (0,1]");

/// Exact concave water-filling. `total_ratio` is the paper's x in
/// [0, 1]; returns one ratio per object (same order as `objects`).
std::vector<double> distribute_waterfill(
    const std::vector<ObjectState>& objects, double total_ratio);

/// The paper's sensitivity-weighted heuristic (O(L log L)).
std::vector<double> distribute_sensitivity(
    const std::vector<ObjectState>& objects, double total_ratio);

/// Average quality (Eq. 2) a ratio assignment would yield.
double assignment_quality(const std::vector<ObjectState>& objects,
                          const std::vector<double>& ratios);

/// Triangle total of a ratio assignment.
double assignment_triangles(const std::vector<ObjectState>& objects,
                            const std::vector<double>& ratios);

}  // namespace hbosim::core
