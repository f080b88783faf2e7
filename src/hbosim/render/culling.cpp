#include "hbosim/render/culling.hpp"

#include "hbosim/common/error.hpp"

namespace hbosim::render {

double CullingModel::visible_fraction(double distance_m) {
  HB_REQUIRE(distance_m > 0.0, "distance must be positive");
  // Smooth rational falloff: f(0) ~ near, f(half) = midpoint, f(inf) = far.
  const double x = distance_m / half_distance_m;
  return far_fraction + (near_fraction - far_fraction) / (1.0 + x * x);
}

}  // namespace hbosim::render
