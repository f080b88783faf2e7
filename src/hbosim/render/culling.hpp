#pragma once

/// \file culling.hpp
/// Backface / view-dependent culling model (Section IV-E of the paper
/// points at OpenGL backface culling as the mechanism by which user-object
/// distance changes AI latency). Roughly half of a closed mesh's triangles
/// always face away; as the user steps back, the object covers fewer
/// pixels and the rasterizer retires the remaining triangles more cheaply,
/// which we fold into a shrinking *effective* visible fraction.

namespace hbosim::render {

struct CullingModel {
  /// Fraction of triangles surviving backface culling up close.
  static constexpr double near_fraction = 0.95;
  /// Asymptotic fraction as distance grows (backface-culled and
  /// sub-pixel geometry contribute no GPU load).
  static constexpr double far_fraction = 0.45;
  static_assert(near_fraction > far_fraction, "near fraction must dominate");
  /// Distance (meters) at which half the near->far transition happened.
  static constexpr double half_distance_m = 4.0;

  /// Visible (GPU-loading) triangle fraction at the given distance.
  static double visible_fraction(double distance_m);
};

}  // namespace hbosim::render
