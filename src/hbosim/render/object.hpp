#pragma once

#include <memory>

#include "hbosim/common/types.hpp"
#include "hbosim/render/mesh.hpp"

/// \file object.hpp
/// A placed instance of a mesh asset in the augmented scene: its distance
/// from the user and the decimation ratio currently rendered.

namespace hbosim::render {

class VirtualObject {
 public:
  VirtualObject(ObjectId id, std::shared_ptr<const MeshAsset> asset,
                double distance_m);

  ObjectId id() const { return id_; }
  const MeshAsset& asset() const { return *asset_; }

  /// Distance at which the object was placed (meters).
  double base_distance() const { return base_distance_m_; }

  /// Decimation ratio currently on screen (selected/max triangles).
  double ratio() const { return ratio_; }
  void set_ratio(double r);

  /// Triangle count of the currently rendered version.
  std::uint64_t triangles() const { return asset_->triangles_at(ratio_); }

  /// Perceived quality (Eq. 1-2) at an *effective* viewing distance
  /// (base distance times the scene's user-distance scale).
  double quality(double effective_distance) const;
  double degradation(double effective_distance) const;

 private:
  ObjectId id_;
  std::shared_ptr<const MeshAsset> asset_;
  double base_distance_m_;
  double ratio_ = 1.0;
};

}  // namespace hbosim::render
