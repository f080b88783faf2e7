#include "hbosim/render/object.hpp"

#include "hbosim/common/error.hpp"
#include "hbosim/render/degradation.hpp"

namespace hbosim::render {

VirtualObject::VirtualObject(ObjectId id,
                             std::shared_ptr<const MeshAsset> asset,
                             double distance_m)
    : id_(id), asset_(std::move(asset)), base_distance_m_(distance_m) {
  HB_REQUIRE(asset_ != nullptr, "VirtualObject needs a mesh asset");
  HB_REQUIRE(base_distance_m_ > 0.0, "object distance must be positive");
}

void VirtualObject::set_ratio(double r) {
  HB_REQUIRE(r >= 0.0 && r <= 1.0, "decimation ratio must be in [0,1]");
  ratio_ = r;
}

double VirtualObject::quality(double effective_distance) const {
  return object_quality(asset_->params(), ratio_, effective_distance);
}

double VirtualObject::degradation(double effective_distance) const {
  return degradation_error(asset_->params(), ratio_, effective_distance);
}

}  // namespace hbosim::render
