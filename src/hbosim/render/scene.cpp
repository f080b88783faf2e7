#include "hbosim/render/scene.hpp"

#include "hbosim/common/error.hpp"

namespace hbosim::render {

ObjectId Scene::add_object(std::shared_ptr<const MeshAsset> asset,
                           double distance_m) {
  const ObjectId id = next_id_++;
  objects_.emplace(id, VirtualObject(id, std::move(asset), distance_m));
  notify();
  return id;
}

void Scene::remove_object(ObjectId id) {
  HB_REQUIRE(objects_.erase(id) > 0, "unknown object id");
  notify();
}

bool Scene::has_object(ObjectId id) const { return objects_.count(id) > 0; }

VirtualObject& Scene::object(ObjectId id) {
  auto it = objects_.find(id);
  HB_REQUIRE(it != objects_.end(), "unknown object id");
  return it->second;
}

const VirtualObject& Scene::object(ObjectId id) const {
  auto it = objects_.find(id);
  HB_REQUIRE(it != objects_.end(), "unknown object id");
  return it->second;
}

std::vector<ObjectId> Scene::object_ids() const {
  std::vector<ObjectId> ids;
  ids.reserve(objects_.size());
  for (const auto& [id, obj] : objects_) ids.push_back(id);
  return ids;
}

void Scene::set_user_distance_scale(double scale) {
  HB_REQUIRE(scale > 0.0, "distance scale must be positive");
  distance_scale_ = scale;
  notify();
}

double Scene::effective_distance(ObjectId id) const {
  return object(id).base_distance() * distance_scale_;
}

std::uint64_t Scene::total_max_triangles() const {
  std::uint64_t total = 0;
  for (const auto& [id, obj] : objects_) total += obj.asset().max_triangles();
  return total;
}

std::uint64_t Scene::current_triangles() const {
  std::uint64_t total = 0;
  for (const auto& [id, obj] : objects_) total += obj.triangles();
  return total;
}

double Scene::current_ratio() const {
  const std::uint64_t max = total_max_triangles();
  if (max == 0) return 1.0;
  return static_cast<double>(current_triangles()) / static_cast<double>(max);
}

double Scene::culled_triangles() const {
  double total = 0.0;
  for (const auto& [id, obj] : objects_) {
    const double dist = obj.base_distance() * distance_scale_;
    total += static_cast<double>(obj.triangles()) *
             CullingModel::visible_fraction(dist);
  }
  return total;
}

double Scene::average_quality() const {
  if (objects_.empty()) return 1.0;
  double acc = 0.0;
  for (const auto& [id, obj] : objects_) {
    acc += obj.quality(obj.base_distance() * distance_scale_);
  }
  return acc / static_cast<double>(objects_.size());
}

void Scene::set_ratio(ObjectId id, double ratio) {
  object(id).set_ratio(ratio);
  notify();
}

void Scene::set_change_listener(ChangeListener listener) {
  listener_ = std::move(listener);
}

void Scene::notify() {
  if (listener_) listener_();
}

}  // namespace hbosim::render
