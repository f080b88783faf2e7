#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "hbosim/render/culling.hpp"
#include "hbosim/render/object.hpp"

/// \file scene.hpp
/// The augmented scene: the set of on-screen virtual objects, the user's
/// position (as a distance scale applied to every object), and the
/// scene-level quantities HBO consumes — total/maximum triangle counts,
/// culled triangle load, and the average quality Q_t of Eq. 2.

namespace hbosim::render {

class Scene {
 public:
  using ChangeListener = std::function<void()>;

  /// Place an object; returns its id. Fires the change listener.
  ObjectId add_object(std::shared_ptr<const MeshAsset> asset,
                      double distance_m);
  void remove_object(ObjectId id);
  bool has_object(ObjectId id) const;

  VirtualObject& object(ObjectId id);
  const VirtualObject& object(ObjectId id) const;
  std::vector<ObjectId> object_ids() const;
  std::size_t object_count() const { return objects_.size(); }
  bool empty() const { return objects_.empty(); }

  /// Multiplier on every object's base distance: the user walking away
  /// doubles it, stepping closer shrinks it. Fires the change listener.
  void set_user_distance_scale(double scale);

  /// Effective viewing distance of one object.
  double effective_distance(ObjectId id) const;

  /// Sum of max triangle counts across objects (the paper's T^max).
  std::uint64_t total_max_triangles() const;
  /// Sum of currently rendered triangle counts.
  std::uint64_t current_triangles() const;
  /// Current total ratio: current/total_max (1 for an empty scene).
  double current_ratio() const;

  /// Rendered triangles surviving culling at current distances — the
  /// quantity that loads the GPU.
  double culled_triangles() const;

  /// Average virtual-object quality Q_t (Eq. 2); 1 for an empty scene.
  double average_quality() const;

  /// Apply a per-object decimation ratio (from the triangle distributor).
  void set_ratio(ObjectId id, double ratio);

  /// Invoked after every mutation that changes render load (add/remove,
  /// ratio change, distance change) — the app wires this to the SoC's
  /// render-load update.
  void set_change_listener(ChangeListener listener);

 private:
  void notify();

  std::map<ObjectId, VirtualObject> objects_;
  ObjectId next_id_ = 1;
  double distance_scale_ = 1.0;
  ChangeListener listener_;
};

}  // namespace hbosim::render
