// Tests for the scene: object management, Eq. 2 averaging, culled load,
// and the change-listener coupling.

#include <gtest/gtest.h>

#include "hbosim/common/error.hpp"
#include "hbosim/render/render_load.hpp"
#include "hbosim/render/scene.hpp"
#include "hbosim/soc/devices_builtin.hpp"

namespace hbosim::render {
namespace {

std::shared_ptr<const MeshAsset> make_asset(const std::string& name,
                                            std::uint64_t tris) {
  return std::make_shared<const MeshAsset>(
      name, tris, synthesize_degradation_params(name, tris));
}

TEST(Scene, EmptySceneDefaults) {
  Scene scene;
  EXPECT_TRUE(scene.empty());
  EXPECT_EQ(scene.total_max_triangles(), 0u);
  EXPECT_EQ(scene.current_triangles(), 0u);
  EXPECT_DOUBLE_EQ(scene.current_ratio(), 1.0);
  EXPECT_DOUBLE_EQ(scene.average_quality(), 1.0);
  EXPECT_DOUBLE_EQ(scene.culled_triangles(), 0.0);
}

TEST(Scene, AddRemoveAndTotals) {
  Scene scene;
  const ObjectId a = scene.add_object(make_asset("a", 1000), 1.0);
  const ObjectId b = scene.add_object(make_asset("b", 3000), 2.0);
  EXPECT_EQ(scene.object_count(), 2u);
  EXPECT_EQ(scene.total_max_triangles(), 4000u);
  EXPECT_EQ(scene.current_triangles(), 4000u);
  EXPECT_TRUE(scene.has_object(a));
  scene.remove_object(a);
  EXPECT_FALSE(scene.has_object(a));
  EXPECT_EQ(scene.total_max_triangles(), 3000u);
  EXPECT_THROW(scene.remove_object(a), hbosim::Error);
  EXPECT_TRUE(scene.has_object(b));
}

TEST(Scene, RatiosDriveCurrentTriangles) {
  Scene scene;
  const ObjectId a = scene.add_object(make_asset("a", 1000), 1.0);
  const ObjectId b = scene.add_object(make_asset("b", 3000), 2.0);
  scene.set_ratio(a, 0.5);
  EXPECT_EQ(scene.current_triangles(), 3500u);
  EXPECT_NEAR(scene.current_ratio(), 3500.0 / 4000.0, 1e-12);
  scene.set_ratio(b, 0.5);
  EXPECT_EQ(scene.current_triangles(), 2000u);
}

TEST(Scene, AverageQualityIsEquationTwo) {
  Scene scene;
  const ObjectId a = scene.add_object(make_asset("a", 1000), 1.0);
  const ObjectId b = scene.add_object(make_asset("b", 3000), 2.0);
  const double qa = scene.object(a).quality(scene.effective_distance(a));
  const double qb = scene.object(b).quality(scene.effective_distance(b));
  EXPECT_NEAR(scene.average_quality(), 0.5 * (qa + qb), 1e-12);
}

TEST(Scene, DistanceScaleImprovesQualityAndCutsCulledLoad) {
  Scene scene;
  const ObjectId a = scene.add_object(make_asset("a", 100000), 1.5);
  scene.set_ratio(a, 0.4);
  const double q_near = scene.average_quality();
  const double load_near = scene.culled_triangles();
  scene.set_user_distance_scale(3.0);
  EXPECT_GT(scene.average_quality(), q_near);
  EXPECT_LT(scene.culled_triangles(), load_near);
  EXPECT_THROW(scene.set_user_distance_scale(0.0), hbosim::Error);
}

TEST(Scene, CulledTrianglesRespectVisibleFraction) {
  Scene scene;
  scene.add_object(make_asset("a", 100000), 2.0);
  const double expected = 100000.0 * CullingModel::visible_fraction(2.0);
  EXPECT_NEAR(scene.culled_triangles(), expected, 1e-9);
}

TEST(Scene, ChangeListenerFiresOnEveryMutation) {
  Scene scene;
  int fired = 0;
  scene.set_change_listener([&] { ++fired; });
  const ObjectId a = scene.add_object(make_asset("a", 1000), 1.0);
  scene.set_ratio(a, 0.5);
  scene.set_user_distance_scale(2.0);
  scene.set_ratio(a, 1.0);
  scene.remove_object(a);
  EXPECT_EQ(fired, 5);
}

TEST(Scene, EffectiveDistanceMultipliesBaseDistance) {
  Scene scene;
  const ObjectId a = scene.add_object(make_asset("a", 1000), 1.5);
  scene.set_user_distance_scale(2.0);
  EXPECT_DOUBLE_EQ(scene.effective_distance(a), 3.0);
}

TEST(RenderLoadBinder, PushesSceneLoadIntoSoc) {
  des::Simulator sim;
  const soc::DeviceProfile device = soc::pixel7();
  soc::SocRuntime soc(sim, device);
  Scene scene;
  RenderLoadBinder binder(scene, soc);
  EXPECT_DOUBLE_EQ(soc.gpu().background_utilization(), 0.0);

  const ObjectId big = scene.add_object(make_asset("big", 900000), 1.0);
  const double expected = device.render().gpu_load(scene.culled_triangles());
  EXPECT_NEAR(soc.gpu().background_utilization(), expected, 1e-12);
  EXPECT_NEAR(binder.current_gpu_load(), expected, 1e-12);

  scene.set_ratio(big, 0.2);
  EXPECT_LT(soc.gpu().background_utilization(), expected);
}

TEST(VirtualObject, AccessorsAndValidation) {
  auto asset = make_asset("a", 1000);
  VirtualObject obj(1, asset, 2.0);
  EXPECT_EQ(obj.id(), 1u);
  EXPECT_EQ(obj.triangles(), 1000u);
  obj.set_ratio(0.25);
  EXPECT_EQ(obj.triangles(), 250u);
  EXPECT_DOUBLE_EQ(obj.base_distance(), 2.0);
  EXPECT_THROW(obj.set_ratio(2.0), hbosim::Error);
  EXPECT_THROW(VirtualObject(2, asset, -1.0), hbosim::Error);
  EXPECT_THROW(VirtualObject(2, nullptr, 1.0), hbosim::Error);
}

}  // namespace
}  // namespace hbosim::render
