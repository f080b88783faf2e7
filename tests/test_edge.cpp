// Tests for the edge module: LRU cache, decimation service, and the
// closed-form link delay of its cache misses.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "hbosim/common/error.hpp"
#include "hbosim/edge/decimation_service.hpp"
#include "hbosim/edgesvc/edge_server.hpp"
#include "hbosim/edgesvc/link_model.hpp"

namespace hbosim::edge {
namespace {

TEST(LruCache, HitMissAndRecency) {
  LruCache cache(2);
  EXPECT_EQ(cache.get("a"), nullptr);
  cache.put("a", 1);
  cache.put("b", 2);
  ASSERT_NE(cache.get("a"), nullptr);  // refresh "a"
  cache.put("c", 3);                   // evicts "b" (least recent)
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_FALSE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("c"));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCache, OverwriteUpdatesValueWithoutEviction) {
  LruCache cache(2);
  cache.put("a", 1);
  cache.put("a", 9);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.get("a"), 9u);
}

TEST(LruCache, ZeroCapacityThrows) {
  EXPECT_THROW(LruCache{0}, hbosim::Error);
}

render::MeshAsset test_asset() {
  return render::MeshAsset(
      "bike", 178552, render::synthesize_degradation_params("bike", 178552));
}

TEST(DecimationService, QuantizesRatiosUpward) {
  DecimationService svc;
  const int levels = DecimationService::kRatioLevels;
  EXPECT_DOUBLE_EQ(svc.quantize_ratio(0.0), 0.0);
  EXPECT_DOUBLE_EQ(svc.quantize_ratio(1.0), 1.0);
  const double q = svc.quantize_ratio(0.501);
  EXPECT_GE(q, 0.501);  // never serves a worse version than asked
  EXPECT_LE(q, 0.501 + 1.0 / levels);
  EXPECT_THROW(svc.quantize_ratio(1.5), hbosim::Error);
}

TEST(DecimationService, MissThenHitOnSameLevel) {
  DecimationService svc;
  const render::MeshAsset asset = test_asset();
  const DecimationResult first = svc.request(asset, 0.5);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_GT(first.delay_s, 0.0);
  EXPECT_EQ(first.triangles, asset.triangles_at(first.served_ratio));

  const DecimationResult second = svc.request(asset, 0.5);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_DOUBLE_EQ(second.delay_s, 0.0);
  EXPECT_EQ(second.triangles, first.triangles);
  EXPECT_EQ(svc.cache_hits(), 1u);
  EXPECT_EQ(svc.cache_misses(), 1u);
}

TEST(DecimationService, NearbyRatiosShareAQuantizedVersion) {
  DecimationService svc;
  const render::MeshAsset asset = test_asset();
  const DecimationResult a = svc.request(asset, 0.500);
  const DecimationResult b = svc.request(asset, 0.499);
  EXPECT_DOUBLE_EQ(a.served_ratio, b.served_ratio);
  EXPECT_TRUE(b.cache_hit);
}

TEST(DecimationService, BiggerPayloadsTakeLonger) {
  DecimationService svc;
  const render::MeshAsset asset = test_asset();
  const double small = svc.request(asset, 0.1).delay_s;
  const double large = svc.request(asset, 1.0).delay_s;
  EXPECT_GT(large, small);
}

TEST(DecimationService, MissDelayHasRttFloorAndThroughputTerm) {
  DecimationService svc;
  const render::MeshAsset asset = test_asset();
  const DecimationResult r = svc.request(asset, 1.0);
  ASSERT_FALSE(r.cache_hit);
  // The edge server's 35 ms per input Mtri, the default link's 20 ms RTT,
  // and 36 bytes per served triangle at 120 Mbit/s.
  const double server_s =
      0.035 * static_cast<double>(asset.max_triangles()) / 1e6;
  EXPECT_NEAR(r.delay_s,
              server_s + 0.020 +
                  static_cast<double>(r.triangles) * 36.0 * 8.0 / 120e6,
              1e-12);
  EXPECT_GT(r.delay_s, server_s + 0.020);
}

TEST(DecimationService, MissDelayMatchesLinkNominal) {
  // A closed-form miss costs the edge server's decimation time plus the
  // default link's nominal exchange time for the decimated mesh, bit for
  // bit.
  DecimationService svc;
  const edgesvc::LinkModel link;
  const render::MeshAsset asset = test_asset();
  for (double ratio : {0.1, 0.5, 1.0}) {
    const DecimationResult r = svc.request(asset, ratio);
    ASSERT_FALSE(r.cache_hit) << ratio;
    const double server_s = edgesvc::EdgeServerSpec::decimation_ms_per_mtri *
                            1e-3 * static_cast<double>(asset.max_triangles()) /
                            1e6;
    const auto payload = static_cast<std::uint64_t>(
        DecimationService::kBytesPerTriangle *
        static_cast<double>(r.triangles));
    EXPECT_EQ(r.delay_s, server_s + link.nominal_seconds(payload)) << ratio;
  }
}

TEST(DecimationService, DistinctAssetsDoNotCollide) {
  DecimationService svc;
  const render::MeshAsset bike = test_asset();
  const render::MeshAsset plane(
      "plane", 146803, render::synthesize_degradation_params("plane", 146803));
  svc.request(bike, 0.5);
  const DecimationResult r = svc.request(plane, 0.5);
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(r.triangles, plane.triangles_at(r.served_ratio));
}

TEST(DecimationService, EvictionForcesRefetch) {
  DecimationService svc;
  const render::MeshAsset asset = test_asset();
  svc.request(asset, 0.25);
  // Fill the cache with kCacheCapacity newer versions of other objects:
  // the 0.25 version is now the least recent and gets evicted.
  const int per_object = DecimationService::kRatioLevels;
  const int objects =
      static_cast<int>(DecimationService::kCacheCapacity) / per_object;
  for (int o = 0; o < objects; ++o) {
    const std::string name = "filler" + std::to_string(o);
    const render::MeshAsset filler(
        name, 100000, render::synthesize_degradation_params(name, 100000));
    for (int level = 1; level <= per_object; ++level)
      ASSERT_FALSE(
          svc.request(filler, static_cast<double>(level) / per_object)
              .cache_hit);
  }
  const DecimationResult again = svc.request(asset, 0.25);
  EXPECT_FALSE(again.cache_hit);
}

}  // namespace
}  // namespace hbosim::edge
