// Tests for the edge module: LRU cache, decimation service, and the
// closed-form link delay of its cache misses.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "hbosim/common/error.hpp"
#include "hbosim/edge/decimation_service.hpp"
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
  const int levels = svc.config().ratio_levels;
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
  DecimationServiceConfig cfg;
  cfg.rtt_ms = 20.0;
  cfg.mbit_per_s = 80.0;
  cfg.server_ms_per_mtri = 0.0;  // isolate the link term
  cfg.bytes_per_triangle = 1.0;
  DecimationService svc(cfg);
  const render::MeshAsset asset = test_asset();
  const DecimationResult r = svc.request(asset, 1.0);
  ASSERT_FALSE(r.cache_hit);
  // RTT plus the payload (one byte per triangle) at 80 Mbit/s.
  EXPECT_NEAR(r.delay_s,
              0.020 + static_cast<double>(r.triangles) * 8.0 / 80e6, 1e-12);
  EXPECT_GT(r.delay_s, 0.020);
}

TEST(DecimationService, MissDelayMatchesLinkNominal) {
  // A closed-form miss costs the server's decimation time plus the link's
  // nominal exchange time for the decimated mesh, bit for bit.
  DecimationServiceConfig cfg;
  cfg.rtt_ms = 12.0;
  cfg.mbit_per_s = 200.0;
  DecimationService svc(cfg);
  const edgesvc::LinkModel link(
      edgesvc::LinkModelConfig{cfg.rtt_ms, cfg.mbit_per_s});
  const render::MeshAsset asset = test_asset();
  for (double ratio : {0.1, 0.5, 1.0}) {
    const DecimationResult r = svc.request(asset, ratio);
    ASSERT_FALSE(r.cache_hit) << ratio;
    const double server_s = cfg.server_ms_per_mtri * 1e-3 *
                            static_cast<double>(asset.max_triangles()) / 1e6;
    const auto payload = static_cast<std::uint64_t>(
        cfg.bytes_per_triangle * static_cast<double>(r.triangles));
    EXPECT_EQ(r.delay_s, server_s + link.nominal_seconds(payload)) << ratio;
  }
}

TEST(DecimationService, RejectsNearZeroThroughputAndNonFiniteLinks) {
  // Regression: a near-zero bandwidth used to slip past validation and
  // turn downloads into astronomically large DES event times. The
  // service refuses such a link when built, before any request.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<double, double>> bad_links = {
      {20.0, 1e-9}, {20.0, 0.0}, {nan, 120.0}, {20.0, inf}, {-5.0, 120.0}};
  for (const auto& [rtt_ms, mbit_per_s] : bad_links) {
    DecimationServiceConfig cfg;
    cfg.rtt_ms = rtt_ms;
    cfg.mbit_per_s = mbit_per_s;
    EXPECT_THROW(DecimationService{cfg}, hbosim::Error)
        << rtt_ms << " ms, " << mbit_per_s << " Mbit/s";
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

TEST(DecimationService, ParameterTrainingIsDeterministicAndValid) {
  DecimationService svc;
  const auto p1 = svc.train_parameters("bike", 178552);
  const auto p2 = svc.train_parameters("bike", 178552);
  EXPECT_TRUE(p1.valid());
  EXPECT_DOUBLE_EQ(p1.a, p2.a);
  EXPECT_DOUBLE_EQ(p1.d, p2.d);
}

TEST(DecimationService, EvictionForcesRefetch) {
  DecimationServiceConfig cfg;
  cfg.cache_capacity = 1;
  DecimationService svc(cfg);
  const render::MeshAsset asset = test_asset();
  svc.request(asset, 0.25);
  svc.request(asset, 0.75);  // evicts the 0.25 version
  const DecimationResult again = svc.request(asset, 0.25);
  EXPECT_FALSE(again.cache_hit);
}

}  // namespace
}  // namespace hbosim::edge
