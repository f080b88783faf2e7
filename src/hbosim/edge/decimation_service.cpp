#include "hbosim/edge/decimation_service.hpp"

#include <cmath>
#include <cstdlib>

#include "hbosim/common/error.hpp"
#include "hbosim/telemetry/telemetry.hpp"

namespace hbosim::edge {

DecimationService::DecimationService() : cache_(kCacheCapacity) {}

void DecimationService::attach_edge(edgesvc::EdgeClient* client,
                                    std::function<double()> clock) {
  HB_REQUIRE(client == nullptr || static_cast<bool>(clock),
             "attaching an edge client requires a simulation clock");
  edge_ = client;
  clock_ = std::move(clock);
}

double DecimationService::quantize_ratio(double ratio) const {
  HB_REQUIRE(ratio >= 0.0 && ratio <= 1.0, "ratio must be in [0,1]");
  if (ratio == 0.0) return 0.0;
  const double levels = static_cast<double>(kRatioLevels);
  const double q = std::ceil(ratio * levels) / levels;  // never degrade below ask
  return std::min(q, 1.0);
}

DecimationResult DecimationService::nearest_cached_lod(
    const render::MeshAsset& asset, double wanted_ratio) const {
  // Scan the cache for versions of this object ("name@level" keys) and
  // pick the level closest to the one we wanted, preferring the higher
  // LOD on ties. No recency update: this is an emergency substitute, not
  // a normal access.
  const std::string prefix = asset.name() + "@";
  const double wanted_level = wanted_ratio * kRatioLevels;
  int best_level = -1;
  std::uint64_t best_triangles = 0;
  cache_.for_each_entry([&](const std::string& key, std::uint64_t triangles) {
    if (key.compare(0, prefix.size(), prefix) != 0) return;
    const int level = std::atoi(key.c_str() + prefix.size());
    if (best_level < 0 ||
        std::abs(level - wanted_level) < std::abs(best_level - wanted_level) ||
        (std::abs(level - wanted_level) == std::abs(best_level - wanted_level) &&
         level > best_level)) {
      best_level = level;
      best_triangles = triangles;
    }
  });

  DecimationResult out;
  out.fallback = true;
  if (best_level < 0) {
    // Nothing cached at all: keep showing whatever version is on screen.
    out.unchanged = true;
    return out;
  }
  out.triangles = best_triangles;
  out.served_ratio =
      static_cast<double>(best_level) / static_cast<double>(kRatioLevels);
  return out;
}

DecimationResult DecimationService::request(const render::MeshAsset& asset,
                                            double ratio) {
  DecimationResult out;
  out.served_ratio = quantize_ratio(ratio);
  const std::string key = compose_key(
      {asset.name(),
       std::to_string(
           static_cast<int>(std::lround(out.served_ratio * kRatioLevels)))});

  if (const std::uint64_t* cached = cache_.get(key)) {
    out.triangles = *cached;
    out.cache_hit = true;
    out.delay_s = 0.0;
    HB_TELEM_COUNT("edge.cache_hits", 1.0);
    return out;
  }
  HB_TELEM_COUNT("edge.cache_misses", 1.0);

  // Cache miss: the server decimates from the full-resolution mesh and the
  // device downloads the decimated version.
  out.triangles = asset.triangles_at(out.served_ratio);
  out.cache_hit = false;
  const double server_s = edgesvc::EdgeServerSpec::decimation_ms_per_mtri *
                          1e-3 * static_cast<double>(asset.max_triangles()) /
                          1e6;
  const auto payload = static_cast<std::uint64_t>(
      kBytesPerTriangle * static_cast<double>(out.triangles));

  if (edge_ == nullptr) {
    out.delay_s = server_s + link_.nominal_seconds(payload);
    cache_.put(key, out.triangles);
    return out;
  }

  // Contended path: decimation work is priced by the shared server's own
  // spec (units = millions of input triangles); the response payload is
  // the decimated mesh.
  const edgesvc::EdgeResponse resp = edge_->perform(
      edgesvc::RequestClass::Decimation,
      static_cast<double>(asset.max_triangles()) / 1e6, payload, clock_());
  if (resp.ok) {
    out.delay_s = resp.elapsed_s;
    out.edge_attempts = resp.attempts;
    cache_.put(key, out.triangles);
    return out;
  }

  // Edge gave up: degrade to the nearest LOD already on device. The time
  // spent retrying is still charged — the user waited through it.
  ++edge_fallbacks_;
  HB_TELEM_COUNT("edge.decim_fallbacks", 1.0);
  DecimationResult degraded = nearest_cached_lod(asset, out.served_ratio);
  degraded.delay_s = resp.elapsed_s;
  degraded.edge_attempts = resp.attempts;
  return degraded;
}

}  // namespace hbosim::edge
