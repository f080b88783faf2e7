#pragma once

#include <functional>

#include "hbosim/edge/cache.hpp"
#include "hbosim/edgesvc/edge_client.hpp"
#include "hbosim/edgesvc/link_model.hpp"
#include "hbosim/render/mesh.hpp"

/// \file decimation_service.hpp
/// The edge decimation server of Fig. 3. When HBO's triangle distributor
/// asks for a version of an object at some ratio, the service either
/// serves it from the device-local LRU cache (no cost) or "runs" the
/// decimation algorithm remotely and downloads the result, charging a
/// simulated delay (network transfer + server-side edge-collapse time
/// proportional to the mesh size). Ratios are quantized to a discrete
/// level grid, exactly as a real deployment caches a bounded set of
/// versions per object.
///
/// Two remote paths exist:
///  - the closed form (default): the edge server's decimation time
///    (edgesvc::EdgeServerSpec::decimation_ms_per_mtri) plus the default
///    link's nominal exchange time (edgesvc::LinkModel::nominal_seconds —
///    base RTT plus payload over throughput), always succeeds;
///  - a contended edgesvc::EdgeClient (via attach_edge): the request
///    competes with other tenants for the shared edge box over a lossy
///    link, and can fail. On failure the device degrades gracefully —
///    it serves the nearest already-cached LOD of the same object, or
///    keeps the currently displayed version if nothing is cached.

namespace hbosim::edge {

struct DecimationResult {
  std::uint64_t triangles = 0;  ///< Triangles in the served version.
  double served_ratio = 0.0;    ///< Quantized ratio actually served.
  double delay_s = 0.0;         ///< Simulated fetch delay (0 on cache hit).
  bool cache_hit = false;
  /// Edge request failed and a degraded substitute was served instead.
  bool fallback = false;
  /// Fallback found nothing cached for this object: keep the version the
  /// device is already displaying (triangles/served_ratio not meaningful).
  bool unchanged = false;
  /// Attempts the edge client spent on this request (0 on cache hit or
  /// closed-form path).
  int edge_attempts = 0;
};

class DecimationService {
 public:
  /// Decimated versions the device-local LRU cache holds.
  static constexpr std::size_t kCacheCapacity = 256;
  /// Quantization levels for cacheable ratios (ratio rounded to 1/levels).
  static constexpr int kRatioLevels = 64;
  /// Mesh payload size per triangle (position+normal+index data).
  static constexpr double kBytesPerTriangle = 36.0;

  DecimationService();

  /// Route cache misses through a contended edge service instead of the
  /// closed form. `clock` supplies the current simulation
  /// time (the edge server mirror needs real arrival times to model
  /// queueing). Pass nullptr to detach and restore the closed form.
  void attach_edge(edgesvc::EdgeClient* client,
                   std::function<double()> clock);

  /// Request `asset` decimated to `ratio` (in [0,1]).
  DecimationResult request(const render::MeshAsset& asset, double ratio);

  std::uint64_t cache_hits() const { return cache_.hits(); }
  std::uint64_t cache_misses() const { return cache_.misses(); }
  std::uint64_t edge_fallbacks() const { return edge_fallbacks_; }

  /// Quantize a ratio onto the service's level grid (never returns 0
  /// unless the input is 0).
  double quantize_ratio(double ratio) const;

 private:
  DecimationResult nearest_cached_lod(const render::MeshAsset& asset,
                                      double wanted_ratio) const;

  edgesvc::LinkModel link_;  ///< The closed form's default link.
  LruCache cache_;
  edgesvc::EdgeClient* edge_ = nullptr;
  std::function<double()> clock_;
  std::uint64_t edge_fallbacks_ = 0;
};

}  // namespace hbosim::edge
