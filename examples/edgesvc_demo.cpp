// Edge-service demo: the three operating regimes of the shared edge
// server, from a single uncontended tenant to fleet-scale overload.
//
//   1. Uncontended — a lone tenant over a clean link reproduces the
//      closed-form delay (server time + LinkModel::nominal_seconds) that
//      the decimation service charges without an edge client, exactly.
//   2. Queueing — dozens of tenants push the box near its saturation
//      point: the tail (p99) inflates long before anything is dropped.
//   3. Overload — a starved link in front of a small box: requests
//      bounce at the admission queue and clients fall back on-device
//      (nearest cached LOD / local BO), yet every session completes.

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <vector>

#include "hbosim/common/stats.hpp"
#include "hbosim/edgesvc/broker.hpp"
#include "hbosim/edgesvc/link_model.hpp"
#include "hbosim/fleet/fleet_simulator.hpp"

int main() {
  using namespace hbosim;
  using namespace hbosim::edgesvc;
  std::cout << std::fixed << std::setprecision(3);

  // ---- Regime 1: uncontended tenant matches the closed form ----
  std::cout << "[1] Uncontended: edgesvc vs closed-form link delay\n";
  {
    EdgeServiceSpec spec;  // defaults: degenerate link, no jitter/loss
    EdgeBroker broker(spec, /*session_tenants=*/1);
    auto client = broker.make_client(/*tenant_id=*/0, /*session_seed=*/42);

    const double units = 0.3;                      // 300k-triangle mesh
    const std::uint64_t payload = 2'400'000;       // ~2.4 MB download
    const EdgeResponse resp =
        client->perform(RequestClass::Decimation, units, payload, 0.0);

    const LinkModel link;  // same defaults: 20 ms RTT, 120 Mbit/s
    const double closed_form =
        spec.server.service_seconds(RequestClass::Decimation, units) +
        link.nominal_seconds(payload);

    std::cout << "    edgesvc elapsed   = " << resp.elapsed_s * 1e3
              << " ms\n    closed form       = " << closed_form * 1e3
              << " ms\n";
    if (std::abs(resp.elapsed_s - closed_form) > 1e-12) {
      std::cerr << "    MISMATCH — compatibility contract broken\n";
      return 1;
    }
    std::cout << "    exact match (|diff| <= 1e-12)\n\n";
  }

  // ---- Regime 2: queueing — the tail inflates, nothing is dropped ----
  std::cout << "[2] Queueing: 64 heavy tenants on the wifi preset\n";
  {
    EdgeServiceSpec spec = edge_service_preset("wifi");
    spec.background.per_tenant_rps = 3.0;
    spec.background.mean_units = 0.5;
    EdgeBroker broker(spec, /*session_tenants=*/64);
    auto client = broker.make_client(0, 42);

    std::vector<double> elapsed_ms;
    for (int i = 0; i < 200; ++i) {
      const EdgeResponse r = client->perform(
          RequestClass::Decimation, 0.2, 1'500'000, 0.25 * (i + 1));
      elapsed_ms.push_back(r.elapsed_s * 1e3);
    }
    std::sort(elapsed_ms.begin(), elapsed_ms.end());
    const EdgeServerStats& srv = client->server().stats();
    std::cout << "    p50=" << percentile(elapsed_ms, 50.0)
              << " ms  p99=" << percentile(elapsed_ms, 99.0)
              << " ms  queue depth p95=" << std::setprecision(1)
              << srv.queue_depth_p95() << std::setprecision(3)
              << "  rejection rate=" << srv.rejection_rate() << "\n\n";
  }

  // ---- Regime 3: overload — rejections + fallbacks, sessions finish ----
  std::cout << "[3] Overload: 8-session fleet + 96 extra tenants on the "
               "congested preset\n";
  {
    fleet::FleetSpec spec;
    spec.sessions = 8;
    spec.threads = 0;
    spec.duration_s = 30.0;
    spec.base_seed = 2024;
    spec.use_shared_pool = true;
    spec.session.hbo.n_initial = 3;
    spec.session.hbo.n_iterations = 4;
    spec.session.hbo.selection_candidates = 1;
    spec.session.hbo.control_period_s = 1.0;
    spec.session.hbo.monitor_period_s = 1.0;
    spec.use_edge_service = true;
    spec.edge = edge_service_preset("congested");
    spec.edge.extra_tenants = 96;
    spec.edge.background.per_tenant_rps = 4.0;

    fleet::FleetSimulator simulator(spec);
    const fleet::FleetResult result = simulator.run();
    const fleet::FleetMetrics& m = result.metrics;

    std::size_t completed = 0;
    for (const fleet::SessionResult& s : result.sessions) {
      if (s.activations > 0) ++completed;
    }
    std::cout << "    sessions completed = " << completed << "/"
              << m.sessions << " (mean reward " << m.reward.mean << ")\n"
              << "    edge: " << m.edge.requests << " requests, rejection "
              << "rate=" << m.edge.rejection_rate
              << ", fallback rate=" << m.edge.fallback_rate << " ("
              << m.edge.decim_fallbacks << " nearest-LOD, "
              << m.edge.bo_fallbacks << " local-BO)\n";
    if (completed != static_cast<std::size_t>(m.sessions)) {
      std::cerr << "    FAIL — overload stalled sessions\n";
      return 1;
    }
    if (m.edge.rejection_rate <= 0.0 || m.edge.fallback_rate <= 0.0) {
      std::cerr << "    FAIL — overload regime did not materialize\n";
      return 1;
    }
    std::cout << "    graceful degradation: every session finished\n";
  }
  return 0;
}
