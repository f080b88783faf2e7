// Edge-service saturation sweep: one session's view of the shared edge
// box as the tenant count grows, for each admission-queue policy. Reports
// response-time percentiles (p50/p95/p99), the server-side rejection
// rate, the client-side fallback rate, and the queue depth p95 — the
// contention story EXPERIMENTS.md quotes.
//
// Not a paper artefact — the paper measures a single uncontended edge
// deployment (Fig. 3); this bench characterizes the multi-tenant regime
// the hbosim::edgesvc subsystem adds.
//
// Usage: bench_edgesvc [--smoke] [--json <path>]
//   --smoke   fewer tenants and requests (CI)
//   --json    write a machine-readable summary (default: BENCH_edgesvc.json)
// Any other argument exits 2 with "bench_edgesvc: <message>".

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hbosim/common/stats.hpp"
#include "hbosim/edgesvc/broker.hpp"

namespace {

using namespace hbosim;
using namespace hbosim::edgesvc;

struct CellResult {
  std::size_t tenants = 0;
  std::string policy;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  double rejection_rate = 0.0;
  double fallback_rate = 0.0;
  double queue_depth_p95 = 0.0;
  std::size_t requests = 0;
};

/// Drive one mirror client through a fixed request schedule: a MAR-like
/// mix of mesh-decimation downloads (a 200k-triangle object at cycling
/// ratios) and small remote-BO exchanges, one request every 250 ms.
CellResult run_cell(std::size_t tenants, QueuePolicy policy,
                    std::size_t requests) {
  EdgeServiceSpec spec = edge_service_preset("wifi");
  spec.server.policy = policy;
  // The preset's background tenants are deliberately light (fleet
  // realism); the sweep wants to cross the server's saturation point
  // inside the swept tenant range, so each background tenant here is a
  // heavy user. Offered server load reaches ~1.2 at 128 tenants.
  spec.background.per_tenant_rps = 3.0;
  spec.background.mean_units = 0.5;
  EdgeBroker broker(spec, tenants);
  auto client = broker.make_client(/*tenant_id=*/0, /*session_seed=*/0xB0B0);

  const double ratios[] = {0.3, 0.6, 1.0, 0.45};
  std::vector<double> elapsed_ms;
  elapsed_ms.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    const double now = 0.25 * static_cast<double>(i + 1);
    EdgeResponse resp;
    if (i % 5 == 4) {
      resp = client->perform(RequestClass::RemoteBo, 1.0, 88, now);
    } else {
      const double ratio = ratios[i % 4];
      const double units = 0.2;  // 200k-triangle source mesh
      const auto payload =
          static_cast<std::uint64_t>(ratio * 200'000.0 * 36.0);
      resp = client->perform(RequestClass::Decimation, units, payload, now);
    }
    // Failed requests cost their full retry budget before the fallback;
    // that elapsed time is part of what the user experiences.
    elapsed_ms.push_back(resp.elapsed_s * 1e3);
  }
  std::sort(elapsed_ms.begin(), elapsed_ms.end());

  CellResult out;
  out.tenants = tenants;
  out.policy = queue_policy_name(policy);
  out.p50_ms = percentile(elapsed_ms, 50.0);
  out.p95_ms = percentile(elapsed_ms, 95.0);
  out.p99_ms = percentile(elapsed_ms, 99.0);
  out.rejection_rate = client->server().stats().rejection_rate();
  out.fallback_rate = client->stats().fallback_rate();
  out.queue_depth_p95 = client->server().stats().queue_depth_p95();
  out.requests = requests;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args =
      benchutil::parse_args(argc, argv, "bench_edgesvc", "BENCH_edgesvc.json");
  if (!args) return 2;
  const bool smoke = args->smoke;
  const std::string& json_path = args->json_path;

  benchutil::banner("bench_edgesvc",
                    "multi-tenant edge-server saturation sweep");
  const std::vector<std::size_t> tenant_counts =
      smoke ? std::vector<std::size_t>{1, 16, 64}
            : std::vector<std::size_t>{1, 8, 16, 32, 64, 128};
  const std::size_t requests = smoke ? 160 : 400;
  const QueuePolicy policies[] = {QueuePolicy::Fifo,
                                  QueuePolicy::DeadlinePriority,
                                  QueuePolicy::TenantFairShare};

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<CellResult> cells;
  std::cout << std::fixed
            << "  tenants policy      p50_ms   p95_ms   p99_ms  reject  "
               "fallback  qdepth95\n";
  for (std::size_t tenants : tenant_counts) {
    for (QueuePolicy policy : policies) {
      const CellResult c = run_cell(tenants, policy, requests);
      cells.push_back(c);
      std::cout << "  " << std::setw(7) << c.tenants << " " << std::setw(8)
                << c.policy << std::setprecision(1) << std::setw(10)
                << c.p50_ms << std::setw(9) << c.p95_ms << std::setw(9)
                << c.p99_ms << std::setprecision(3) << std::setw(8)
                << c.rejection_rate << std::setw(10) << c.fallback_rate
                << std::setprecision(1) << std::setw(10) << c.queue_depth_p95
                << "\n";
    }
  }
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

  // The contention story in one line each: uncontended stays flat,
  // saturation shows up in the tail and the drop counters.
  benchutil::section("recap");
  const CellResult& lone = cells.front();
  const CellResult& packed = cells.back();
  benchutil::recap_line("p50 @ 1 tenant (fifo)", "flat",
                        std::to_string(lone.p50_ms) + " ms");
  benchutil::recap_line(
      "p50 @ " + std::to_string(packed.tenants) + " tenants (fair)",
      "inflated", std::to_string(packed.p50_ms) + " ms");
  benchutil::recap_line("rejection rate at saturation", "> 0",
                        std::to_string(packed.rejection_rate));

  std::ofstream json(json_path);
  json << std::setprecision(6) << std::fixed;
  json << "{\n  \"bench\": \"bench_edgesvc\",\n  \"smoke\": "
       << (smoke ? "true" : "false")
       << ",\n  \"host\": " << benchutil::host_json()
       << ",\n  \"requests_per_cell\": "
       << requests << ",\n  \"wall_s\": " << wall_s << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    json << "    {\"tenants\": " << c.tenants << ", \"policy\": \""
         << c.policy << "\", \"p50_ms\": " << c.p50_ms << ", \"p95_ms\": "
         << c.p95_ms << ", \"p99_ms\": " << c.p99_ms
         << ", \"rejection_rate\": " << c.rejection_rate
         << ", \"fallback_rate\": " << c.fallback_rate
         << ", \"queue_depth_p95\": " << c.queue_depth_p95 << "}"
         << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "\nJSON summary written to " << json_path << "\n";

  // Sanity gate: contention must actually show up in the sweep.
  const bool saturated =
      packed.p50_ms > lone.p50_ms && packed.rejection_rate > 0.0;
  return saturated || smoke ? 0 : 1;
}
