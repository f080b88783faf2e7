// Whole-surface check of FleetSpec::validate(): every combination of the
// fleet's optional blocks, under every policy mode, is either accepted and
// then runs finite and bitwise identical on 1 and 3 threads, or rejected
// with an hbosim::Error that says why.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "hbosim/common/error.hpp"
#include "hbosim/fleet/fleet_simulator.hpp"

namespace hbosim {
namespace {

/// The optional blocks, one bit each.
enum Block : unsigned {
  kPool = 1u << 0,
  kEdge = 1u << 1,
  kMarket = 1u << 2,
  kOffload = 1u << 3,
  kPower = 1u << 4,
  kSched = 1u << 5,
  kStream = 1u << 6,
  kStaticResolution = 1u << 7,
  kAllBlocks = 1u << 8,
};

std::string describe(fleet::PolicyMode mode, unsigned blocks) {
  static const char* const kNames[] = {"pool",  "edge",  "market",
                                       "offload", "power", "sched",
                                       "stream", "static-resolution"};
  std::string out = mode == fleet::PolicyMode::Off     ? "off"
                    : mode == fleet::PolicyMode::Prior ? "prior"
                                                       : "bandit";
  for (unsigned b = 0; (1u << b) < kAllBlocks; ++b)
    if (blocks & (1u << b)) out += std::string(" +") + kNames[b];
  return out;
}

/// Six short sessions on one workload, with epochs short enough that
/// every learner and the market freeze several times per fleet, and
/// activations long enough that every prior-mode fleet fits a prior.
fleet::FleetSpec matrix_spec(fleet::PolicyMode mode, unsigned blocks) {
  fleet::FleetSpec spec;
  spec.sessions = 6;
  spec.duration_s = 6.0;
  spec.session.hbo.n_initial = 2;
  spec.session.hbo.n_iterations = 4;
  spec.session.hbo.selection_candidates = 1;
  spec.session.hbo.control_period_s = 1.0;
  spec.session.hbo.monitor_period_s = 1.0;
  spec.session.reference_periods = 2;
  spec.scenarios = {{scenario::ObjectSet::SC2, scenario::TaskSet::CF2, 1.0}};
  spec.policy.mode = mode;
  spec.policy.epoch_sessions = 2;
  spec.market.epoch_sessions = 3;
  spec.use_shared_pool = (blocks & kPool) != 0;
  if (blocks & kEdge) {
    spec.use_edge_service = true;
    spec.edge = edgesvc::edge_service_preset("wifi");
  }
  spec.market.enabled = (blocks & kMarket) != 0;
  spec.offload.enabled = (blocks & kOffload) != 0;
  spec.use_power_model = (blocks & kPower) != 0;
  spec.sched.enabled = (blocks & kSched) != 0;
  spec.retain_results = (blocks & kStream) == 0;
  if (blocks & kStaticResolution) spec.edge_static_resolution = 0.5;
  return spec;
}

void push(std::vector<double>& out, const Summary& m) {
  out.insert(out.end(), {static_cast<double>(m.count), m.min, m.mean, m.p50,
                         m.p90, m.p95, m.p99, m.max});
}

/// Every SessionResult field except the host-time `wall_seconds`.
std::vector<double> fields(const fleet::SessionResult& r) {
  return {static_cast<double>(r.session_id), static_cast<double>(r.seed),
          r.sim_seconds, static_cast<double>(r.periods), r.mean_quality,
          r.mean_latency_ratio, r.mean_reward,
          static_cast<double>(r.activations),
          static_cast<double>(r.warm_starts),
          static_cast<double>(r.shared_warm_starts),
          static_cast<double>(r.prior_activations),
          static_cast<double>(r.bandit_pulls),
          static_cast<double>(r.edge_requests),
          static_cast<double>(r.edge_retries),
          static_cast<double>(r.edge_rejected_attempts),
          static_cast<double>(r.edge_timeout_attempts),
          static_cast<double>(r.edge_fallbacks),
          static_cast<double>(r.edge_decim_fallbacks),
          static_cast<double>(r.edge_bo_fallbacks),
          static_cast<double>(r.edge_payload_bytes), r.edge_units,
          r.edge_service_s, r.edge_elapsed_s,
          static_cast<double>(r.market_session),
          static_cast<double>(r.market_denied), r.market_resolution,
          r.market_bandwidth_frac, r.market_price,
          static_cast<double>(r.offload_session),
          static_cast<double>(r.offload_completed),
          static_cast<double>(r.offload_remote),
          static_cast<double>(r.offload_fallbacks), r.offload_rate,
          r.mean_edge_share, r.radio_energy_j, r.offload_elapsed_s,
          r.energy_j, r.mean_power_w, r.max_die_temp_c,
          static_cast<double>(r.throttle_events), r.time_throttled_s,
          r.min_freq_scale, r.battery_soc, r.battery_drain_pct_per_hour,
          static_cast<double>(r.sched_traced),
          static_cast<double>(r.sched_jobs), r.sched_worst_p99_slowdown,
          r.sched_fairness_floor, static_cast<double>(r.sched_starved_jobs),
          static_cast<double>(r.sched_events),
          static_cast<double>(r.sched_dropped_events)};
}

/// Every FleetMetrics field except the host-time wall clock and
/// throughput.
std::vector<double> fields(const fleet::FleetMetrics& m) {
  std::vector<double> out = {
      static_cast<double>(m.sessions), static_cast<double>(m.streamed),
      m.total_sim_seconds, static_cast<double>(m.total_activations),
      static_cast<double>(m.total_warm_starts),
      static_cast<double>(m.total_shared_warm_starts), m.warm_start_rate,
      static_cast<double>(m.pool.size), static_cast<double>(m.pool.hits),
      static_cast<double>(m.pool.misses), static_cast<double>(m.pool.stores),
      static_cast<double>(m.pool.evictions)};
  push(out, m.quality);
  push(out, m.latency_ratio);
  push(out, m.reward);
  const fleet::FleetMetrics::EdgeHealth& e = m.edge;
  out.insert(out.end(),
             {static_cast<double>(e.enabled), static_cast<double>(e.requests),
              static_cast<double>(e.retries),
              static_cast<double>(e.rejected_attempts),
              static_cast<double>(e.timeout_attempts),
              static_cast<double>(e.fallbacks),
              static_cast<double>(e.decim_fallbacks),
              static_cast<double>(e.bo_fallbacks), e.rejection_rate,
              e.fallback_rate, e.queue_depth_p95, e.mean_wait_ms});
  const fleet::FleetMetrics::OffloadHealth& o = m.offload;
  out.insert(out.end(), {static_cast<double>(o.enabled),
                         static_cast<double>(o.completed_inferences),
                         static_cast<double>(o.remote_inferences),
                         static_cast<double>(o.fallbacks), o.offload_rate,
                         o.radio_energy_j});
  push(out, o.edge_share);
  const fleet::FleetMetrics::PowerHealth& p = m.power;
  out.insert(out.end(), {static_cast<double>(p.enabled), p.total_energy_j,
                         static_cast<double>(p.throttle_events),
                         p.min_freq_scale, p.throttled_session_fraction});
  push(out, p.mean_power_w);
  push(out, p.max_die_temp_c);
  push(out, p.drain_pct_per_hour);
  const fleet::FleetMetrics::PolicyHealth& ph = m.policy;
  out.insert(out.end(), {static_cast<double>(ph.enabled),
                         static_cast<double>(ph.epochs),
                         static_cast<double>(ph.prior_activations),
                         static_cast<double>(ph.bandit_pulls),
                         ph.prior_injection_rate,
                         static_cast<double>(ph.store_keys),
                         static_cast<double>(ph.store_observations),
                         static_cast<double>(ph.priors_fitted),
                         static_cast<double>(ph.bandit_updates)});
  const fleet::FleetMetrics::MarketHealth& mk = m.market;
  out.insert(out.end(), {static_cast<double>(mk.enabled),
                         static_cast<double>(mk.ticks),
                         static_cast<double>(mk.denied_sessions),
                         mk.admission_rate, mk.link_activity,
                         mk.compute_utilization, mk.final_price});
  push(out, mk.resolution);
  const fleet::FleetMetrics::SchedHealth& s = m.sched;
  out.insert(out.end(), {static_cast<double>(s.enabled),
                         static_cast<double>(s.jobs), s.worst_p99_slowdown,
                         s.fairness_floor,
                         static_cast<double>(s.starved_jobs),
                         static_cast<double>(s.events),
                         static_cast<double>(s.dropped_events),
                         s.starved_session_fraction});
  push(out, s.p99_slowdown);
  return out;
}

/// Bitwise equality and finiteness of two field lists; returns the first
/// offending index, or -1.
int first_mismatch(const std::vector<double>& a,
                   const std::vector<double>& b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!std::isfinite(a[i]) || std::bit_cast<std::uint64_t>(a[i]) !=
                                    std::bit_cast<std::uint64_t>(b[i]))
      return static_cast<int>(i);
  }
  return -1;
}

TEST(FleetConfigMatrix, EveryAcceptedSpecIsFiniteAndThreadCountInvariant) {
  std::size_t accepted = 0, pooled_market = 0, prior_specs = 0;
  for (fleet::PolicyMode mode :
       {fleet::PolicyMode::Off, fleet::PolicyMode::Prior,
        fleet::PolicyMode::Bandit}) {
    for (unsigned blocks = 0; blocks < kAllBlocks; ++blocks) {
      const std::string label = describe(mode, blocks);
      fleet::FleetSpec spec = matrix_spec(mode, blocks);
      try {
        spec.validate();
      } catch (const Error& e) {
        EXPECT_FALSE(std::string(e.what()).empty()) << label;
        continue;
      }
      ++accepted;
      if ((blocks & kPool) && (blocks & kMarket)) ++pooled_market;

      spec.threads = 1;
      const fleet::FleetResult serial = fleet::FleetSimulator(spec).run();
      spec.threads = 3;
      const fleet::FleetResult threaded = fleet::FleetSimulator(spec).run();

      EXPECT_EQ(first_mismatch(fields(serial.metrics),
                               fields(threaded.metrics)),
                -1)
          << label << ": fleet metrics";
      EXPECT_EQ(serial.metrics.sessions, spec.sessions) << label;
      ASSERT_EQ(serial.sessions.size(), threaded.sessions.size()) << label;
      const std::size_t retained = spec.retain_results ? spec.sessions : 0;
      ASSERT_EQ(serial.sessions.size(), retained) << label;
      for (std::size_t i = 0; i < serial.sessions.size(); ++i) {
        const fleet::SessionResult& a = serial.sessions[i];
        const fleet::SessionResult& b = threaded.sessions[i];
        EXPECT_EQ(a.device, b.device) << label;
        EXPECT_EQ(a.scenario, b.scenario) << label;
        EXPECT_EQ(first_mismatch(fields(a), fields(b)), -1)
            << label << ": session " << i;
      }
      // Every pooled fleet really shares solutions across sessions, and
      // every prior-mode fleet really fits priors.
      if (blocks & kPool) {
        EXPECT_GT(serial.metrics.total_shared_warm_starts, 0u) << label;
      }
      if (mode == fleet::PolicyMode::Prior) {
        ++prior_specs;
        EXPECT_GT(serial.metrics.policy.priors_fitted, 0u) << label;
      }
    }
  }
  // 184 of the 768 specs are accepted, 16 of them market x pool. Every
  // remaining rejection has a modelling reason (see FleetSpec::validate).
  EXPECT_EQ(accepted, 184u);
  EXPECT_EQ(pooled_market, 16u);
  EXPECT_EQ(prior_specs, 80u);
}

}  // namespace
}  // namespace hbosim
