#include "workloads.hpp"

#include <sched.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "hbosim/scenario/scenarios.hpp"
#include "hbosim/soc/devices_builtin.hpp"

namespace perfbench {

using hbosim::fleet::FleetSpec;
using hbosim::fleet::PolicySessionOutput;
using hbosim::fleet::SessionResult;

namespace {

/// bench_fleet's truncated activation: 2 random + 3 BO iterations, one
/// candidate, 1 s periods, 2 reference periods. Sessions then run for
/// their whole duration_s instead of one 60 s activation.
void truncate_activations(FleetSpec& s) {
  s.session.hbo.n_initial = 2;
  s.session.hbo.n_iterations = 3;
  s.session.hbo.selection_candidates = 1;
  s.session.hbo.control_period_s = 1.0;
  s.session.hbo.monitor_period_s = 1.0;
  s.session.reference_periods = 2;
}

/// Every SessionResult field but wall_seconds, as raw bits with a flag
/// marking doubles; strings go byte by byte. One visitor feeds the
/// finiteness check, the digest and the equality check, so they cannot
/// disagree on the field list.
template <typename F>
void for_each_field(const SessionResult& r, F&& f) {
  auto n = [&f](std::uint64_t x) { f(x, false); };
  auto bits = [&f](double x) {
    std::uint64_t u = 0;
    std::memcpy(&u, &x, sizeof u);
    f(u, true);
  };
  auto str = [&n](const std::string& s) {
    n(s.size());
    for (const char c : s) n(static_cast<std::uint64_t>(c));
  };
  n(r.session_id);
  str(r.device);
  str(r.scenario);
  n(r.seed);
  bits(r.sim_seconds);
  n(r.periods);
  bits(r.mean_quality);
  bits(r.mean_latency_ratio);
  bits(r.mean_reward);
  n(r.activations);
  n(r.warm_starts);
  n(r.shared_warm_starts);
  n(r.prior_activations);
  n(r.bandit_pulls);
  n(r.edge_requests);
  n(r.edge_retries);
  n(r.edge_rejected_attempts);
  n(r.edge_timeout_attempts);
  n(r.edge_fallbacks);
  n(r.edge_decim_fallbacks);
  n(r.edge_bo_fallbacks);
  n(r.edge_payload_bytes);
  bits(r.edge_units);
  bits(r.edge_service_s);
  bits(r.edge_elapsed_s);
  n(r.market_session);
  n(r.market_denied);
  bits(r.market_resolution);
  bits(r.market_bandwidth_frac);
  bits(r.market_price);
  n(r.offload_session);
  n(r.offload_completed);
  n(r.offload_remote);
  n(r.offload_fallbacks);
  bits(r.offload_rate);
  bits(r.mean_edge_share);
  bits(r.radio_energy_j);
  bits(r.offload_elapsed_s);
  bits(r.energy_j);
  bits(r.mean_power_w);
  bits(r.max_die_temp_c);
  n(r.throttle_events);
  bits(r.time_throttled_s);
  bits(r.min_freq_scale);
  bits(r.battery_soc);
  bits(r.battery_drain_pct_per_hour);
  n(r.sched_traced);
  n(r.sched_jobs);
  bits(r.sched_worst_p99_slowdown);
  bits(r.sched_fairness_floor);
  n(r.sched_starved_jobs);
  n(r.sched_events);
  n(r.sched_dropped_events);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "hbo_paper", "monitor_sched", "edge_market", "prior_offload"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::size_t threads) {
  Workload w;
  w.name = name;
  FleetSpec& s = w.spec;
  s.base_seed = seed;
  s.threads = threads;
  s.use_shared_pool = false;
  if (name == "hbo_paper") {
    // The default FleetSpec: the paper's settings, one full activation
    // (about 60 simulated seconds) per session.
    s.sessions = 1024;
  } else if (name == "monitor_sched") {
    truncate_activations(s);
    s.sessions = 1024;
    s.duration_s = 60.0;
    s.sched.enabled = true;
  } else if (name == "edge_market") {
    truncate_activations(s);
    s.sessions = 2048;
    s.duration_s = 60.0;
    s.use_edge_service = true;
    s.edge = hbosim::edgesvc::edge_service_preset("wifi");
    s.market.enabled = true;
    s.market.allocator.policy =
        hbosim::marketsvc::MarketPolicy::ProportionalFair;
    s.use_power_model = true;
  } else if (name == "prior_offload") {
    truncate_activations(s);
    s.sessions = 1024;
    s.duration_s = 60.0;
    s.use_edge_service = true;
    s.edge = hbosim::edgesvc::edge_service_preset("wifi");
    s.offload.enabled = true;
    s.use_power_model = true;
    s.policy.mode = hbosim::fleet::PolicyMode::Prior;
    w.streaming = true;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

void warm_caches(const FleetSpec& spec) {
  for (const hbosim::fleet::DeviceMixEntry& d : spec.devices)
    hbosim::soc::find_builtin(d.device);
  for (const hbosim::fleet::ScenarioMixEntry& e : spec.scenarios)
    hbosim::scenario::object_placements(e.objects);
}

bool session_ok(const SessionResult& r, double duration_s) {
  bool finite = true;
  for_each_field(r, [&finite](std::uint64_t u, bool is_double) {
    double x = 0.0;
    std::memcpy(&x, &u, sizeof x);
    if (is_double && !std::isfinite(x)) finite = false;
  });
  return finite && r.sim_seconds >= duration_s;
}

bool same_result(const SessionResult& a, const SessionResult& b) {
  std::vector<std::uint64_t> fa, fb;
  for_each_field(a, [&fa](std::uint64_t u, bool) { fa.push_back(u); });
  for_each_field(b, [&fb](std::uint64_t u, bool) { fb.push_back(u); });
  return fa == fb;
}

std::uint64_t result_digest(const SessionResult& r, std::uint64_t h) {
  for_each_field(r, [&h](std::uint64_t u, bool) {
    for (int i = 0; i < 8; ++i) {
      h ^= (u >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  });
  return h;
}

EpochReplay::EpochReplay(const FleetSpec& spec) : spec_(spec) {
  if (spec_.market.enabled) {
    epoch_ = spec_.market.epoch_sessions;
    broker_ = std::make_unique<hbosim::edgesvc::EdgeBroker>(spec_.edge,
                                                            spec_.sessions);
    broker_->enable_market(spec_.market.allocator);
  } else if (spec_.use_edge_service) {
    broker_ = std::make_unique<hbosim::edgesvc::EdgeBroker>(spec_.edge,
                                                            spec_.sessions);
  }
  if (spec_.policy.mode == hbosim::fleet::PolicyMode::Prior) {
    epoch_ = spec_.policy.epoch_sessions;
    store_ = std::make_unique<hbosim::policy::PriorStore>(spec_.policy.prior);
  }
}

double EpochReplay::begin_epoch(std::size_t start) {
  start_ = start;
  const std::size_t end = std::min(start + epoch_, spec_.sessions);
  const auto t0 = std::chrono::steady_clock::now();
  if (broker_ && broker_->market_enabled()) {
    std::vector<hbosim::marketsvc::TenantDemand> demands;
    for (std::size_t id = start; id < end; ++id) {
      hbosim::marketsvc::TenantDemand d;
      d.tenant = id;
      demands.push_back(d);
    }
    allocations_ = broker_->market().tick(demands);
  } else if (store_) {
    priors_ = store_->snapshot();
  } else {
    return 0.0;
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

const hbosim::marketsvc::TenantAllocation* EpochReplay::allocation(
    std::size_t id) const {
  if (allocations_.empty()) return nullptr;
  if (id < start_ || id - start_ >= allocations_.size())
    throw std::out_of_range("session outside the replayed market epoch");
  return &allocations_[id - start_];
}

void EpochReplay::observe(const PolicySessionOutput& out) {
  const SessionResult& r = out.result;
  if (broker_ && broker_->market_enabled()) {
    hbosim::marketsvc::MeasuredUsage usage;
    usage.payload_bytes = r.edge_payload_bytes;
    usage.requests = r.edge_requests;
    usage.units = r.edge_units;
    usage.service_s = r.edge_service_s;
    usage.duration_s = r.sim_seconds;
    broker_->market().observe(r.session_id, usage, r.market_resolution);
  }
  if (store_) {
    for (const hbosim::fleet::PolicyObservation& obs : out.observations)
      store_->record(hbosim::policy::PriorKey{r.device, r.scenario, obs.env},
                     obs.z, obs.cost);
  }
}

PolicySessionOutput EpochReplay::run(const hbosim::fleet::FleetSimulator& fleet,
                                     std::size_t id) const {
  const hbosim::fleet::SessionSpec ss = fleet.session_spec(id);
  if (const hbosim::marketsvc::TenantAllocation* alloc = allocation(id)) {
    PolicySessionOutput out;
    out.result = fleet.run_market_session(ss, *alloc);
    return out;
  }
  return fleet.run_policy_session(ss, priors_, nullptr);
}

}  // namespace perfbench
