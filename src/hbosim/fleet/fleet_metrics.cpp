#include "hbosim/fleet/fleet_metrics.hpp"

#include <algorithm>

#include "hbosim/common/error.hpp"

namespace hbosim::fleet {

MetricSummary summarize_metric(std::vector<double> values) {
  // Guard before touching the buffer: summarizing an empty sample is the
  // documented throw, not UB. percentile_sorted() would also reject it,
  // but only after the damage.
  HB_REQUIRE(!values.empty(), "cannot summarize an empty metric sample");
  MetricSummary out;
  // Mean over the caller's order (before sorting) so the exact path stays
  // bitwise identical to the historical per-session accumulation order.
  double acc = 0.0;
  for (double v : values) acc += v;
  out.mean = acc / static_cast<double>(values.size());
  // One sort serves min, max, and all three percentile reads.
  std::sort(values.begin(), values.end());
  out.min = values.front();
  out.max = values.back();
  out.p50 = percentile_sorted(values, 50.0);
  out.p90 = percentile_sorted(values, 90.0);
  out.p99 = percentile_sorted(values, 99.0);
  return out;
}

void StreamingSummary::add(double x) {
  stat_.add(x);
  p50_.add(x);
  p90_.add(x);
  p99_.add(x);
}

MetricSummary StreamingSummary::summary() const {
  MetricSummary out;
  if (stat_.empty()) return out;
  out.min = stat_.min();
  out.max = stat_.max();
  out.mean = stat_.mean();
  out.p50 = p50_.value();
  out.p90 = p90_.value();
  out.p99 = p99_.value();
  return out;
}

void FleetAccumulator::push(Sample& sample, double x) {
  if (mode_ == Mode::Exact) {
    sample.values.push_back(x);
  } else {
    sample.sketch.add(x);
  }
}

MetricSummary FleetAccumulator::summary(const Sample& sample) const {
  return mode_ == Mode::Exact ? summarize_metric(sample.values)
                              : sample.sketch.summary();
}

void FleetAccumulator::add(const SessionResult& s) {
  ++count_;
  push(quality_, s.mean_quality);
  push(eps_, s.mean_latency_ratio);
  push(reward_, s.mean_reward);
  push(watts_, s.mean_power_w);
  push(temps_, s.max_die_temp_c);
  push(drains_, s.battery_drain_pct_per_hour);
  totals_.total_sim_seconds += s.sim_seconds;
  totals_.total_activations += s.activations;
  totals_.total_warm_starts += s.warm_starts;
  totals_.total_shared_warm_starts += s.shared_warm_starts;
  totals_.policy.prior_activations += s.prior_activations;
  totals_.policy.bandit_pulls += s.bandit_pulls;
  totals_.edge.requests += s.edge_requests;
  totals_.edge.retries += s.edge_retries;
  totals_.edge.rejected_attempts += s.edge_rejected_attempts;
  totals_.edge.timeout_attempts += s.edge_timeout_attempts;
  totals_.edge.fallbacks += s.edge_fallbacks;
  totals_.edge.decim_fallbacks += s.edge_decim_fallbacks;
  totals_.edge.bo_fallbacks += s.edge_bo_fallbacks;
  // Market roll-up: sums and id-order-fed summaries only, so the result
  // is identical on 1 and N fleet threads (like the sched roll-up).
  if (s.market_session) {
    ++market_sessions_;
    if (s.market_denied) ++totals_.market.denied_sessions;
    push(market_res_, s.market_resolution);
  }
  // Offload roll-up: sums and id-order-fed summaries only, so the result
  // is identical on 1 and N fleet threads (like the market roll-up).
  if (s.offload_session) {
    ++offload_sessions_;
    totals_.offload.completed_inferences += s.offload_completed;
    totals_.offload.remote_inferences += s.offload_remote;
    totals_.offload.fallbacks += s.offload_fallbacks;
    totals_.offload.radio_energy_j += s.radio_energy_j;
    push(edge_shares_, s.mean_edge_share);
  }
  // Power roll-up: a session that ran with a power model always draws at
  // least the base system load, so energy > 0 identifies power-enabled
  // fleets without an extra flag threading through the call chain. The
  // sums accumulate unconditionally (per-field order matches the
  // historical second pass) and are discarded at finalize if no session
  // ever drew power.
  any_power_ = any_power_ || s.energy_j > 0.0;
  totals_.power.total_energy_j += s.energy_j;
  totals_.power.throttle_events += s.throttle_events;
  totals_.power.min_freq_scale =
      std::min(totals_.power.min_freq_scale, s.min_freq_scale);
  if (s.throttle_events > 0) ++throttled_sessions_;
  // Sched forensics roll-up: max/min/sum only — order-independent, so the
  // roll-up is identical on 1 and N fleet threads by construction (and the
  // per-session p99 samples are still fed in session-id order for the
  // streaming sketch, like every other metric).
  if (s.sched_traced) {
    ++sched_sessions_;
    totals_.sched.jobs += s.sched_jobs;
    totals_.sched.worst_p99_slowdown = std::max(
        totals_.sched.worst_p99_slowdown, s.sched_worst_p99_slowdown);
    totals_.sched.fairness_floor =
        std::min(totals_.sched.fairness_floor, s.sched_fairness_floor);
    totals_.sched.starved_jobs += s.sched_starved_jobs;
    totals_.sched.events += s.sched_events;
    totals_.sched.dropped_events += s.sched_dropped_events;
    if (s.sched_starved_jobs > 0) ++starved_sessions_;
    push(sched_p99s_, s.sched_worst_p99_slowdown);
  }
}

FleetMetrics FleetAccumulator::finalize(
    double wall_seconds, const SharedSolutionPoolStats& pool,
    const edgesvc::EdgeFleetStats* edge) const {
  FleetMetrics out = totals_;
  out.sessions = count_;
  out.streamed = mode_ == Mode::Streaming;
  out.wall_seconds = wall_seconds;
  out.pool = pool;
  if (edge != nullptr) {
    out.edge.enabled = true;
    out.edge.rejection_rate = edge->server.rejection_rate();
    out.edge.fallback_rate = edge->client.fallback_rate();
    out.edge.queue_depth_p95 = edge->server.queue_depth_p95();
    out.edge.mean_wait_ms = edge->server.mean_wait_s() * 1e3;
    out.edge.mean_exchange_ms = edge->client.mean_elapsed_s() * 1e3;
    out.edge.units = edge->client.units;
    out.edge.own_service_s = edge->client.own_service_s;
    out.edge.mean_service_ms = edge->server.mean_service_s() * 1e3;
  }
  if (count_ == 0) {
    // No sessions: zero roll-up (pool/edge context above still applies),
    // matching the historical aggregate_fleet early return.
    out.total_sim_seconds = 0.0;
    out.power = FleetMetrics::PowerHealth{};
    out.sched = FleetMetrics::SchedHealth{};
    out.market = FleetMetrics::MarketHealth{};
    out.offload = FleetMetrics::OffloadHealth{};
    return out;
  }

  out.quality = summary(quality_);
  out.latency_ratio = summary(eps_);
  out.reward = summary(reward_);

  if (any_power_) {
    out.power.enabled = true;
    out.power.mean_power_w = summary(watts_);
    out.power.max_die_temp_c = summary(temps_);
    out.power.drain_pct_per_hour = summary(drains_);
    out.power.throttled_session_fraction =
        static_cast<double>(throttled_sessions_) /
        static_cast<double>(count_);
  } else {
    out.power = FleetMetrics::PowerHealth{};
  }

  if (market_sessions_ > 0) {
    out.market.enabled = true;
    out.market.resolution = summary(market_res_);
    out.market.admission_rate =
        1.0 - static_cast<double>(out.market.denied_sessions) /
                  static_cast<double>(market_sessions_);
  } else {
    out.market = FleetMetrics::MarketHealth{};
  }

  if (offload_sessions_ > 0) {
    out.offload.enabled = true;
    out.offload.edge_share = summary(edge_shares_);
    if (out.offload.completed_inferences > 0) {
      out.offload.offload_rate =
          static_cast<double>(out.offload.remote_inferences) /
          static_cast<double>(out.offload.completed_inferences);
    }
  } else {
    out.offload = FleetMetrics::OffloadHealth{};
  }

  if (sched_sessions_ > 0) {
    out.sched.enabled = true;
    out.sched.p99_slowdown = summary(sched_p99s_);
    out.sched.starved_session_fraction =
        static_cast<double>(starved_sessions_) /
        static_cast<double>(sched_sessions_);
  } else {
    out.sched = FleetMetrics::SchedHealth{};
  }

  if (out.total_activations > 0) {
    out.warm_start_rate = static_cast<double>(out.total_warm_starts) /
                          static_cast<double>(out.total_activations);
  }
  const std::size_t full_activations =
      out.total_activations - out.total_warm_starts;
  if (full_activations > 0) {
    out.policy.prior_injection_rate =
        static_cast<double>(out.policy.prior_activations) /
        static_cast<double>(full_activations);
  }
  if (wall_seconds > 0.0) {
    out.sessions_per_sec = static_cast<double>(count_) / wall_seconds;
  }
  return out;
}

FleetMetrics aggregate_fleet(const std::vector<SessionResult>& sessions,
                             double wall_seconds,
                             const SharedSolutionPoolStats& pool,
                             const edgesvc::EdgeFleetStats* edge) {
  FleetAccumulator acc(FleetAccumulator::Mode::Exact);
  for (const SessionResult& s : sessions) acc.add(s);
  return acc.finalize(wall_seconds, pool, edge);
}

}  // namespace hbosim::fleet
