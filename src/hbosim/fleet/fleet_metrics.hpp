#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hbosim/common/stats.hpp"
#include "hbosim/edgesvc/edge_server.hpp"
#include "hbosim/fleet/shared_pool.hpp"

/// \file fleet_metrics.hpp
/// Per-session results and their fleet-wide roll-up. SessionResult holds
/// only aggregates (not traces) so a multi-thousand-session fleet stays
/// cheap to collect; FleetMetrics adds cross-session percentiles and the
/// wall-clock throughput the scaling bench reports.
///
/// Two aggregation paths share one accumulator (`FleetAccumulator`):
/// *exact* retains the per-session metric samples and summarizes each
/// with hbosim::summarize(), while *streaming* feeds one
/// hbosim::StreamingSummary per metric so a 10^5–10^6-session
/// fleet rolls up in O(1) memory per metric. Counters are exact in both.
/// Streaming estimates are order-sensitive; the fleet feeds sessions in
/// session-id order, which makes them thread-count invariant too.

namespace hbosim::fleet {

/// Aggregate outcome of one simulated session. Everything except
/// `wall_seconds` is a pure function of the session's spec and seed, and
/// therefore identical regardless of which thread ran it (the fleet
/// determinism guarantee — see DESIGN.md).
struct SessionResult {
  std::size_t session_id = 0;
  std::string device;
  std::string scenario;  ///< "SC1/CF1" etc.
  std::uint64_t seed = 0;

  double sim_seconds = 0.0;   ///< Simulated time covered.
  std::size_t periods = 0;    ///< Monitor periods observed.
  double mean_quality = 0.0;  ///< Mean Q_t over the session.
  double mean_latency_ratio = 0.0;  ///< Mean epsilon_t.
  double mean_reward = 0.0;         ///< Mean B_t = Q - w*eps.

  std::size_t activations = 0;        ///< All activations (incl. warm).
  std::size_t warm_starts = 0;        ///< Served from any remembered entry.
  std::size_t shared_warm_starts = 0; ///< Served from the fleet pool.
  /// Full activations that ran with a learned surrogate prior injected
  /// (policy mode Prior; see hbosim::policy).
  std::size_t prior_activations = 0;
  /// LinUCB arm pulls (policy mode Bandit; sessions then run the bandit
  /// loop instead of HBO, so `activations` counts pulls too).
  std::size_t bandit_pulls = 0;

  // Edge-service interaction (all zero when the fleet runs without one).
  std::uint64_t edge_requests = 0;          ///< Requests issued to the edge.
  std::uint64_t edge_retries = 0;           ///< Re-attempts after a failure.
  std::uint64_t edge_rejected_attempts = 0; ///< Bounced at the bounded queue.
  std::uint64_t edge_timeout_attempts = 0;  ///< Deadline-missing attempts.
  std::uint64_t edge_fallbacks = 0;         ///< Requests that gave up (any class).
  std::uint64_t edge_decim_fallbacks = 0;   ///< Served a nearest-cached LOD.
  std::uint64_t edge_bo_fallbacks = 0;      ///< Store fetch fell back to local BO.
  // Measured edge demand (feeds the market's learning loop, and gives the
  // saturation bench a per-tenant end-to-end response-time figure).
  std::uint64_t edge_payload_bytes = 0;  ///< Downlink bytes moved.
  double edge_units = 0.0;               ///< Request units served (mixed).
  double edge_service_s = 0.0;           ///< Core-seconds of own requests.
  double edge_elapsed_s = 0.0;           ///< Summed perform() elapsed time.

  // Market allocation this tenant ran under (see hbosim::marketsvc). All
  // neutral when the fleet runs without FleetSpec::market.
  bool market_session = false;     ///< Session ran under the allocator.
  bool market_denied = false;      ///< Bumped to the best-effort class.
  double market_resolution = 1.0;  ///< Resolution knob assigned.
  double market_bandwidth_frac = 1.0;  ///< Decided link share.
  double market_price = 0.0;           ///< Posted price the tenant saw.

  // Edge-offload roll-up (see hbosim::offload and FleetSpec::offload).
  // All neutral when the fleet runs with offload disabled.
  bool offload_session = false;    ///< Session ran with the 4-target space.
  std::uint64_t offload_completed = 0;  ///< Inferences finished (any target).
  std::uint64_t offload_remote = 0;     ///< Finished on the edge mirror.
  std::uint64_t offload_fallbacks = 0;  ///< Failed exchanges -> local run.
  double offload_rate = 0.0;       ///< remote / completed (0 when none ran).
  double mean_edge_share = 0.0;    ///< Mean applied per-task edge share.
  double radio_energy_j = 0.0;     ///< Radio energy charged for exchanges.
  double offload_elapsed_s = 0.0;  ///< Summed offload exchange wall time.

  // Power/thermal roll-up (all neutral when the fleet runs without a
  // power model; see FleetSpec::use_power_model).
  double energy_j = 0.0;         ///< Battery draw over the session.
  double mean_power_w = 0.0;     ///< energy_j / simulated seconds.
  double max_die_temp_c = 0.0;   ///< Peak die temperature reached.
  std::uint64_t throttle_events = 0;  ///< Governor down-steps.
  double time_throttled_s = 0.0;      ///< Sim-time below nominal clocks.
  double min_freq_scale = 1.0;        ///< Deepest DVFS point reached.
  double battery_soc = 1.0;           ///< Charge remaining at session end.
  double battery_drain_pct_per_hour = 0.0;  ///< Projected drain rate.

  // Scheduler forensics roll-up (see des::SchedMeter). All neutral when
  // the fleet runs without sched health (FleetSpec::sched.enabled).
  bool sched_traced = false;  ///< A meter (or the caller's trace) ran.
  std::size_t sched_jobs = 0;          ///< Completed jobs analyzed.
  double sched_worst_p99_slowdown = 0.0;  ///< Max p99 slowdown, any unit.
  double sched_fairness_floor = 1.0;      ///< Min windowed Jain index.
  std::size_t sched_starved_jobs = 0;
  std::uint64_t sched_events = 0;          ///< Lifecycle records captured.
  std::uint64_t sched_dropped_events = 0;  ///< 0 unless a traced ring wrapped.

  double wall_seconds = 0.0;  ///< Host time spent simulating this session.
};

struct FleetMetrics {
  std::size_t sessions = 0;
  /// True when the percentile summaries came from the streaming (P²)
  /// path; min/mean/max and every counter are exact either way.
  bool streamed = false;
  double total_sim_seconds = 0.0;
  double wall_seconds = 0.0;  ///< End-to-end fleet wall-clock.
  /// Simulated sessions finished per host second (the scaling figure of
  /// merit for bench_fleet).
  double sessions_per_sec = 0.0;

  Summary quality;        ///< Over per-session mean Q.
  Summary latency_ratio;  ///< Over per-session mean epsilon.
  Summary reward;         ///< Over per-session mean B.

  std::size_t total_activations = 0;
  std::size_t total_warm_starts = 0;
  std::size_t total_shared_warm_starts = 0;
  /// Warm starts as a fraction of all activations, in [0, 1].
  double warm_start_rate = 0.0;

  SharedSolutionPoolStats pool;  ///< Zeroed when no pool was attached.

  /// Health of the shared edge service. The client side sums each
  /// session's SessionResult edge fields; the server side comes from the
  /// sessions' mirror statistics merged in session-id order. All-zero
  /// when the fleet ran without an edge service.
  struct EdgeHealth {
    bool enabled = false;
    std::uint64_t requests = 0;
    std::uint64_t retries = 0;
    std::uint64_t rejected_attempts = 0;
    std::uint64_t timeout_attempts = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t decim_fallbacks = 0;
    std::uint64_t bo_fallbacks = 0;
    double rejection_rate = 0.0;  ///< Server-side: rejected / arrivals.
    double fallback_rate = 0.0;   ///< Client-side: fallbacks / requests.
    double queue_depth_p95 = 0.0; ///< Arrival-weighted queue depth p95.
    double mean_wait_ms = 0.0;    ///< Mean admitted-request queue wait.
    /// Client-side: mean perform() elapsed time per request, retries and
    /// backoff included.
    double mean_exchange_ms = 0.0;
    /// Client-side: SessionResult::edge_units summed over the sessions, a
    /// mix of unlike units when the fleet issues several request classes.
    double units = 0.0;
    double own_service_s = 0.0;  ///< Core-seconds the sessions' requests used.
    /// Server-side: mean core time per served request, background included.
    double mean_service_ms = 0.0;
  };
  EdgeHealth edge;

  /// Edge-offload roll-up across sessions (see hbosim::offload and
  /// FleetSpec::offload). Sums and id-order-fed summaries only, so the
  /// roll-up is identical on 1 and N fleet threads. All-neutral when the
  /// fleet ran with offload disabled (enabled == false).
  struct OffloadHealth {
    bool enabled = false;
    std::uint64_t completed_inferences = 0;  ///< Any target, summed.
    std::uint64_t remote_inferences = 0;     ///< Edge-served, summed.
    std::uint64_t fallbacks = 0;  ///< Failed exchanges -> local, summed.
    /// remote_inferences / completed_inferences across the fleet.
    double offload_rate = 0.0;
    /// Distribution of per-session mean applied edge shares.
    Summary edge_share;
    double radio_energy_j = 0.0;  ///< Radio energy charged, summed.
  };
  OffloadHealth offload;

  /// Thermal/energy roll-up across sessions. All-neutral when the fleet
  /// ran without a power model (enabled == false).
  struct PowerHealth {
    bool enabled = false;
    double total_energy_j = 0.0;
    Summary mean_power_w;        ///< Over per-session mean watts.
    Summary max_die_temp_c;      ///< Over per-session peak temps.
    Summary drain_pct_per_hour;  ///< Over projected drain rates.
    std::uint64_t throttle_events = 0; ///< Governor down-steps, summed.
    double min_freq_scale = 1.0;       ///< Deepest OPP any session hit.
    /// Fraction of sessions that throttled at least once.
    double throttled_session_fraction = 0.0;
  };
  PowerHealth power;

  /// Learned-policy roll-up (see hbosim::policy and FleetSpec::policy).
  /// All-neutral when the fleet ran with the policy layer off.
  struct PolicyHealth {
    bool enabled = false;
    std::string mode;  ///< "prior" or "bandit".
    std::size_t epochs = 0;             ///< Learning epochs (barriers) run.
    std::size_t prior_activations = 0;  ///< Activations with a prior injected.
    std::size_t bandit_pulls = 0;       ///< LinUCB arm pulls across sessions.
    /// Fraction of full (non-warm-start) activations that got a prior.
    double prior_injection_rate = 0.0;
    std::size_t store_keys = 0;          ///< PriorStore exact keys.
    std::size_t store_observations = 0;  ///< Observations retained.
    std::uint64_t priors_fitted = 0;     ///< Fits across all snapshots.
    std::uint64_t bandit_updates = 0;    ///< Learner rank-one updates.
  };
  PolicyHealth policy;

  /// Fleet-level resource-market roll-up (see hbosim::marketsvc and
  /// FleetSpec::market). All-neutral when the fleet ran without the
  /// JointAllocator (enabled == false).
  struct MarketHealth {
    bool enabled = false;
    std::string policy;       ///< "pf", "maxmin" or "price".
    std::size_t ticks = 0;    ///< Allocator epochs (barrier ticks) run.
    std::size_t denied_sessions = 0;  ///< Tenants bumped to best effort.
    /// Admitted tenants as a fraction of market sessions, in [0, 1].
    double admission_rate = 1.0;
    /// Distribution of the per-session resolution knob.
    Summary resolution;
    double link_activity = 0.0;        ///< Decided, last tick.
    double compute_utilization = 0.0;  ///< Decided, last tick.
    double final_price = 0.0;          ///< Posted price after last tick.
  };
  MarketHealth market;

  /// Scheduler forensics roll-up across sessions (des::SchedMeter per
  /// session, aggregated in session-id order — every field below is also
  /// order-independent, so the roll-up is identical on 1 and N fleet
  /// threads). All-neutral when sched tracing was off (enabled == false).
  struct SchedHealth {
    bool enabled = false;
    std::size_t jobs = 0;               ///< Completed jobs, summed.
    double worst_p99_slowdown = 0.0;    ///< Max over sessions.
    double fairness_floor = 1.0;        ///< Min over sessions.
    std::size_t starved_jobs = 0;       ///< Summed.
    std::uint64_t events = 0;           ///< Lifecycle records, summed.
    std::uint64_t dropped_events = 0;   ///< Ring-wrap losses, summed.
    /// Distribution of per-session worst p99 slowdowns.
    Summary p99_slowdown;
    /// Fraction of traced sessions that flagged at least one starved job.
    double starved_session_fraction = 0.0;
  };
  SchedHealth sched;
};

/// One-pass fleet roll-up fed a SessionResult at a time, in session-id
/// order. Mode Exact retains every per-session metric sample and
/// summarizes it with summarize(); mode Streaming holds only
/// sketches, so memory is independent of fleet size (the 10^5+-session
/// path). Counters sum identically in both modes.
class FleetAccumulator {
 public:
  enum class Mode { Exact, Streaming };

  explicit FleetAccumulator(Mode mode) : mode_(mode) {}

  /// Feed one completed session (call in session-id order for
  /// deterministic streaming percentiles).
  void add(const SessionResult& s);

  std::size_t sessions() const { return count_; }

  /// Produce the fleet-wide metrics. `wall_seconds` is the end-to-end
  /// fleet run time (not the sum of per-session times, which overlap
  /// under multi-threading); pass the sessions' merged mirror statistics
  /// as `edge_server` when the fleet shared an edge service (null → edge
  /// health disabled).
  FleetMetrics finalize(
      double wall_seconds, const SharedSolutionPoolStats& pool = {},
      const edgesvc::EdgeServerStats* edge_server = nullptr) const;

 private:
  Mode mode_;
  std::size_t count_ = 0;
  FleetMetrics totals_;  ///< Counter sums accumulated as sessions arrive.
  bool any_power_ = false;
  std::size_t throttled_sessions_ = 0;
  std::size_t sched_sessions_ = 0;    ///< Sessions that carried a trace.
  std::size_t starved_sessions_ = 0;  ///< Traced sessions with starvation.
  std::size_t market_sessions_ = 0;   ///< Sessions run under the allocator.
  std::size_t offload_sessions_ = 0;  ///< Sessions in the 4-target space.
  double edge_elapsed_s_ = 0.0;       ///< Summed SessionResult::edge_elapsed_s.

  /// One per-session metric: the retained values (mode Exact, summarized
  /// at finalize) or an O(1) sketch (mode Streaming).
  struct Sample {
    std::vector<double> values;
    StreamingSummary sketch;
  };
  void push(Sample& sample, double x);
  Summary summary(const Sample& sample) const;

  Sample quality_, eps_, reward_;
  Sample watts_, temps_, drains_;
  Sample sched_p99s_;
  Sample market_res_;
  Sample edge_shares_;
};

}  // namespace hbosim::fleet
