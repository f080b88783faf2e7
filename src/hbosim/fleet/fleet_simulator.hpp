#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hbosim/core/monitored_session.hpp"
#include "hbosim/des/sched_analyzer.hpp"
#include "hbosim/des/sched_trace.hpp"
#include "hbosim/edgesvc/broker.hpp"
#include "hbosim/fleet/fleet_metrics.hpp"
#include "hbosim/fleet/shared_pool.hpp"
#include "hbosim/policy/bandit.hpp"
#include "hbosim/policy/bandit_session.hpp"
#include "hbosim/policy/prior_store.hpp"
#include "hbosim/power/power_manager.hpp"
#include "hbosim/scenario/scenarios.hpp"

/// \file fleet_simulator.hpp
/// Runs hundreds-to-thousands of independent MonitoredSessions — stamped
/// out from a device mix × scenario mix — concurrently on a worker pool,
/// and rolls their results up into FleetMetrics.
///
/// Determinism: session i's device, scenario, seed, and entire simulated
/// trajectory are pure functions of (spec, base_seed, i) and of the
/// cross-session artifacts frozen for its epoch, so every fleet produces
/// bit-identical per-session results on 1 thread and on N threads.
///
/// The cross-session channels — the shared solution pool
/// (FleetSpec::use_shared_pool), the learned policy layer
/// (FleetSpec::policy) and the market allocator (FleetSpec::market) —
/// keep that guarantee even though sessions *learn from each other*. One
/// loop runs every fleet: sessions flow through a bounded in-flight window
/// and are consumed on the main thread in session-id order, and consuming
/// a session publishes its solutions into the pool and feeds the
/// allocator, the PriorStore and the LinUCB learner. A barrier fires at
/// the first session of every market or learner epoch: it drains the
/// window, then ticks the allocator over the epoch's tenants and/or
/// freezes the learners — the pool into an immutable PoolSnapshot, the
/// store into a PriorSnapshot (mode Prior), the bandit into a frozen
/// LinUCB copy (mode Bandit). Every session of an epoch reads the
/// artifacts frozen at its barrier, even when the learners are fed
/// mid-epoch because the epoch is longer than the window. Barrier points,
/// artifact content and feed order are all pure functions of the spec. A
/// fleet with no pool, no policy layer and no market has no barriers.

namespace hbosim::fleet {

/// One candidate device in the fleet mix, by built-in profile name.
struct DeviceMixEntry {
  std::string device;  ///< e.g. "Pixel 7" (see soc::builtin_devices()).
  double weight = 1.0;
};

/// One candidate workload in the fleet mix.
struct ScenarioMixEntry {
  scenario::ObjectSet objects = scenario::ObjectSet::SC2;
  scenario::TaskSet tasks = scenario::TaskSet::CF2;
  double weight = 1.0;
};

/// How (if at all) the fleet learns across sessions beyond the solution
/// pool. See the determinism note at the top of this file.
enum class PolicyMode {
  Off,     ///< No policy layer; only a shared pool sets learner barriers.
  Prior,   ///< HBO sessions + PriorStore-fitted GP warm-start priors.
  Bandit,  ///< Sessions run the LinUCB agent instead of HBO.
};

/// Live progress of a running fleet, handed to FleetSpec::on_progress.
struct FleetProgress {
  std::size_t completed = 0;     ///< Sessions rolled up so far.
  std::size_t sessions = 0;      ///< Total sessions in the fleet.
  double wall_seconds = 0.0;     ///< Elapsed since run() started.
};

struct FleetPolicyConfig {
  PolicyMode mode = PolicyMode::Off;
  /// Sessions per learning epoch, for the policy layer and the shared
  /// pool alike: every epoch reads the artifacts frozen at its barrier,
  /// and the learners absorb traffic as sessions are consumed. Smaller
  /// epochs learn faster but serialize more.
  std::size_t epoch_sessions = 32;
  /// Mode Prior's store constants (nothing settable; the PriorStore
  /// constructor takes the type).
  policy::PriorStoreConfig prior;
  policy::BanditConfig bandit;  ///< Mode Bandit knobs.
};

/// The edge as an actor (hbosim::marketsvc): per-epoch broker ticks of a
/// cross-tenant JointAllocator decide each tenant's link share, compute
/// share, resolution knob, and (Pricing policy) admission + price signal.
/// Same determinism recipe as the policy layer: the allocator ticks at
/// each market barrier, sessions of an epoch run against that frozen
/// decision vector, and the allocator observes each tenant's usage as
/// the main thread consumes it in session-id order — so a market fleet
/// is bit-identical on 1 and N threads. It composes with PolicyMode::Prior
/// and the shared pool (each freezes at its own barriers in the same
/// loop). Disabled, the fleet reproduces the mirror-based path bit for
/// bit.
struct FleetMarketConfig {
  bool enabled = false;
  /// Tenants per broker tick (one allocation round per epoch).
  std::size_t epoch_sessions = 32;
  /// Policy (budgets and pricing are marketsvc::MarketConfig constants).
  marketsvc::MarketConfig allocator;
};

struct FleetSpec {
  std::size_t sessions = 256;
  /// Worker threads; 0 means ThreadPool::hardware_threads().
  std::size_t threads = 0;
  /// Simulated seconds each session runs for.
  double duration_s = 60.0;
  /// Per-session seeds are base_seed + session_id, so any fleet slice can
  /// be reproduced in isolation.
  std::uint64_t base_seed = 0x5EEDu;

  /// Template for every session's loop configuration. The per-session BO
  /// seed is overridden with the session seed; use_lookup_table is forced
  /// on when the shared pool is enabled (warm starts flow through it).
  core::MonitoredSessionConfig session;

  /// Defaults to the paper's two phones, equally weighted.
  std::vector<DeviceMixEntry> devices;
  /// Defaults to SC1/SC2 × CF1/CF2, equally weighted.
  std::vector<ScenarioMixEntry> scenarios;

  /// Cross-session warm starts: sessions fetch from the pool snapshot
  /// frozen at their epoch's learner barrier (policy.epoch_sessions), and
  /// the main thread publishes their solutions as it consumes them.
  bool use_shared_pool = false;

  /// Learned policy layer (hbosim::policy): warm-start priors or the
  /// bandit agent, trained on the fleet's own traffic and frozen at epoch
  /// barriers.
  FleetPolicyConfig policy;

  /// Route every session's decimation misses and shared-store fetches
  /// through one contended edge box (see hbosim::edgesvc). Each session
  /// gets a deterministic mirror client from a shared EdgeBroker, so
  /// per-session results stay bit-identical across thread counts.
  bool use_edge_service = false;
  edgesvc::EdgeServiceSpec edge;

  /// Statically pin every session's edge resolution knob to this value
  /// (in (0, 1]; 1.0 is the historical full-resolution path, bit for
  /// bit). This is the "quality manipulation without joint allocation"
  /// baseline: every tenant sheds r^2 payload/work and reports r^gamma
  /// quality exactly as a market session would, but keeps the *static*
  /// mirror background guess — nobody learns that the others trimmed
  /// too. Requires use_edge_service; mutually exclusive with
  /// market.enabled (the allocator owns the knob there). The perceptual
  /// exponent is market.allocator.resolution_gamma in both paths.
  double edge_static_resolution = 1.0;

  /// Make that edge an actor: the broker's JointAllocator jointly assigns
  /// spectrum, compute, and per-tenant resolution on every epoch tick.
  /// Requires use_edge_service (the allocator needs a box to allocate).
  FleetMarketConfig market;

  /// Put the edge *inside every session's HBO decision space* (see
  /// hbosim::offload): with offload.enabled each session searches the
  /// 4-target CPU/GPU/NPU/edge simplex and routes the decided share of
  /// its inferences to its deterministic edge mirror, with radio energy
  /// charged to the session battery. Requires use_edge_service and
  /// use_power_model.
  /// Mutually exclusive with market.enabled and PolicyMode::Bandit (see
  /// FleetSpec::validate for why). Disabled (the default), every session
  /// result is bit-identical to the pre-offload fleet.
  offload::OffloadConfig offload;

  /// Attach the battery/thermal/DVFS model (hbosim::power) to every
  /// session. Each session's PowerManager lives on that session's own
  /// Simulator and derives its ambient-noise seed from the session seed,
  /// so per-session results remain bit-identical across thread counts
  /// even with the throttling governor active.
  bool use_power_model = false;
  /// Tick/ambient/governor knobs shared by all sessions (the per-session
  /// seed field is overridden from the session seed).
  power::PowerConfig power;

  /// Scheduler forensics: with sched.enabled, every session runs with a
  /// private des::SchedMeter, which folds each lifecycle record into its
  /// SchedHealth as it happens; the SessionResult carries those numbers
  /// and FleetMetrics::sched rolls them up. Metering is observational:
  /// per-session results are bit-identical with it on and off (pinned in
  /// tests), and the roll-up uses only order-independent reductions so
  /// 1-vs-N-thread fleets agree exactly.
  des::SchedTraceConfig sched;
  /// Fairness-window width for the per-session analysis (the starvation
  /// k and wait floor are SchedAnalyzerConfig constants).
  des::SchedAnalyzerConfig sched_analysis;

  /// Keep every SessionResult in FleetResult::sessions (the historical
  /// behaviour — this path is bitwise unchanged). With false, the fleet
  /// rolls results up through the streaming accumulator as they complete:
  /// FleetResult::sessions stays empty, retained memory is O(threads)
  /// instead of O(sessions) (completed futures are consumed from a bounded
  /// in-flight window, in session-id order), and metric percentiles come
  /// from P² sketches while every counter stays exact. This is the
  /// 10^5–10^6-session path.
  bool retain_results = true;

  /// Invoke `on_progress` (on the main thread, inside run()) every this
  /// many completed sessions; 0 disables. Used by fleet_demo --stream for
  /// throughput/RSS heartbeats on multi-minute mega fleets.
  std::size_t progress_every = 0;
  std::function<void(const FleetProgress&)> on_progress;

  /// Throws hbosim::Error on nonsense (no sessions, negative weights, ...).
  void validate() const;
};

/// The fully resolved identity of one fleet session.
struct SessionSpec {
  std::size_t id = 0;
  std::string device;
  scenario::ObjectSet objects = scenario::ObjectSet::SC2;
  scenario::TaskSet tasks = scenario::TaskSet::CF2;
  std::uint64_t seed = 0;

  std::string scenario_name() const;  ///< "SC1/CF1" etc.
};

struct FleetResult {
  /// Ordered by session_id; empty when FleetSpec::retain_results is false
  /// (the streaming path keeps only the roll-up in `metrics`).
  std::vector<SessionResult> sessions;
  FleetMetrics metrics;
};

/// One (environment, configuration, cost) sample a prior-mode session
/// produced, carried back to the main thread for the PriorStore feed.
struct PolicyObservation {
  core::EnvironmentKey env;
  std::vector<double> z;
  double cost = 0.0;
};

/// One solution a pooled session published, carried back to the main
/// thread, which files it under (device, scenario, env).
struct PooledSolution {
  core::EnvironmentKey env;
  core::StoredSolution solution;
};

/// run_policy_session's return: the ordinary per-session roll-up plus the
/// traffic the main thread feeds the learners with, in session-id order,
/// as it consumes the session.
struct PolicySessionOutput {
  SessionResult result;
  std::vector<PolicyObservation> observations;  ///< Mode Prior.
  std::vector<policy::Experience> experiences;  ///< Mode Bandit.
  /// Pooled fleets: published solutions in publish order, and fetches
  /// against the epoch's snapshot.
  std::vector<PooledSolution> published;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  /// Edge fleets: the session's server-mirror statistics, which the main
  /// thread merges for the fleet's edge health. (The client counters
  /// travel in `result`.)
  edgesvc::EdgeServerStats edge_server;
};

class FleetSimulator {
 public:
  explicit FleetSimulator(FleetSpec spec);

  /// Resolve session `id`'s device/scenario/seed. Deterministic in
  /// (spec, id); independent of threads and of other sessions.
  SessionSpec session_spec(std::size_t id) const;

  /// Simulate one session to completion on the calling thread, with no
  /// frozen artifact attached (no pool snapshot, priors, bandit or market
  /// decision): a pure function of (spec, seed), whatever run() did.
  SessionResult run_session(const SessionSpec& spec) const;

  /// Re-run one session with the caller's SchedTrace attached in place
  /// of the meter (regardless of FleetSpec::sched.enabled) and return its
  /// result, with sched fields analyzed from that trace. Like
  /// run_session() it attaches no frozen artifact, and tracing never
  /// feeds back, so for a fleet without pool, policy or market it
  /// reproduces the fleet run's trajectory exactly — the deterministic
  /// deep-dive behind `fleet_demo --sched`, which re-runs the worst
  /// session to print its full forensics report.
  SessionResult run_session_traced(const SessionSpec& spec,
                                   des::SchedTrace& trace) const;

  /// Simulate one session against frozen epoch artifacts: with `priors`
  /// set, an HBO session whose full activations consult the snapshot;
  /// with `bandit` set, a BanditSession selecting against the frozen
  /// model. Both null reproduces run_session() exactly. Pure function of
  /// (spec, artifacts) — callable from any worker thread.
  PolicySessionOutput run_policy_session(
      const SessionSpec& spec,
      std::shared_ptr<const policy::PriorSnapshot> priors,
      std::shared_ptr<const policy::LinUcbBandit> bandit) const;

  /// Simulate one session under a frozen market tick decision: the edge
  /// client carries the allocator's decided background and resolution,
  /// the session's HBO cost carries the posted price, and the reported
  /// quality carries the resolution's perceptual scale. Pure function of
  /// (spec, allocation) — callable from any worker thread. Requires the
  /// broker to exist with its market enabled (i.e. inside run()).
  SessionResult run_market_session(
      const SessionSpec& spec,
      const marketsvc::TenantAllocation& alloc) const;

  /// Run the whole fleet (blocking). Safe to call repeatedly; each call
  /// starts from a fresh pool/store/learner.
  FleetResult run();

  const FleetSpec& spec() const { return spec_; }
  /// Null unless policy mode Prior; reset at the start of every run().
  const policy::PriorStore* prior_store() const { return prior_store_.get(); }
  /// Null unless policy mode Bandit; reset at the start of every run().
  const policy::LinUcbBandit* bandit() const { return bandit_.get(); }

 private:
  /// The session body behind every public entry point and run()'s loop,
  /// which passes the epoch's priors, bandit, allocation and pool
  /// snapshot together. A non-null `trace` (run_session_traced) replaces
  /// the spec's sched meter; a non-null `market` swaps the mirror
  /// client for the allocator's market client and applies the decision's
  /// resolution/price to the session; a non-null `pool` turns the lookup
  /// table on and backs its misses with the snapshot.
  PolicySessionOutput run_policy_session_impl(
      const SessionSpec& spec,
      std::shared_ptr<const policy::PriorSnapshot> priors,
      std::shared_ptr<const policy::LinUcbBandit> bandit,
      des::SchedTrace* trace = nullptr,
      const marketsvc::TenantAllocation* market = nullptr,
      const PoolSnapshot* pool = nullptr) const;

  FleetSpec spec_;
  std::unique_ptr<edgesvc::EdgeBroker> broker_;
  std::unique_ptr<policy::PriorStore> prior_store_;
  std::unique_ptr<policy::LinUcbBandit> bandit_;
  std::size_t policy_epochs_ = 0;  ///< Learner freezes in the last run().
};

}  // namespace hbosim::fleet
