#include "hbosim/fleet/fleet_simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <optional>
#include <utility>

#include "hbosim/common/error.hpp"
#include "hbosim/common/rng.hpp"
#include "hbosim/common/thread_pool.hpp"
#include "hbosim/offload/offload.hpp"
#include "hbosim/soc/devices_builtin.hpp"
#include "hbosim/telemetry/telemetry.hpp"

namespace hbosim::fleet {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Deterministic weighted pick: maps a SplitMix64 draw onto the cumulative
/// weight line. Weights need not be normalized.
template <typename Entry>
const Entry& pick_weighted(const std::vector<Entry>& entries,
                           std::uint64_t draw) {
  double total = 0.0;
  for (const Entry& e : entries) total += e.weight;
  // 53-bit mantissa uniform in [0, 1), same mapping Rng::uniform uses.
  const double u =
      static_cast<double>(draw >> 11) * (1.0 / 9007199254740992.0);
  double acc = 0.0;
  for (const Entry& e : entries) {
    acc += e.weight;
    if (u * total < acc) return e;
  }
  return entries.back();  // numerical edge: u*total == total
}

}  // namespace

std::string SessionSpec::scenario_name() const {
  return std::string(scenario::object_set_name(objects)) + "/" +
         scenario::task_set_name(tasks);
}

void FleetSpec::validate() const {
  HB_REQUIRE(sessions >= 1, "fleet needs at least one session");
  HB_REQUIRE(duration_s > 0.0, "fleet session duration must be positive");
  HB_REQUIRE(std::isfinite(duration_s),
             "fleet session duration must be finite — a session runs until "
             "its simulated clock reaches it");
  // The session template's HBO knobs fail here, before any session runs,
  // rather than in whichever session first builds a controller.
  session.hbo.validate();
  auto check_weights = [](const auto& mix, const char* what) {
    double total = 0.0;
    for (const auto& e : mix) {
      HB_REQUIRE(std::isfinite(e.weight),
                 std::string(what) +
                     " weight must be finite — an infinite weight breaks "
                     "the weighted pick");
      HB_REQUIRE(e.weight >= 0.0, std::string(what) + " weight must be >= 0");
      total += e.weight;
    }
    HB_REQUIRE(mix.empty() || total > 0.0,
               std::string(what) + " mix weights sum to zero");
    HB_REQUIRE(std::isfinite(total),
               std::string(what) + " mix weights overflow to infinity");
  };
  check_weights(devices, "device");
  check_weights(scenarios, "scenario");
  for (const DeviceMixEntry& d : devices)
    soc::find_builtin(d.device);  // throws for unknown names
  if (use_edge_service) edge.validate();
  if (edge_static_resolution != 1.0) {
    HB_REQUIRE(edge_static_resolution > 0.0 && edge_static_resolution <= 1.0,
               "FleetSpec::edge_static_resolution must be in (0, 1]");
    HB_REQUIRE(use_edge_service,
               "FleetSpec::edge_static_resolution trims the edge clients' "
               "mesh work — it needs use_edge_service");
    HB_REQUIRE(!market.enabled,
               "FleetSpec::edge_static_resolution and FleetSpec::market "
               "both drive the resolution knob — pin it statically or let "
               "the JointAllocator assign it, not both");
  }
  if (market.enabled) {
    // Misconfigured markets fail loudly up front (satellite of the
    // marketsvc work): each rejected combination below would otherwise
    // run and silently produce meaningless or nondeterministic results.
    HB_REQUIRE(use_edge_service,
               "FleetSpec::market requires use_edge_service — the "
               "JointAllocator allocates the shared edge box, so there is "
               "nothing to allocate without one (set use_edge_service and "
               "FleetSpec::edge, or disable FleetSpec::market)");
    HB_REQUIRE(policy.mode != PolicyMode::Bandit,
               "FleetSpec::market cannot run with PolicyMode::Bandit — "
               "BanditSession's cost omits the posted market_price, so the "
               "allocator's Pricing signal would never reach bandit "
               "tenants (use PolicyMode::Off or Prior with the market)");
    HB_REQUIRE(market.epoch_sessions >= 1,
               "FleetSpec::market.epoch_sessions needs at least one "
               "session per broker tick");
  }
  if (offload.enabled) {
    // Misconfigured offload fails loudly up front, mirroring the market
    // block above: each rejected combination would otherwise run and
    // silently produce meaningless results.
    HB_REQUIRE(use_edge_service,
               "FleetSpec::offload requires use_edge_service — the edge "
               "coordinate of the 4-target simplex routes inferences to "
               "the session's edge mirror, so there is nothing to offload "
               "to without one (set use_edge_service and FleetSpec::edge, "
               "or disable FleetSpec::offload)");
    HB_REQUIRE(use_power_model,
               "FleetSpec::offload charges radio energy to the session "
               "battery, which needs use_power_model — enable the power "
               "model");
    HB_REQUIRE(!market.enabled,
               "FleetSpec::offload and FleetSpec::market cannot run "
               "together — the JointAllocator's decided background does "
               "not model per-session inference offload traffic, so the "
               "market's epoch decisions would be priced against a load "
               "it never saw (run them in separate fleets)");
    HB_REQUIRE(policy.mode != PolicyMode::Bandit,
               "FleetSpec::offload cannot run with PolicyMode::Bandit — "
               "the LinUCB arm grid spans the 3-resource on-device "
               "simplex and has no edge coordinate (use PolicyMode::Off "
               "or Prior with offload)");
  }
  if (policy.mode != PolicyMode::Off || use_shared_pool) {
    HB_REQUIRE(policy.epoch_sessions >= 1,
               "policy epochs need at least one session — the policy layer "
               "and the shared pool freeze every policy.epoch_sessions "
               "sessions");
    if (policy.mode == PolicyMode::Bandit) {
      policy.bandit.validate();
      HB_REQUIRE(!use_shared_pool,
                 "bandit-mode fleets cannot use the shared solution pool — "
                 "bandit sessions have no lookup table to warm start from, "
                 "so the pool would silently do nothing");
    }
  }
  if (sched.enabled) {
    HB_REQUIRE(sched.capacity_per_resource >= 1,
               "sched trace ring needs at least one slot");
    HB_REQUIRE(sched_analysis.fairness_window_s > 0.0,
               "sched fairness window must be positive");
  }
  if (use_power_model) {
    power.validate();
    // Every device in the mix needs a power model; failing here turns a
    // mid-fleet surprise into an upfront configuration error.
    for (const DeviceMixEntry& d : devices) power::find_power_model(d.device);
  }
}

FleetSimulator::FleetSimulator(FleetSpec spec) : spec_(std::move(spec)) {
  if (spec_.devices.empty()) {
    spec_.devices = {{"Pixel 7", 1.0}, {"Galaxy S22", 1.0}};
  }
  if (spec_.scenarios.empty()) {
    using scenario::ObjectSet;
    using scenario::TaskSet;
    spec_.scenarios = {{ObjectSet::SC1, TaskSet::CF1, 1.0},
                       {ObjectSet::SC1, TaskSet::CF2, 1.0},
                       {ObjectSet::SC2, TaskSet::CF1, 1.0},
                       {ObjectSet::SC2, TaskSet::CF2, 1.0}};
  }
  spec_.validate();
}

SessionSpec FleetSimulator::session_spec(std::size_t id) const {
  HB_REQUIRE(id < spec_.sessions, "session id out of range");
  SessionSpec out;
  out.id = id;
  out.seed = spec_.base_seed + id;
  // The mix draws come from a dedicated stream (not the session seed
  // itself) so neighbouring sessions don't correlate device and noise.
  SplitMix64 mix(spec_.base_seed ^ (0x9E3779B97F4A7C15ull * (id + 1)));
  out.device = pick_weighted(spec_.devices, mix.next()).device;
  const ScenarioMixEntry& sc = pick_weighted(spec_.scenarios, mix.next());
  out.objects = sc.objects;
  out.tasks = sc.tasks;
  return out;
}

SessionResult FleetSimulator::run_session(const SessionSpec& spec) const {
  return run_policy_session_impl(spec, nullptr, nullptr).result;
}

SessionResult FleetSimulator::run_session_traced(
    const SessionSpec& spec, des::SchedTrace& trace) const {
  return run_policy_session_impl(spec, nullptr, nullptr, &trace).result;
}

PolicySessionOutput FleetSimulator::run_policy_session(
    const SessionSpec& spec,
    std::shared_ptr<const policy::PriorSnapshot> priors,
    std::shared_ptr<const policy::LinUcbBandit> bandit) const {
  return run_policy_session_impl(spec, std::move(priors), std::move(bandit));
}

SessionResult FleetSimulator::run_market_session(
    const SessionSpec& spec,
    const marketsvc::TenantAllocation& alloc) const {
  return run_policy_session_impl(spec, nullptr, nullptr, nullptr, &alloc)
      .result;
}

PolicySessionOutput FleetSimulator::run_policy_session_impl(
    const SessionSpec& spec,
    std::shared_ptr<const policy::PriorSnapshot> priors,
    std::shared_ptr<const policy::LinUcbBandit> bandit,
    des::SchedTrace* trace, const marketsvc::TenantAllocation* market,
    const PoolSnapshot* pool) const {
  const auto t0 = std::chrono::steady_clock::now();

  // Telemetry: name this worker's wall-clock track, route the session's
  // sim-time spans (ai/hbo) onto async track `spec.id`, and wrap the whole
  // session in one labelled wall-clock span.
  const char* span_label = "fleet.session";
  if (telemetry::enabled()) {
    telemetry::set_thread_name("fleet-worker", /*append_index=*/true);
    telemetry::set_current_track(spec.id);
    span_label = telemetry::intern("session " + std::to_string(spec.id) +
                                   " " + spec.device + " " +
                                   spec.scenario_name());
  }
  telemetry::ScopeTimer session_span("fleet", span_label);

  const soc::DeviceProfile device = soc::find_builtin(spec.device);
  app::MarAppConfig base;
  if (spec_.use_power_model) {
    base.enable_power = true;
    base.power = spec_.power;
    // Decorrelate the ambient-noise stream from the engine noise stream
    // while keeping it a pure function of the session seed.
    base.power.seed = spec.seed ^ 0xB0D1'E5C0'FFEE'5EEDull;
  }
  std::unique_ptr<app::MarApp> app =
      scenario::make_app(device, spec.objects, spec.tasks, spec.seed, base);

  // Scheduler forensics: attach the caller's trace, or else a meter, before
  // any event runs. Either is purely observational, so the simulated
  // trajectory is bit-identical with and without it.
  std::optional<des::SchedMeter> meter;
  if (trace == nullptr && spec_.sched.enabled)
    meter.emplace(spec_.sched_analysis);
  des::SchedSink* sink = meter ? &*meter : static_cast<des::SchedSink*>(trace);
  if (sink != nullptr) {
    app->sim().set_sched_trace(sink);
    if ((trace != nullptr ? trace->config() : spec_.sched)
            .exact_depth_counters) {
      // Exact depth counters on sched sessions, so the telemetry depth
      // series lines up sample-for-sample with the event stream.
      for (soc::Unit u : {soc::Unit::Cpu, soc::Unit::Gpu, soc::Unit::Npu})
        app->soc().unit(u).set_trace_decimation(1);
    }
  }

  PolicySessionOutput output;
  SessionResult& out = output.result;
  out.session_id = spec.id;
  out.device = spec.device;
  out.scenario = spec.scenario_name();
  out.seed = spec.seed;

  std::unique_ptr<edgesvc::EdgeClient> edge_client;
  if (broker_) {
    edge_client = market != nullptr
                      ? broker_->make_market_client(*market, spec.seed)
                      : broker_->make_client(spec.id, spec.seed);
    app->attach_edge(edge_client.get());
  }
  // Edge-in-the-simplex: hand the engine a remote executor bound to this
  // session's own mirror client and (when modelled) its own battery.
  // Everything it touches lives on this session's Simulator, so the
  // per-session trajectory stays a pure function of (spec, seed) and the
  // fleet's 1-vs-N-thread bit-identity carries over unchanged.
  std::unique_ptr<offload::OffloadExecutor> offloader;
  if (spec_.offload.enabled && edge_client) {
    offloader = std::make_unique<offload::OffloadExecutor>(
        spec_.offload, *edge_client, app->sim(), app->power());
    app->set_remote_executor(offloader->executor());
  }
  if (edge_client) {
    // The resolution knob — the market's decision, else the static trim,
    // whose mirror background stays the full-resolution static guess —
    // sheds r^2 of the client's mesh work and payload and scales perceived
    // quality by r^gamma. At r = 1 both scale by one, which is exact.
    const double r =
        market != nullptr ? market->resolution : spec_.edge_static_resolution;
    edge_client->set_resolution(r);
    app->set_quality_scale(
        std::pow(r, marketsvc::MarketConfig::resolution_gamma));
  }

  app::SessionStats stats;
  if (bandit) {
    // Agent mode: the LinUCB loop replaces HBO entirely. Selection runs
    // against the frozen epoch model; the pulls travel back as Experience
    // for the main-thread learner feed.
    policy::BanditSessionConfig bcfg;
    bcfg.hbo = spec_.session.hbo;
    bcfg.hbo.seed = spec.seed;
    policy::BanditSession session(*app, bandit, bcfg);
    session.run_until(spec_.duration_s);
    stats = session.stats();
    output.experiences = session.drain_experiences();
    out.bandit_pulls = output.experiences.size();
    out.activations = out.bandit_pulls;
  } else {
    core::MonitoredSessionConfig cfg = spec_.session;
    cfg.hbo.seed = spec.seed;
    // Grow the decision space: the controller samples the 4-target
    // simplex and maps the edge coordinate to per-task remote shares.
    if (spec_.offload.enabled) cfg.hbo.offload = spec_.offload;
    // The tenant-visible price signal: HBO's cost charges the triangle
    // budget at the posted price, so expensive epochs steer the optimizer
    // toward leaner configurations (0 under PF/MaxMin — no cost change).
    if (market != nullptr) cfg.hbo.market_price = market->price;
    if (pool != nullptr) cfg.use_lookup_table = true;
    core::MonitoredSession session(*app, cfg);
    if (edge_client) session.set_edge(edge_client.get());

    if (pool != nullptr) {
      // Fetches read the epoch's frozen snapshot; publishes travel back to
      // the main thread, which files them as it consumes this session.
      core::SolutionStoreHooks hooks;
      hooks.fetch = [pool, &output,
                     base = PoolKey{spec.device, spec.scenario_name(), {}}](
                        const core::EnvironmentKey& env)
          -> std::optional<core::StoredSolution> {
        PoolKey key = base;
        key.env = env;
        const auto hit = pool->find(key.str());
        if (hit == pool->end()) {
          ++output.pool_misses;
          return std::nullopt;
        }
        ++output.pool_hits;
        return hit->second;
      };
      hooks.publish = [&output](const core::EnvironmentKey& env,
                                const core::StoredSolution& solution) {
        output.published.push_back(PooledSolution{env, solution});
      };
      session.set_solution_store(std::move(hooks));
    }

    if (priors) {
      // Prior mode: full activations consult the frozen epoch snapshot
      // (exact environment first, pooled scenario fallback). Reads only —
      // the main thread feeds the store as it consumes each session.
      core::PolicyHooks hooks;
      hooks.prior = [priors, device = spec.device,
                     scenario = spec.scenario_name()](
                        const core::EnvironmentKey& env)
          -> std::shared_ptr<const bo::SurrogatePrior> {
        return priors->find(device, scenario, env);
      };
      session.set_policy_hooks(std::move(hooks));
    }

    session.run_until(spec_.duration_s);
    stats = session.stats();
    out.activations = session.activations().size();
    for (const core::SessionActivation& a : session.activations()) {
      if (a.warm_start) ++out.warm_starts;
      if (a.from_shared_store) ++out.shared_warm_starts;
      if (a.prior_injected) ++out.prior_activations;
      if (priors && !a.warm_start) {
        // Carry every explored (z, cost) back for the PriorStore feed,
        // keyed by the environment the activation fired in.
        for (const core::IterationRecord& r : a.result.history)
          output.observations.push_back(PolicyObservation{a.env, r.z, r.cost});
      }
    }
    out.edge_bo_fallbacks = session.edge_bo_fallbacks();
  }
  out.sim_seconds = app->sim().now();
  out.periods = stats.reward.count();
  out.mean_quality = stats.quality.mean();
  out.mean_latency_ratio = stats.latency_ratio.mean();
  out.mean_reward = stats.reward.mean();

  if (edge_client) {
    const edgesvc::EdgeClientStats& es = edge_client->stats();
    out.edge_requests = es.requests;
    out.edge_retries = es.retries;
    out.edge_rejected_attempts = es.rejected_attempts;
    out.edge_timeout_attempts = es.timeout_attempts;
    out.edge_fallbacks = es.fallbacks;
    out.edge_decim_fallbacks = app->decimation().edge_fallbacks();
    out.edge_payload_bytes = es.payload_bytes;
    out.edge_units = es.units;
    out.edge_service_s = es.own_service_s;
    out.edge_elapsed_s = es.total_elapsed_s;
    output.edge_server = edge_client->server().stats();
  }
  if (offloader) {
    const ai::InferenceEngine& eng = app->engine();
    out.offload_session = true;
    out.offload_completed = eng.completed_inferences();
    out.offload_remote = eng.remote_inferences();
    out.offload_fallbacks = eng.remote_fallbacks();
    if (out.offload_completed > 0) {
      out.offload_rate = static_cast<double>(out.offload_remote) /
                         static_cast<double>(out.offload_completed);
    }
    const offload::OffloadStats& os = offloader->stats();
    out.radio_energy_j = os.radio_energy_j;
    out.offload_elapsed_s = os.edge_elapsed_s;
    const RunningStat& share = app->offload_share_stat();
    if (share.count() > 0) out.mean_edge_share = share.mean();
  }
  if (market != nullptr) {
    out.market_session = true;
    out.market_denied = !market->admitted;
    out.market_resolution = market->resolution;
    out.market_bandwidth_frac = market->bandwidth_frac;
    out.market_price = market->price;
  }
  if (const power::PowerManager* pm = app->power()) {
    const power::PowerStats ps = pm->stats();
    out.energy_j = ps.energy_j;
    out.mean_power_w = ps.mean_power_w;
    out.max_die_temp_c = ps.max_die_temp_c;
    out.throttle_events = ps.throttle_events;
    out.time_throttled_s = ps.time_throttled_s;
    out.min_freq_scale = ps.min_freq_scale;
    out.battery_soc = ps.battery_soc;
    out.battery_drain_pct_per_hour = ps.drain_pct_per_hour;
  }
  if (sink != nullptr) {
    // The roll-up lands in the SessionResult for the fleet's SchedHealth
    // aggregation. A caller's trace is analyzed offline, and with
    // telemetry live its Gantt lands on the session's sim-time async track
    // (a meter emitted those slices as the jobs completed).
    app->sim().set_sched_trace(nullptr);
    des::SchedHealth h;
    if (meter) {
      h = meter->finish();
    } else {
      const des::SchedAnalyzer analysis(*trace, spec_.sched_analysis);
      h = analysis.health();
      if (telemetry::enabled()) analysis.export_perfetto_gantt(spec.id);
    }
    out.sched_traced = true;
    out.sched_jobs = h.jobs;
    out.sched_worst_p99_slowdown = h.worst_p99_slowdown;
    out.sched_fairness_floor = h.fairness_floor;
    out.sched_starved_jobs = h.starved_jobs;
    out.sched_events = h.events;
    out.sched_dropped_events = h.dropped_events;
  }
  out.wall_seconds = seconds_since(t0);
  if (telemetry::enabled()) {
    HB_TELEM_COUNT("fleet.sessions_completed", 1.0);
    HB_TELEM_HIST_US("fleet.session_wall_us", out.wall_seconds * 1e6);
  }
  return output;
}

FleetResult FleetSimulator::run() {
  HB_TRACE_SCOPE("fleet", "fleet.run");
  std::optional<SharedSolutionPool> pool;
  if (spec_.use_shared_pool) pool.emplace();
  broker_.reset();
  if (spec_.use_edge_service) {
    broker_ =
        std::make_unique<edgesvc::EdgeBroker>(spec_.edge, spec_.sessions);
    if (spec_.market.enabled) broker_->enable_market(spec_.market.allocator);
  }
  prior_store_.reset();
  bandit_.reset();
  policy_epochs_ = 0;
  if (spec_.policy.mode == PolicyMode::Prior)
    prior_store_ = std::make_unique<policy::PriorStore>(spec_.policy.prior);
  if (spec_.policy.mode == PolicyMode::Bandit) {
    bandit_ = std::make_unique<policy::LinUcbBandit>(
        policy::make_arm_grid(spec_.session.hbo.r_min),
        spec_.policy.bandit);
  }

  const std::size_t threads =
      spec_.threads ? spec_.threads : ThreadPool::hardware_threads();
  const auto t0 = std::chrono::steady_clock::now();

  FleetResult out;
  FleetAccumulator acc(spec_.retain_results
                           ? FleetAccumulator::Mode::Exact
                           : FleetAccumulator::Mode::Streaming);
  if (spec_.retain_results) out.sessions.reserve(spec_.sessions);

  // One loop for every fleet. Sessions run through a bounded in-flight
  // window, submitted ahead of consumption by enough to keep every worker
  // fed. A barrier fires where a market or learner epoch starts: it
  // drains the window, then ticks the allocator over the epoch's tenants
  // and/or freezes the learners (pool, priors, bandit), so every session
  // of an epoch runs against the artifacts frozen at its barrier. Barrier
  // points, artifact content and feed order are pure functions of the
  // spec, which keeps every fleet bit-identical on 1 and N threads; a
  // fleet without pool, policy layer or market has no barriers at all.
  ThreadPool workers(threads);
  const std::size_t window = std::max<std::size_t>(threads * 8, 64);
  marketsvc::JointAllocator* allocator =
      spec_.market.enabled ? &broker_->market() : nullptr;
  const bool learner = prior_store_ || bandit_ || pool;
  std::deque<std::future<PolicySessionOutput>> inflight;
  std::shared_ptr<const std::vector<marketsvc::TenantAllocation>> allocations;
  std::size_t market_start = 0;
  std::shared_ptr<const policy::PriorSnapshot> priors;
  std::shared_ptr<const policy::LinUcbBandit> frozen;
  std::shared_ptr<const PoolSnapshot> pool_snapshot;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  edgesvc::EdgeServerStats edge_server;

  // Every completed session flows through here on the main thread, in
  // session-id order: it feeds the allocator, the learners and the edge
  // server roll-up, then the metrics roll-up, which keeps the streaming
  // percentiles, the edge sums (and any on_progress heartbeat)
  // deterministic regardless of worker scheduling. get() rethrows any
  // session failure to the caller.
  auto consume_next = [&] {
    PolicySessionOutput o = inflight.front().get();
    inflight.pop_front();
    SessionResult& r = o.result;
    if (broker_) edge_server.merge(o.edge_server);
    if (allocator != nullptr) {
      marketsvc::MeasuredUsage usage;
      usage.payload_bytes = r.edge_payload_bytes;
      usage.requests = r.edge_requests;
      usage.units = r.edge_units;
      usage.service_s = r.edge_service_s;
      usage.duration_s = r.sim_seconds;
      allocator->observe(r.session_id, usage, r.market_resolution);
    }
    if (prior_store_) {
      for (const PolicyObservation& obs : o.observations) {
        prior_store_->record(policy::PriorKey{r.device, r.scenario, obs.env},
                             obs.z, obs.cost);
      }
    }
    if (bandit_) {
      for (const policy::Experience& e : o.experiences)
        bandit_->update(e.arm, e.context, e.reward);
    }
    if (pool) {
      for (const PooledSolution& p : o.published)
        pool->publish(PoolKey{r.device, r.scenario, p.env}, p.solution);
      pool_hits += o.pool_hits;
      pool_misses += o.pool_misses;
    }
    acc.add(r);
    if (spec_.retain_results) out.sessions.push_back(std::move(r));
    if (spec_.progress_every != 0 && spec_.on_progress &&
        acc.sessions() % spec_.progress_every == 0) {
      spec_.on_progress(
          FleetProgress{acc.sessions(), spec_.sessions, seconds_since(t0)});
    }
  };

  for (std::size_t id = 0; id < spec_.sessions; ++id) {
    const bool tick =
        allocator != nullptr && id % spec_.market.epoch_sessions == 0;
    const bool freeze = learner && id % spec_.policy.epoch_sessions == 0;
    if (tick || freeze) {
      HB_TRACE_SCOPE("fleet", "fleet.barrier");
      while (!inflight.empty()) consume_next();
      if (tick) {
        const std::size_t end =
            std::min(id + spec_.market.epoch_sessions, spec_.sessions);
        std::vector<marketsvc::TenantDemand> demands(end - id);
        for (std::size_t t = id; t < end; ++t) demands[t - id].tenant = t;
        allocations =
            std::make_shared<const std::vector<marketsvc::TenantAllocation>>(
                allocator->tick(demands));
        market_start = id;
      }
      if (freeze) {
        priors = prior_store_ ? prior_store_->snapshot() : nullptr;
        frozen = bandit_
                     ? std::make_shared<const policy::LinUcbBandit>(*bandit_)
                     : nullptr;
        if (pool) pool_snapshot = pool->snapshot();
        ++policy_epochs_;
        HB_TELEM_COUNT("fleet.policy_epochs", 1.0);
      }
    } else if (inflight.size() >= window) {
      consume_next();
    }
    inflight.push_back(workers.submit([this, spec = session_spec(id), priors,
                                       frozen, allocations, pool_snapshot,
                                       slot = id - market_start] {
      return run_policy_session_impl(
          spec, priors, frozen, nullptr,
          allocations ? &(*allocations)[slot] : nullptr, pool_snapshot.get());
    }));
  }
  while (!inflight.empty()) consume_next();

  SharedSolutionPoolStats pool_stats;
  if (pool) {
    pool_stats = pool->stats();
    pool_stats.hits = pool_hits;
    pool_stats.misses = pool_misses;
  }
  out.metrics = acc.finalize(seconds_since(t0), pool_stats,
                             broker_ ? &edge_server : nullptr);
  if (spec_.market.enabled) {
    FleetMetrics::MarketHealth& mh = out.metrics.market;
    mh.enabled = true;
    mh.policy = marketsvc::market_policy_name(spec_.market.allocator.policy);
    mh.ticks = broker_->market().ticks();
    const marketsvc::MarketTickStats& last = broker_->market().last();
    mh.link_activity = last.link_activity;
    mh.compute_utilization = last.compute_utilization;
    mh.final_price = last.price;
  }
  if (spec_.policy.mode != PolicyMode::Off) {
    FleetMetrics::PolicyHealth& ph = out.metrics.policy;
    ph.enabled = true;
    ph.mode = spec_.policy.mode == PolicyMode::Prior ? "prior" : "bandit";
    ph.epochs = policy_epochs_;
    if (prior_store_) {
      const policy::PriorStoreStats ps = prior_store_->stats();
      ph.store_keys = ps.keys;
      ph.store_observations = ps.observations;
      ph.priors_fitted = ps.fits;
    }
    if (bandit_) ph.bandit_updates = bandit_->updates();
  }
  return out;
}

}  // namespace hbosim::fleet
