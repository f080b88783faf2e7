// Tests for hbosim::fleet: deterministic session stamping, the shared
// cross-session solution pool, and the fleet determinism guarantee (same
// per-session aggregates regardless of thread count).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "hbosim/common/error.hpp"
#include "hbosim/fleet/fleet_simulator.hpp"

namespace hbosim {
namespace {

/// A fleet config small and fast enough for unit tests: the light object
/// set / taskset and a truncated activation loop.
fleet::FleetSpec fast_fleet(std::size_t sessions, std::size_t threads) {
  fleet::FleetSpec spec;
  spec.sessions = sessions;
  spec.threads = threads;
  spec.duration_s = 14.0;
  spec.session.hbo.n_initial = 2;
  spec.session.hbo.n_iterations = 2;
  spec.session.hbo.selection_candidates = 1;
  spec.session.hbo.control_period_s = 1.0;
  spec.session.hbo.monitor_period_s = 1.0;
  spec.session.reference_periods = 2;
  spec.scenarios = {{scenario::ObjectSet::SC2, scenario::TaskSet::CF2, 1.0}};
  return spec;
}

TEST(FleetSpec, ValidateRejectsNonsense) {
  fleet::FleetSpec spec;
  spec.sessions = 0;
  EXPECT_THROW(fleet::FleetSimulator{spec}, Error);

  spec = fleet::FleetSpec{};
  spec.duration_s = 0.0;
  EXPECT_THROW(fleet::FleetSimulator{spec}, Error);

  spec = fleet::FleetSpec{};
  spec.devices = {{"No Such Phone", 1.0}};
  EXPECT_THROW(fleet::FleetSimulator{spec}, Error);

  spec = fleet::FleetSpec{};
  spec.devices = {{"Pixel 7", -1.0}};
  EXPECT_THROW(fleet::FleetSimulator{spec}, Error);

  // Non-finite values: an infinite duration never finishes a session, and
  // an infinite weight starves every other entry of the weighted pick.
  const double inf = std::numeric_limits<double>::infinity();
  spec = fleet::FleetSpec{};
  spec.duration_s = inf;
  EXPECT_THROW(fleet::FleetSimulator{spec}, Error);

  spec = fleet::FleetSpec{};
  spec.devices = {{"Pixel 7", inf}, {"Galaxy S22", 1.0}};
  EXPECT_THROW(fleet::FleetSimulator{spec}, Error);

  spec = fleet::FleetSpec{};
  spec.devices = {{"Pixel 7", std::numeric_limits<double>::quiet_NaN()}};
  EXPECT_THROW(fleet::FleetSimulator{spec}, Error);

  spec = fleet::FleetSpec{};
  spec.scenarios = {{scenario::ObjectSet::SC1, scenario::TaskSet::CF1, inf}};
  EXPECT_THROW(fleet::FleetSimulator{spec}, Error);

  // Finite weights whose sum overflows break the pick the same way.
  spec = fleet::FleetSpec{};
  spec.devices = {{"Pixel 7", 1e308}, {"Galaxy S22", 1e308}};
  EXPECT_THROW(fleet::FleetSimulator{spec}, Error);

  // The session template's HBO knobs are checked up front too: an
  // infinite period never ends a session's loop, and an infinite weight
  // or price makes every cost infinite, which the optimizer rejects
  // mid-fleet.
  for (double core::HboConfig::*knob :
       {&core::HboConfig::control_period_s, &core::HboConfig::monitor_period_s,
        &core::HboConfig::w_energy, &core::HboConfig::market_price}) {
    spec = fleet::FleetSpec{};
    spec.session.hbo.*knob = inf;
    EXPECT_THROW(fleet::FleetSimulator{spec}, Error);
  }
  spec = fleet::FleetSpec{};
  spec.session.hbo.n_initial = 0;
  EXPECT_THROW(fleet::FleetSimulator{spec}, Error);
}

TEST(FleetSimulator, SessionSpecsAreDeterministicAndSeededByOffset) {
  fleet::FleetSpec spec;  // default mixes: 2 devices x 4 scenarios
  spec.sessions = 64;
  spec.base_seed = 42;
  fleet::FleetSimulator a(spec), b(spec);
  std::map<std::string, int> devices;
  for (std::size_t i = 0; i < spec.sessions; ++i) {
    const fleet::SessionSpec sa = a.session_spec(i);
    const fleet::SessionSpec sb = b.session_spec(i);
    EXPECT_EQ(sa.device, sb.device);
    EXPECT_EQ(sa.scenario_name(), sb.scenario_name());
    EXPECT_EQ(sa.seed, 42u + i);
    ++devices[sa.device];
  }
  // Both equally-weighted devices actually appear in a 64-session fleet.
  EXPECT_EQ(devices.size(), 2u);
  EXPECT_THROW(a.session_spec(spec.sessions), Error);
}

TEST(FleetSimulator, ZeroWeightEntriesAreNeverPicked) {
  fleet::FleetSpec spec = fast_fleet(32, 1);
  spec.devices = {{"Pixel 7", 1.0}, {"Galaxy S22", 0.0}};
  fleet::FleetSimulator fleet(spec);
  for (std::size_t i = 0; i < spec.sessions; ++i)
    EXPECT_EQ(fleet.session_spec(i).device, "Pixel 7");
}

TEST(SharedSolutionPool, FetchPublishCountersAndCollisionPolicy) {
  fleet::SharedSolutionPool pool;
  const fleet::PoolKey key{"Pixel 7", "SC2/CF2", {12, 4, 99}};

  const auto empty = pool.snapshot();
  ASSERT_NE(empty, nullptr);
  EXPECT_TRUE(empty->empty());
  pool.publish(key, {{0.5, 0.5, 0.0, 0.8}, -1.0});
  // A snapshot is frozen: the publish above does not reach it.
  EXPECT_TRUE(empty->empty());
  const auto first = pool.snapshot();
  ASSERT_EQ(first->count(key.str()), 1u);
  EXPECT_DOUBLE_EQ(first->at(key.str()).cost, -1.0);

  // Collision: the worse (higher-cost) solution is ignored, the better
  // one replaces.
  pool.publish(key, {{1.0, 0.0, 0.0, 1.0}, -0.5});
  EXPECT_DOUBLE_EQ(pool.snapshot()->at(key.str()).cost, -1.0);
  pool.publish(key, {{1.0, 0.0, 0.0, 1.0}, -2.0});
  EXPECT_DOUBLE_EQ(pool.snapshot()->at(key.str()).cost, -2.0);
  EXPECT_DOUBLE_EQ(first->at(key.str()).cost, -1.0);

  // The pool sees publishes only; fetches are the fleet's to count.
  const fleet::SharedSolutionPoolStats stats = pool.stats();
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.stores, 3u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.hits + stats.misses, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.0);

  // Distinct devices / scenarios / environments do not alias.
  const auto snap = pool.snapshot();
  for (const fleet::PoolKey& other :
       {fleet::PoolKey{"Galaxy S22", "SC2/CF2", {12, 4, 99}},
        fleet::PoolKey{"Pixel 7", "SC1/CF2", {12, 4, 99}},
        fleet::PoolKey{"Pixel 7", "SC2/CF2", {13, 4, 99}}})
    EXPECT_EQ(snap->count(other.str()), 0u) << other.str();
}

TEST(SharedSolutionPool, EvictsLeastRecentlyUsedAtCapacity) {
  fleet::SharedSolutionPool pool(2);
  const fleet::PoolKey a{"d", "s", {1, 0, 0}};
  const fleet::PoolKey b{"d", "s", {2, 0, 0}};
  const fleet::PoolKey c{"d", "s", {3, 0, 0}};
  pool.publish(a, {{}, -1.0});
  pool.publish(b, {{}, -1.0});
  pool.publish(a, {{}, -2.0});  // refresh a; b is now LRU
  pool.publish(c, {{}, -1.0});  // evicts b
  EXPECT_EQ(pool.stats().evictions, 1u);
  const auto snap = pool.snapshot();
  EXPECT_EQ(snap->size(), 2u);
  EXPECT_EQ(snap->count(a.str()), 1u);
  EXPECT_EQ(snap->count(b.str()), 0u);
  EXPECT_EQ(snap->count(c.str()), 1u);
}

// A scripted run of publishes and snapshots across more keys than the
// pool holds: only publishes move recency — winning or losing a collision
// alike — and reading a snapshot never does. Snapshots are shared until a
// publish changes the contents.
TEST(SharedSolutionPool, InterleavedFetchPublishEvictionOrderIsDeterministic) {
  fleet::SharedSolutionPool pool(3);
  auto key = [](std::uint64_t i) {
    return fleet::PoolKey{"d", "s", {i, 0, 0}};
  };

  pool.publish(key(1), {{}, -1.0});
  pool.publish(key(2), {{}, -1.0});
  pool.publish(key(3), {{}, -1.0});
  const auto frozen = pool.snapshot();
  EXPECT_EQ(pool.snapshot(), frozen);  // unchanged: the same snapshot
  // Reading key 1 from the snapshot does not refresh it...
  EXPECT_EQ(frozen->count(key(1).str()), 1u);
  pool.publish(key(4), {{}, -1.0});  // ...so it is the one evicted
  const auto after = pool.snapshot();
  EXPECT_NE(after, frozen);
  EXPECT_EQ(after->count(key(1).str()), 0u);
  EXPECT_EQ(frozen->count(key(1).str()), 1u);  // the old epoch still has it

  // A losing collision (higher cost) keeps the better entry but refreshes
  // the key, so 3 is now the LRU entry.
  pool.publish(key(2), {{}, -0.1});
  EXPECT_EQ(pool.snapshot(), after);  // contents unchanged
  pool.publish(key(5), {{}, -1.0});   // evicts 3
  const auto last = pool.snapshot();
  EXPECT_EQ(last->count(key(3).str()), 0u);
  EXPECT_DOUBLE_EQ(last->at(key(2).str()).cost, -1.0);
  EXPECT_EQ(last->count(key(4).str()), 1u);
  EXPECT_EQ(last->count(key(5).str()), 1u);

  const fleet::SharedSolutionPoolStats stats = pool.stats();
  EXPECT_EQ(stats.size, 3u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.stores, 6u);
}

// SolutionLookupTable::replace under an interleaved fetch/store sequence:
// store keeps the lower-cost entry on collision, so after a warm start is
// rejected only replace() can install the (worse but real) measured cost.
TEST(SolutionLookupTable, ReplaceOverridesLowerCostWinsMidSequence) {
  core::SolutionLookupTable table;
  const core::EnvironmentKey env{7, 3, 42};

  table.store(env, {{1.0, 0.0, 0.0, 1.0}, -2.0});
  ASSERT_TRUE(table.find(env).has_value());

  // A later, worse store loses the collision...
  table.store(env, {{0.0, 1.0, 0.0, 0.5}, -1.0});
  EXPECT_DOUBLE_EQ(table.find(env)->cost, -2.0);
  // ...but replace() overwrites unconditionally (stale-entry poisoning).
  table.replace(env, {{0.0, 1.0, 0.0, 0.5}, -1.0});
  EXPECT_DOUBLE_EQ(table.find(env)->cost, -1.0);
  EXPECT_DOUBLE_EQ(table.find(env)->z[1], 1.0);

  // Interleave further: store now wins again only with a better cost.
  table.store(env, {{0.5, 0.5, 0.0, 0.9}, -0.5});
  EXPECT_DOUBLE_EQ(table.find(env)->cost, -1.0);
  table.store(env, {{0.5, 0.5, 0.0, 0.9}, -3.0});
  EXPECT_DOUBLE_EQ(table.find(env)->cost, -3.0);
  // replace() on a missing key inserts.
  const core::EnvironmentKey fresh{8, 3, 42};
  table.replace(fresh, {{0.2, 0.3, 0.5, 0.7}, -0.25});
  ASSERT_TRUE(table.find(fresh).has_value());
  EXPECT_EQ(table.size(), 2u);
}

// The acceptance-criteria test: a pool-disabled fleet produces identical
// per-session aggregates on 1 thread and on several threads.
TEST(FleetSimulator, PerSessionResultsAreThreadCountInvariant) {
  const std::size_t kSessions = 64;
  fleet::FleetResult serial = fleet::FleetSimulator(fast_fleet(kSessions, 1)).run();
  fleet::FleetResult threaded =
      fleet::FleetSimulator(fast_fleet(kSessions, 4)).run();

  ASSERT_EQ(serial.sessions.size(), kSessions);
  ASSERT_EQ(threaded.sessions.size(), kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    const fleet::SessionResult& a = serial.sessions[i];
    const fleet::SessionResult& b = threaded.sessions[i];
    EXPECT_EQ(a.session_id, i);
    EXPECT_EQ(b.session_id, i);
    EXPECT_EQ(a.device, b.device);
    EXPECT_EQ(a.scenario, b.scenario);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.periods, b.periods);
    EXPECT_EQ(a.activations, b.activations);
    EXPECT_EQ(a.warm_starts, b.warm_starts);
    // Bit-identical trajectories, not merely close ones.
    EXPECT_EQ(a.mean_quality, b.mean_quality) << "session " << i;
    EXPECT_EQ(a.mean_latency_ratio, b.mean_latency_ratio) << "session " << i;
    EXPECT_EQ(a.mean_reward, b.mean_reward) << "session " << i;
    EXPECT_EQ(a.sim_seconds, b.sim_seconds) << "session " << i;
  }
  // Every session actually ran its initial activation.
  EXPECT_GE(serial.metrics.total_activations, kSessions);
  EXPECT_GT(serial.metrics.reward.mean, serial.metrics.reward.min - 1.0);
}

// An Off fleet longer than the in-flight window (64 on 1 thread) consumes
// sessions while it still submits; each one still runs exactly as a
// standalone session with no priors, bandit or allocation attached.
TEST(FleetSimulator, OffFleetBeyondTheWindowMatchesStandaloneSessions) {
  const std::size_t kSessions = 70;
  fleet::FleetSimulator fleet(fast_fleet(kSessions, 1));
  const fleet::FleetResult result = fleet.run();

  ASSERT_EQ(result.sessions.size(), kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    const fleet::SessionResult& a = result.sessions[i];
    const fleet::SessionResult b = fleet.run_session(fleet.session_spec(i));
    EXPECT_EQ(a.session_id, i);
    EXPECT_EQ(a.device, b.device) << "session " << i;
    EXPECT_EQ(a.seed, b.seed) << "session " << i;
    EXPECT_EQ(a.mean_quality, b.mean_quality) << "session " << i;
    EXPECT_EQ(a.mean_latency_ratio, b.mean_latency_ratio) << "session " << i;
    EXPECT_EQ(a.mean_reward, b.mean_reward) << "session " << i;
    EXPECT_EQ(a.sim_seconds, b.sim_seconds) << "session " << i;
    EXPECT_EQ(a.activations, b.activations) << "session " << i;
    EXPECT_EQ(a.prior_activations, 0u);
    EXPECT_FALSE(a.market_session);
  }
  EXPECT_FALSE(result.metrics.policy.enabled);
  EXPECT_FALSE(result.metrics.market.enabled);
}

// The power-model variant of the invariance guarantee: per-session
// PowerManagers rescale PsResource capacities mid-run (the governor), and
// that feedback must still be bit-identical across thread counts because
// each session owns its power state and derives its ambient Rng from the
// session seed.
TEST(FleetSimulator, PowerModelKeepsThreadCountInvariance) {
  auto power_fleet = [](std::size_t threads) {
    fleet::FleetSpec spec = fast_fleet(24, threads);
    spec.use_power_model = true;
    spec.power.ambient_c = 28.0;
    spec.power.initial_temp_c = 61.0;  // warm: MidTier/S22 throttle quickly
    spec.scenarios = {
        {scenario::ObjectSet::ThermalSoak, scenario::TaskSet::CF1, 1.0}};
    return spec;
  };
  fleet::FleetResult serial = fleet::FleetSimulator(power_fleet(1)).run();
  fleet::FleetResult threaded = fleet::FleetSimulator(power_fleet(4)).run();

  ASSERT_EQ(serial.sessions.size(), threaded.sessions.size());
  std::uint64_t total_throttle_events = 0;
  for (std::size_t i = 0; i < serial.sessions.size(); ++i) {
    const fleet::SessionResult& a = serial.sessions[i];
    const fleet::SessionResult& b = threaded.sessions[i];
    EXPECT_EQ(a.mean_quality, b.mean_quality) << "session " << i;
    EXPECT_EQ(a.mean_reward, b.mean_reward) << "session " << i;
    // The power trajectory itself is part of the invariant.
    EXPECT_EQ(a.energy_j, b.energy_j) << "session " << i;
    EXPECT_EQ(a.max_die_temp_c, b.max_die_temp_c) << "session " << i;
    EXPECT_EQ(a.throttle_events, b.throttle_events) << "session " << i;
    EXPECT_EQ(a.battery_soc, b.battery_soc) << "session " << i;
    total_throttle_events += a.throttle_events;
  }
  // The test only means something if the governor actually acted.
  EXPECT_GT(total_throttle_events, 0u);
  EXPECT_TRUE(serial.metrics.power.enabled);
  EXPECT_GT(serial.metrics.power.total_energy_j, 0.0);
  EXPECT_GT(serial.metrics.power.throttled_session_fraction, 0.0);
}

/// A pooled fleet on one (device, scenario) key with a pool epoch of 4,
/// lenient enough that pooled configurations pass the warm-start check.
fleet::FleetSpec pooled_fleet(std::size_t sessions, std::size_t threads) {
  fleet::FleetSpec spec = fast_fleet(sessions, threads);
  spec.devices = {{"Pixel 7", 1.0}};  // one key -> guaranteed sharing
  spec.use_shared_pool = true;
  spec.policy.epoch_sessions = 4;
  spec.session.warm_start_tolerance = 10.0;  // accept pooled configs
  return spec;
}

// Enabling the shared pool lets later sessions warm-start from earlier
// sessions' solutions: nonzero hit rate, nonzero shared warm starts.
TEST(FleetSimulator, SharedPoolProducesCrossSessionWarmStarts) {
  fleet::FleetSimulator fleet(pooled_fleet(12, 2));
  const fleet::FleetResult result = fleet.run();

  const fleet::SharedSolutionPoolStats pool = result.metrics.pool;
  EXPECT_GT(pool.stores, 0u);
  EXPECT_GT(pool.hits, 0u);
  EXPECT_GT(pool.misses, 0u);  // epoch 0 reads the empty snapshot
  EXPECT_GT(pool.hit_rate(), 0.0);
  EXPECT_GT(result.metrics.total_shared_warm_starts, 0u);
  // Every shared warm start was served by a snapshot hit.
  EXPECT_GE(pool.hits, result.metrics.total_shared_warm_starts);
  EXPECT_GT(result.metrics.warm_start_rate, 0.0);
  // Only sessions after the first publisher can share; the first full
  // activation is always a miss.
  EXPECT_LT(result.metrics.total_shared_warm_starts,
            result.metrics.total_activations);
}

void expect_same_session(const fleet::SessionResult& a,
                         const fleet::SessionResult& b) {
  EXPECT_EQ(a.session_id, b.session_id);
  EXPECT_EQ(a.periods, b.periods) << "session " << a.session_id;
  EXPECT_EQ(a.activations, b.activations) << "session " << a.session_id;
  EXPECT_EQ(a.warm_starts, b.warm_starts) << "session " << a.session_id;
  EXPECT_EQ(a.shared_warm_starts, b.shared_warm_starts)
      << "session " << a.session_id;
  EXPECT_EQ(a.mean_quality, b.mean_quality) << "session " << a.session_id;
  EXPECT_EQ(a.mean_latency_ratio, b.mean_latency_ratio)
      << "session " << a.session_id;
  EXPECT_EQ(a.mean_reward, b.mean_reward) << "session " << a.session_id;
  EXPECT_EQ(a.sim_seconds, b.sim_seconds) << "session " << a.session_id;
}

// run_session() is a pure function of the spec: a pooled run() before it
// leaves nothing behind for it to read or write.
TEST(FleetSimulator, RunSessionAfterPooledRunMatchesFreshSimulator) {
  const fleet::FleetSpec spec = pooled_fleet(12, 2);
  const fleet::FleetSimulator fresh(spec);
  const fleet::SessionResult before = fresh.run_session(fresh.session_spec(3));

  fleet::FleetSimulator used(spec);
  const fleet::FleetResult result = used.run();
  ASSERT_GT(result.metrics.total_shared_warm_starts, 0u);
  const fleet::SessionResult after = used.run_session(used.session_spec(3));
  expect_same_session(before, after);
  EXPECT_EQ(after.shared_warm_starts, 0u);
}

// The pool is frozen at each learner barrier and fed in session-id order,
// so a pooled fleet is bit-identical on 1 and 4 threads: the same
// sessions warm start from the same solutions, and the pool ends equal.
TEST(FleetSimulator, SharedPoolFleetIsThreadCountInvariant) {
  const std::size_t kSessions = 40;
  const fleet::FleetResult serial =
      fleet::FleetSimulator(pooled_fleet(kSessions, 1)).run();
  const fleet::FleetResult threaded =
      fleet::FleetSimulator(pooled_fleet(kSessions, 4)).run();

  ASSERT_EQ(serial.sessions.size(), kSessions);
  ASSERT_EQ(threaded.sessions.size(), kSessions);
  std::size_t first_epoch_shared = 0, later_shared = 0;
  for (std::size_t i = 0; i < kSessions; ++i) {
    expect_same_session(serial.sessions[i], threaded.sessions[i]);
    (i < 4 ? first_epoch_shared : later_shared) +=
        serial.sessions[i].shared_warm_starts;
  }
  // Epoch 0 reads the empty snapshot; later epochs read its solutions.
  EXPECT_EQ(first_epoch_shared, 0u);
  EXPECT_GT(later_shared, 0u);

  const fleet::SharedSolutionPoolStats& a = serial.metrics.pool;
  const fleet::SharedSolutionPoolStats& b = threaded.metrics.pool;
  EXPECT_EQ(a.size, b.size);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_GT(a.hits, 0u);
}

TEST(FleetMetrics, AggregateComputesPercentilesAndThroughput) {
  std::vector<fleet::SessionResult> sessions(5);
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    sessions[i].session_id = i;
    sessions[i].mean_quality = 0.5 + 0.1 * static_cast<double>(i);
    sessions[i].mean_latency_ratio = 0.1;
    sessions[i].mean_reward = static_cast<double>(i);
    sessions[i].sim_seconds = 10.0;
    sessions[i].activations = 2;
    sessions[i].warm_starts = 1;
  }
  fleet::FleetAccumulator acc(fleet::FleetAccumulator::Mode::Exact);
  for (const fleet::SessionResult& s : sessions) acc.add(s);
  const fleet::FleetMetrics m = acc.finalize(2.0);
  EXPECT_EQ(m.sessions, 5u);
  EXPECT_DOUBLE_EQ(m.total_sim_seconds, 50.0);
  EXPECT_DOUBLE_EQ(m.sessions_per_sec, 2.5);
  EXPECT_DOUBLE_EQ(m.reward.p50, 2.0);
  EXPECT_DOUBLE_EQ(m.reward.min, 0.0);
  EXPECT_DOUBLE_EQ(m.reward.max, 4.0);
  EXPECT_DOUBLE_EQ(m.reward.mean, 2.0);
  EXPECT_DOUBLE_EQ(m.quality.p90, 0.86);
  EXPECT_DOUBLE_EQ(m.warm_start_rate, 0.5);
  EXPECT_EQ(m.total_activations, 10u);
}

/// Synthetic sessions that exercise every gated roll-up: power on all,
/// market on even ids (some denied), offload on every third id, sched
/// tracing on ids = 1 mod 4 (some starved). Values are spread so no two
/// metrics share a sample.
std::vector<fleet::SessionResult> mixed_sessions(std::size_t n) {
  std::vector<fleet::SessionResult> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    const double u = std::fmod(0.6180339887 * (x + 1.0), 1.0);
    fleet::SessionResult& s = out[i];
    s.session_id = i;
    s.sim_seconds = 10.0 + 0.5 * u;
    s.mean_quality = 0.4 + 0.5 * u;
    s.mean_latency_ratio = 0.05 + 0.3 * (1.0 - u);
    s.mean_reward = s.mean_quality - 0.5 * s.mean_latency_ratio;
    s.activations = 3;
    s.warm_starts = i % 3 == 0 ? 1 : 0;
    s.energy_j = 20.0 + x;
    s.mean_power_w = 1.5 + u;
    s.max_die_temp_c = 50.0 + 20.0 * u;
    s.battery_drain_pct_per_hour = 8.0 + 4.0 * u;
    s.throttle_events = i % 5 == 0 ? 2 : 0;
    s.min_freq_scale = 1.0 - 0.01 * x;
    if (i % 2 == 0) {
      s.market_session = true;
      s.market_denied = i % 6 == 0;
      s.market_resolution = 0.5 + 0.4 * u;
    }
    if (i % 3 == 0) {
      s.offload_session = true;
      s.offload_completed = 10;
      s.offload_remote = i % 10;
      s.mean_edge_share = 0.1 + 0.8 * u;
    }
    if (i % 4 == 1) {
      s.sched_traced = true;
      s.sched_jobs = 100 + i;
      s.sched_worst_p99_slowdown = 1.0 + 3.0 * u;
      s.sched_fairness_floor = 0.5 + 0.5 * u;
      s.sched_starved_jobs = i % 8 == 1 ? 2 : 0;
    }
  }
  return out;
}

/// Per-metric samples of `sessions`, each gated like the accumulator and
/// kept in feed order.
struct MixedSamples {
  std::vector<double> quality, eps, reward, watts, temps, drains;
  std::vector<double> resolution, edge_share, p99_slowdown;
};

MixedSamples samples_of(const std::vector<fleet::SessionResult>& sessions) {
  MixedSamples out;
  for (const fleet::SessionResult& s : sessions) {
    out.quality.push_back(s.mean_quality);
    out.eps.push_back(s.mean_latency_ratio);
    out.reward.push_back(s.mean_reward);
    out.watts.push_back(s.mean_power_w);
    out.temps.push_back(s.max_die_temp_c);
    out.drains.push_back(s.battery_drain_pct_per_hour);
    if (s.market_session) out.resolution.push_back(s.market_resolution);
    if (s.offload_session) out.edge_share.push_back(s.mean_edge_share);
    if (s.sched_traced) out.p99_slowdown.push_back(s.sched_worst_p99_slowdown);
  }
  return out;
}

void expect_same_summary(const Summary& a, const Summary& b,
                         const char* what) {
  EXPECT_EQ(a.count, b.count) << what;
  EXPECT_EQ(a.min, b.min) << what;
  EXPECT_EQ(a.mean, b.mean) << what;
  EXPECT_EQ(a.p50, b.p50) << what;
  EXPECT_EQ(a.p90, b.p90) << what;
  EXPECT_EQ(a.p95, b.p95) << what;
  EXPECT_EQ(a.p99, b.p99) << what;
  EXPECT_EQ(a.max, b.max) << what;
}

// Exact mode summarizes each metric with summarize() over exactly the
// sessions that metric is gated on, in feed order — bit for bit.
TEST(FleetAccumulator, ExactModeSummarizesEachGatedMetricInFeedOrder) {
  const std::vector<fleet::SessionResult> sessions = mixed_sessions(40);
  fleet::FleetAccumulator acc(fleet::FleetAccumulator::Mode::Exact);
  for (const fleet::SessionResult& s : sessions) acc.add(s);
  const fleet::FleetMetrics m = acc.finalize(4.0);
  const MixedSamples x = samples_of(sessions);

  EXPECT_FALSE(m.streamed);
  EXPECT_EQ(m.sessions, 40u);
  expect_same_summary(m.quality, summarize(x.quality), "quality");
  expect_same_summary(m.latency_ratio, summarize(x.eps), "eps");
  expect_same_summary(m.reward, summarize(x.reward), "reward");
  ASSERT_TRUE(m.power.enabled);
  expect_same_summary(m.power.mean_power_w, summarize(x.watts), "watts");
  expect_same_summary(m.power.max_die_temp_c, summarize(x.temps), "temps");
  expect_same_summary(m.power.drain_pct_per_hour, summarize(x.drains),
                      "drains");
  ASSERT_TRUE(m.market.enabled);
  expect_same_summary(m.market.resolution, summarize(x.resolution),
                      "resolution");
  ASSERT_TRUE(m.offload.enabled);
  expect_same_summary(m.offload.edge_share, summarize(x.edge_share),
                      "edge share");
  ASSERT_TRUE(m.sched.enabled);
  expect_same_summary(m.sched.p99_slowdown, summarize(x.p99_slowdown), "p99");

  // Rates divide by the gated population, not the fleet size.
  EXPECT_EQ(m.market.denied_sessions, 7u);  // ids 0, 6, ..., 36
  EXPECT_DOUBLE_EQ(m.market.admission_rate, 1.0 - 7.0 / 20.0);
  EXPECT_DOUBLE_EQ(m.sched.starved_session_fraction, 5.0 / 10.0);
  EXPECT_DOUBLE_EQ(m.power.throttled_session_fraction, 8.0 / 40.0);
  EXPECT_EQ(m.offload.completed_inferences, 140u);
  EXPECT_DOUBLE_EQ(m.sessions_per_sec, 10.0);
}

// Streaming mode feeds the same gated samples, in the same order, to one
// sketch per metric; every counter and rate matches the exact mode.
TEST(FleetAccumulator, StreamingModeSketchesTheSameGatedSamples) {
  const std::vector<fleet::SessionResult> sessions = mixed_sessions(40);
  fleet::FleetAccumulator exact_acc(fleet::FleetAccumulator::Mode::Exact);
  fleet::FleetAccumulator stream_acc(fleet::FleetAccumulator::Mode::Streaming);
  for (const fleet::SessionResult& s : sessions) {
    exact_acc.add(s);
    stream_acc.add(s);
  }
  const fleet::FleetMetrics e = exact_acc.finalize(4.0);
  const fleet::FleetMetrics m = stream_acc.finalize(4.0);
  const MixedSamples x = samples_of(sessions);
  auto sketch = [](const std::vector<double>& values) {
    StreamingSummary s;
    for (double v : values) s.add(v);
    return s.summary();
  };

  EXPECT_TRUE(m.streamed);
  expect_same_summary(m.quality, sketch(x.quality), "quality");
  expect_same_summary(m.latency_ratio, sketch(x.eps), "eps");
  expect_same_summary(m.reward, sketch(x.reward), "reward");
  expect_same_summary(m.power.mean_power_w, sketch(x.watts), "watts");
  expect_same_summary(m.power.max_die_temp_c, sketch(x.temps), "temps");
  expect_same_summary(m.power.drain_pct_per_hour, sketch(x.drains),
                      "drains");
  expect_same_summary(m.market.resolution, sketch(x.resolution),
                      "resolution");
  expect_same_summary(m.offload.edge_share, sketch(x.edge_share),
                      "edge share");
  expect_same_summary(m.sched.p99_slowdown, sketch(x.p99_slowdown), "p99");

  // A gated sketch never sees the neutral values of ungated sessions
  // (resolution 1.0, edge share 0.0): its extremes match the exact mode.
  EXPECT_EQ(m.market.resolution.max, e.market.resolution.max);
  EXPECT_EQ(m.offload.edge_share.min, e.offload.edge_share.min);
  EXPECT_LT(m.market.resolution.max, 1.0);
  EXPECT_GT(m.offload.edge_share.min, 0.0);

  EXPECT_EQ(m.sessions, e.sessions);
  EXPECT_EQ(m.total_sim_seconds, e.total_sim_seconds);
  EXPECT_EQ(m.total_activations, e.total_activations);
  EXPECT_EQ(m.warm_start_rate, e.warm_start_rate);
  EXPECT_EQ(m.power.total_energy_j, e.power.total_energy_j);
  EXPECT_EQ(m.power.min_freq_scale, e.power.min_freq_scale);
  EXPECT_EQ(m.power.throttled_session_fraction,
            e.power.throttled_session_fraction);
  EXPECT_EQ(m.market.denied_sessions, e.market.denied_sessions);
  EXPECT_EQ(m.market.admission_rate, e.market.admission_rate);
  EXPECT_EQ(m.offload.offload_rate, e.offload.offload_rate);
  EXPECT_EQ(m.sched.jobs, e.sched.jobs);
  EXPECT_EQ(m.sched.worst_p99_slowdown, e.sched.worst_p99_slowdown);
  EXPECT_EQ(m.sched.fairness_floor, e.sched.fairness_floor);
  EXPECT_EQ(m.sched.starved_session_fraction,
            e.sched.starved_session_fraction);
}

// The client side of the edge health is the accumulator's own id-order
// sums of each SessionResult's edge fields; the server side comes from the
// merged mirror statistics, and without them the health stays disabled.
TEST(FleetAccumulator, EdgeHealthSumsTheSessionsClientFields) {
  std::vector<fleet::SessionResult> sessions(5);
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const double x = static_cast<double>(i);
    fleet::SessionResult& s = sessions[i];
    s.edge_requests = 4 + i;
    s.edge_fallbacks = i % 3;
    s.edge_elapsed_s = 0.1 * (x + 1.0);
    s.edge_units = 1.5 + 0.3 * x;
    s.edge_service_s = 0.07 * (x + 2.0);
  }
  std::uint64_t requests = 0, fallbacks = 0;
  double elapsed_s = 0.0, units = 0.0, service_s = 0.0;
  fleet::FleetAccumulator acc(fleet::FleetAccumulator::Mode::Streaming);
  for (const fleet::SessionResult& s : sessions) {
    acc.add(s);
    requests += s.edge_requests;
    fallbacks += s.edge_fallbacks;
    elapsed_s += s.edge_elapsed_s;
    units += s.edge_units;
    service_s += s.edge_service_s;
  }
  edgesvc::EdgeServerStats server;
  server.arrivals = 40;
  server.rejected = 4;
  server.served = 30;
  server.total_wait_s = 0.6;
  server.total_service_s = 2.4;
  server.depth_hist = {20, 15, 5};

  const fleet::FleetMetrics m = acc.finalize(1.0, {}, &server);
  EXPECT_TRUE(m.edge.enabled);
  EXPECT_EQ(m.edge.requests, requests);
  EXPECT_EQ(m.edge.fallbacks, fallbacks);
  EXPECT_EQ(m.edge.fallback_rate, static_cast<double>(fallbacks) /
                                      static_cast<double>(requests));
  EXPECT_EQ(m.edge.mean_exchange_ms,
            elapsed_s / static_cast<double>(requests) * 1e3);
  EXPECT_EQ(m.edge.units, units);
  EXPECT_EQ(m.edge.own_service_s, service_s);
  EXPECT_EQ(m.edge.rejection_rate, server.rejection_rate());
  EXPECT_EQ(m.edge.queue_depth_p95, server.queue_depth_p95());
  EXPECT_EQ(m.edge.mean_wait_ms, server.mean_wait_s() * 1e3);
  EXPECT_EQ(m.edge.mean_service_ms, server.mean_service_s() * 1e3);
  EXPECT_GT(m.edge.rejection_rate, 0.0);

  const fleet::FleetMetrics off = acc.finalize(1.0);
  EXPECT_FALSE(off.edge.enabled);
  EXPECT_EQ(off.edge.rejection_rate, 0.0);
  EXPECT_EQ(off.edge.mean_wait_ms, 0.0);
}

// An accumulator that saw no session finalizes to a zero roll-up in both
// modes (no empty-sample throw), keeping the pool context it was given.
TEST(FleetAccumulator, EmptyFleetFinalizesToAZeroRollup) {
  fleet::SharedSolutionPoolStats pool;
  pool.stores = 3;
  pool.hits = 2;
  for (auto mode : {fleet::FleetAccumulator::Mode::Exact,
                    fleet::FleetAccumulator::Mode::Streaming}) {
    const fleet::FleetAccumulator acc(mode);
    const fleet::FleetMetrics m = acc.finalize(1.0, pool);
    EXPECT_EQ(m.sessions, 0u);
    EXPECT_EQ(m.streamed, mode == fleet::FleetAccumulator::Mode::Streaming);
    expect_same_summary(m.reward, Summary{}, "reward");
    EXPECT_EQ(m.total_sim_seconds, 0.0);
    EXPECT_EQ(m.sessions_per_sec, 0.0);
    EXPECT_FALSE(m.power.enabled);
    EXPECT_FALSE(m.market.enabled);
    EXPECT_FALSE(m.offload.enabled);
    EXPECT_FALSE(m.sched.enabled);
    EXPECT_FALSE(m.edge.enabled);
    EXPECT_EQ(m.pool.stores, 3u);
    EXPECT_EQ(m.pool.hits, 2u);
  }
}

// retain_results=false must agree with the exact path: counters and
// min/mean/max bitwise (both are exact sums in the same order), sketched
// percentiles within the P² tolerance — and it must not keep per-session
// results around.
TEST(FleetSimulator, StreamingAgreesWithExactAggregation) {
  fleet::FleetSpec exact_spec = fast_fleet(48, 2);
  fleet::FleetSpec stream_spec = exact_spec;
  stream_spec.retain_results = false;
  const fleet::FleetResult exact = fleet::FleetSimulator(exact_spec).run();
  const fleet::FleetResult stream = fleet::FleetSimulator(stream_spec).run();

  EXPECT_EQ(exact.sessions.size(), 48u);
  EXPECT_TRUE(stream.sessions.empty());
  EXPECT_FALSE(exact.metrics.streamed);
  EXPECT_TRUE(stream.metrics.streamed);

  const fleet::FleetMetrics& a = exact.metrics;
  const fleet::FleetMetrics& b = stream.metrics;
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.total_activations, b.total_activations);
  EXPECT_EQ(a.total_warm_starts, b.total_warm_starts);
  EXPECT_EQ(a.total_sim_seconds, b.total_sim_seconds);
  for (auto field : {&fleet::FleetMetrics::quality,
                     &fleet::FleetMetrics::latency_ratio,
                     &fleet::FleetMetrics::reward}) {
    const Summary& ea = a.*field;
    const Summary& eb = b.*field;
    EXPECT_EQ(ea.min, eb.min);
    // Exact path sums naively, streaming uses Welford: same order, same
    // value up to rounding.
    EXPECT_NEAR(ea.mean, eb.mean, 1e-12);
    EXPECT_EQ(ea.max, eb.max);
    // Sketched percentiles land within the metric's observed range and
    // near the exact values (generous: 48 samples is small for P²).
    const double span = ea.max - ea.min + 1e-12;
    EXPECT_NEAR(ea.p50, eb.p50, 0.25 * span);
    EXPECT_NEAR(ea.p90, eb.p90, 0.25 * span);
    EXPECT_NEAR(ea.p99, eb.p99, 0.25 * span);
    EXPECT_GE(eb.p50, ea.min);
    EXPECT_LE(eb.p99, ea.max);
  }
}

// The streaming path inherits the fleet determinism guarantee: sessions
// are rolled up in session-id order no matter which worker finished
// first, so a pool-disabled streaming fleet's metrics are bit-identical
// on 1 thread and on several threads (wall-clock fields excluded).
TEST(FleetSimulator, StreamingMetricsAreThreadCountInvariant) {
  auto stream_fleet = [](std::size_t threads) {
    fleet::FleetSpec spec = fast_fleet(48, threads);
    spec.retain_results = false;
    return spec;
  };
  const fleet::FleetMetrics a =
      fleet::FleetSimulator(stream_fleet(1)).run().metrics;
  const fleet::FleetMetrics b =
      fleet::FleetSimulator(stream_fleet(4)).run().metrics;

  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.total_activations, b.total_activations);
  EXPECT_EQ(a.total_warm_starts, b.total_warm_starts);
  EXPECT_EQ(a.total_sim_seconds, b.total_sim_seconds);
  for (auto field : {&fleet::FleetMetrics::quality,
                     &fleet::FleetMetrics::latency_ratio,
                     &fleet::FleetMetrics::reward}) {
    EXPECT_EQ((a.*field).min, (b.*field).min);
    EXPECT_EQ((a.*field).mean, (b.*field).mean);
    EXPECT_EQ((a.*field).p50, (b.*field).p50);
    EXPECT_EQ((a.*field).p90, (b.*field).p90);
    EXPECT_EQ((a.*field).p99, (b.*field).p99);
    EXPECT_EQ((a.*field).max, (b.*field).max);
  }
}

// progress_every fires on the main thread at exact completion multiples,
// in order, with a monotone wall clock.
TEST(FleetSimulator, ProgressCallbackFiresAtConfiguredInterval) {
  fleet::FleetSpec spec = fast_fleet(32, 2);
  spec.retain_results = false;
  spec.progress_every = 8;
  std::vector<fleet::FleetProgress> ticks;
  spec.on_progress = [&ticks](const fleet::FleetProgress& p) {
    ticks.push_back(p);
  };
  fleet::FleetSimulator(spec).run();

  ASSERT_EQ(ticks.size(), 4u);
  double last_wall = -1.0;
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    EXPECT_EQ(ticks[i].completed, 8 * (i + 1));
    EXPECT_EQ(ticks[i].sessions, 32u);
    EXPECT_GE(ticks[i].wall_seconds, last_wall);
    last_wall = ticks[i].wall_seconds;
  }
}

TEST(FleetMetrics, PercentileHelperInterpolates) {
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile({5.0}, 99.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0}, 100.0), 3.0);
  EXPECT_THROW(percentile({}, 50.0), Error);
  EXPECT_THROW(percentile({1.0}, 101.0), Error);
}

}  // namespace
}  // namespace hbosim
