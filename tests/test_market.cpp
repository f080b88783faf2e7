// Tests for hbosim::marketsvc — the fleet-level resource market that
// makes the edge an actor: the policy vocabulary, the three policy solvers
// (max-min closed form, proportional-fair water-filling with the
// symmetric even split, posted-price admission control and tatonnement),
// the decided-background handout, demand learning from measured usage,
// the market-extended HBO cost, FleetSpec market validation, and the
// fleet determinism guarantee (market fleets bit-identical on 1 and N
// worker threads).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "hbosim/app/metrics.hpp"
#include "hbosim/common/error.hpp"
#include "hbosim/core/cost.hpp"
#include "hbosim/edgesvc/broker.hpp"
#include "hbosim/fleet/fleet_simulator.hpp"
#include "hbosim/marketsvc/allocator.hpp"
#include "hbosim/scenario/scenarios.hpp"

namespace hbosim {
namespace {

using namespace hbosim::marketsvc;

// ---------------------------------------------------------------------------
// Vocabulary

TEST(MarketConfig, PolicyNamesRoundTrip) {
  EXPECT_EQ(market_policy_from_name("pf"), MarketPolicy::ProportionalFair);
  EXPECT_EQ(market_policy_from_name("maxmin"), MarketPolicy::MaxMin);
  EXPECT_EQ(market_policy_from_name("price"), MarketPolicy::Pricing);
  EXPECT_STREQ(market_policy_name(MarketPolicy::ProportionalFair), "pf");
  EXPECT_STREQ(market_policy_name(MarketPolicy::MaxMin), "maxmin");
  EXPECT_STREQ(market_policy_name(MarketPolicy::Pricing), "price");
  EXPECT_THROW(market_policy_from_name("auction"), Error);
}

// ---------------------------------------------------------------------------
// JointAllocator: policy solvers

/// Allocator over a 4-core box behind a 120 Mbit/s link; the compute seed
/// is tiny so the link budget is the binding one unless a test overrides
/// the per-tenant request rate.
JointAllocator make_allocator(MarketConfig cfg,
                              double service_s_per_unit = 0.1,
                              double cores = 4.0) {
  return JointAllocator(cfg, cores, 120.0, service_s_per_unit);
}

/// One explicit tenant demand (no reliance on learned estimates).
TenantDemand demand(std::uint64_t tenant, double flow, double rps = 0.1,
                    double weight = 1.0) {
  TenantDemand d;
  d.tenant = tenant;
  d.weight = weight;
  d.flow_activity = flow;
  d.request_rps = rps;
  return d;
}

TEST(JointAllocator, ValidatesConstruction) {
  EXPECT_THROW(JointAllocator({}, 0.0, 120.0, 0.1), Error);
  EXPECT_THROW(JointAllocator({}, 4.0, 0.0, 0.1), Error);
  EXPECT_THROW(JointAllocator({}, 4.0, 120.0, 0.0), Error);
}

TEST(JointAllocator, TickRequiresTenants) {
  JointAllocator alloc = make_allocator({});
  EXPECT_THROW(alloc.tick({}), Error);
}

TEST(JointAllocator, MaxMinLinkBoundLevelIsClosedForm) {
  MarketConfig cfg;
  cfg.policy = MarketPolicy::MaxMin;  // max_link_activity = 2.0
  JointAllocator alloc = make_allocator(cfg);
  // Four tenants wanting a full flow each: sum a_i = 4 against a budget
  // of 2, so the common level is x = 2/4 = 0.5 exactly (compute slack).
  const std::vector<TenantAllocation> out = alloc.tick(
      {demand(0, 1.0), demand(1, 1.0), demand(2, 1.0), demand(3, 1.0)});
  ASSERT_EQ(out.size(), 4u);
  for (const TenantAllocation& t : out) {
    EXPECT_TRUE(t.admitted);
    EXPECT_DOUBLE_EQ(t.resolution, std::sqrt(0.5));
    EXPECT_DOUBLE_EQ(t.price, 0.0);
  }
  // Every mirror contends with the *decided* activity of the other three:
  // a_total = 4 * 1.0 * 0.5 = 2, own share 0.5, background 1.5.
  EXPECT_DOUBLE_EQ(out[0].bg_flows, 1.5);
  EXPECT_DOUBLE_EQ(out[0].bandwidth_frac, 1.0 / 2.5);
  EXPECT_DOUBLE_EQ(alloc.last().link_activity, 2.0);
  EXPECT_EQ(alloc.last().denied, 0u);
  EXPECT_EQ(alloc.ticks(), 1u);
}

TEST(JointAllocator, MaxMinComputeBoundAndFloorClamp) {
  MarketConfig cfg;
  cfg.policy = MarketPolicy::MaxMin;
  // One core at 75% budget; svc = 0.15 mtri * 1 s/mtri, so two tenants at
  // 10 rps demand 3 core-s/s against a budget of 0.75: level = 0.25.
  JointAllocator tight = make_allocator(cfg, /*service_s_per_unit=*/1.0,
                                        /*cores=*/1.0);
  const auto out =
      tight.tick({demand(0, 0.01, 10.0), demand(1, 0.01, 10.0)});
  EXPECT_DOUBLE_EQ(out[0].resolution, 0.5);  // sqrt(0.25)
  EXPECT_DOUBLE_EQ(tight.last().compute_utilization, 0.75);

  // An uncontended epoch runs at full resolution...
  JointAllocator slack = make_allocator(cfg);
  EXPECT_DOUBLE_EQ(slack.tick({demand(0, 0.1), demand(1, 0.1)})[0].resolution,
                   1.0);

  // ...and a hopeless one clamps at the resolution floor instead of
  // starving everyone (the decided overshoot stays visible in the stats).
  JointAllocator swamped = make_allocator(cfg);
  std::vector<TenantDemand> horde;
  for (std::uint64_t i = 0; i < 100; ++i) horde.push_back(demand(i, 1.0));
  EXPECT_NEAR(swamped.tick(horde)[0].resolution, cfg.min_resolution, 1e-12);
  EXPECT_GT(swamped.last().link_activity, cfg.max_link_activity);
}

TEST(JointAllocator, ProportionalFairSplitsSymmetricTenantsEvenly) {
  MarketConfig cfg;  // policy = ProportionalFair
  JointAllocator alloc = make_allocator(cfg);
  // Two identical tenants over-demand the link (2.0 flows each against a
  // budget of 2): PF water-filling must hand each exactly half the budget,
  // x = 0.5 — the closed form the CI bench gate re-checks.
  const auto out = alloc.tick({demand(0, 2.0), demand(1, 2.0)});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].resolution, out[1].resolution);  // exact symmetry
  EXPECT_NEAR(out[0].resolution * out[0].resolution, 0.5, 1e-9);
  EXPECT_NEAR(alloc.last().link_activity, cfg.max_link_activity, 1e-9);
  EXPECT_NEAR(out[0].bg_flows, 1.0, 1e-9);
  EXPECT_NEAR(out[0].bg_rps, 0.1, 1e-12);
}

TEST(JointAllocator, ProportionalFairFavorsTheHeavierWeight) {
  JointAllocator alloc = make_allocator({});
  const auto out = alloc.tick(
      {demand(0, 2.0, 0.1, /*weight=*/3.0), demand(1, 2.0, 0.1, 1.0)});
  EXPECT_GT(out[0].resolution, out[1].resolution);
  EXPECT_GE(out[1].resolution, alloc.config().min_resolution - 1e-12);
  // The decided load still respects the budget.
  EXPECT_LE(alloc.last().link_activity,
            alloc.config().max_link_activity + 1e-9);
}

TEST(JointAllocator, ProportionalFairKeepsUncontendedTenantsAtFull) {
  JointAllocator alloc = make_allocator({});
  const auto out = alloc.tick({demand(0, 0.02), demand(1, 0.02)});
  EXPECT_DOUBLE_EQ(out[0].resolution, 1.0);
  EXPECT_DOUBLE_EQ(out[1].resolution, 1.0);
}

TEST(JointAllocator, PricingDeniesTheUnaffordableTenant) {
  MarketConfig cfg;
  cfg.policy = MarketPolicy::Pricing;
  JointAllocator alloc = make_allocator(cfg);
  // A budget multiplier of 1/200 at the initial price affords what the
  // full budget would at 200x the price: not even the floor.
  const auto out = alloc.tick({demand(0, 1.0, 0.1, /*weight=*/0.005)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].admitted);
  EXPECT_DOUBLE_EQ(out[0].bandwidth_frac, cfg.denied_bandwidth_frac);
  EXPECT_DOUBLE_EQ(out[0].bg_flows, 0.0);
  EXPECT_DOUBLE_EQ(out[0].bg_rps, 0.0);
  EXPECT_DOUBLE_EQ(out[0].price, cfg.initial_price);
  EXPECT_EQ(alloc.last().denied, 1u);
  // Nothing was admitted, so the system runs slack and tatonnement decays
  // the price by the maximum step.
  EXPECT_DOUBLE_EQ(alloc.price(),
                   cfg.initial_price * (1.0 - cfg.max_price_step));
}

TEST(JointAllocator, PricingRaisesThePriceUnderOverload) {
  MarketConfig cfg;
  cfg.policy = MarketPolicy::Pricing;
  JointAllocator alloc = make_allocator(cfg);
  // Budgets large enough that both tenants buy r = 1 at the initial price.
  const auto out = alloc.tick({demand(0, 4.0, 0.1, /*weight=*/50.0),
                               demand(1, 4.0, 0.1, /*weight=*/50.0)});
  EXPECT_TRUE(out[0].admitted);
  EXPECT_DOUBLE_EQ(out[0].resolution, 1.0);
  // Decided activity 8 against a budget of 2: the price climbs by the
  // clamped maximum step.
  EXPECT_DOUBLE_EQ(alloc.price(),
                   cfg.initial_price * (1.0 + cfg.max_price_step));
}

TEST(JointAllocator, PricingReadmitsWhenThePriceDecays) {
  MarketConfig cfg;
  cfg.policy = MarketPolicy::Pricing;
  JointAllocator alloc = make_allocator(cfg);
  const TenantDemand poor = demand(0, 1.0, 0.1, /*weight=*/0.01);
  ASSERT_FALSE(alloc.tick({poor})[0].admitted);
  // Every denied tick runs slack, so the price halves until the tenant
  // can afford the floor again.
  bool readmitted = false;
  for (int i = 0; i < 40 && !readmitted; ++i) {
    readmitted = alloc.tick({poor})[0].admitted;
  }
  EXPECT_TRUE(readmitted);
}

TEST(JointAllocator, PricingPriceNeverFallsBelowItsFloor) {
  MarketConfig cfg;
  cfg.policy = MarketPolicy::Pricing;
  JointAllocator alloc = make_allocator(cfg);
  // A tenant that never affords the floor keeps the system slack, so the
  // price halves every tick until min_price holds it.
  const TenantDemand broke = demand(0, 1.0, 0.1, /*weight=*/1e-9);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(alloc.tick({broke})[0].admitted) << i;
    EXPECT_GE(alloc.price(), cfg.min_price) << i;
  }
  EXPECT_EQ(alloc.price(), cfg.min_price);
}

// ---------------------------------------------------------------------------
// JointAllocator: demand learning

TEST(JointAllocator, FreshTenantsUseTheInitialDemandEstimates) {
  MarketConfig cfg;
  cfg.policy = MarketPolicy::MaxMin;
  JointAllocator alloc = make_allocator(cfg);
  // 200 tenants nobody has measured, at the initial 0.02 flows each: 4
  // flows against the link budget of 2, so the common level is x = 0.5.
  std::vector<TenantDemand> fresh(200);
  for (std::size_t i = 0; i < fresh.size(); ++i) fresh[i].tenant = i;
  const std::vector<TenantAllocation> out = alloc.tick(fresh);
  EXPECT_NEAR(out[0].resolution * out[0].resolution, 0.5, 1e-12);
  EXPECT_NEAR(alloc.last().link_activity, cfg.max_link_activity, 1e-12);
  // Each mirror carries the others' initial request rate, at the request
  // size the decided resolution leaves them.
  EXPECT_NEAR(out[0].bg_rps, 199 * cfg.initial_request_rps, 1e-9);
  EXPECT_NEAR(out[0].bg_mean_units, cfg.initial_mean_units * 0.5, 1e-12);
}

TEST(JointAllocator, ObserveMovesTheEstimateByTheSmoothingWeight) {
  MarketConfig cfg;
  cfg.policy = MarketPolicy::MaxMin;
  JointAllocator alloc = make_allocator(cfg);
  // One epoch measured at 8.02 flows, with the initial request rate, size
  // and cost. The EWMA moves the 0.02-flow estimate a quarter of the way:
  // 0.02 + 0.25 * 8.0 = 2.02 flows, so a lone tenant's level is 2 / 2.02.
  MeasuredUsage usage;
  usage.payload_bytes =
      static_cast<std::uint64_t>(8.02 * 120e6 / 8.0 * 10.0 + 0.5);
  usage.requests = 4;
  usage.units = 4 * cfg.initial_mean_units;
  usage.service_s = 4 * cfg.initial_mean_units * 0.1;
  usage.duration_s = 10.0;
  alloc.observe(0, usage, 1.0);
  TenantDemand learned;
  learned.tenant = 0;
  const double r = alloc.tick({learned})[0].resolution;
  EXPECT_NEAR(r * r, 2.0 / (cfg.initial_flow_activity +
                            cfg.demand_smoothing *
                                (8.02 - cfg.initial_flow_activity)),
              1e-9);
  EXPECT_NEAR(r * r, 2.0 / 2.02, 1e-9);
}

TEST(JointAllocator, ObserveFoldsMeasuredUsageIntoTheNextTick) {
  MarketConfig cfg;
  cfg.policy = MarketPolicy::MaxMin;
  JointAllocator alloc = make_allocator(cfg);
  TenantDemand learned;  // all fields negative: use the learned estimate
  learned.tenant = 0;
  // Before anything was measured the initial estimates are light, so the
  // tenant runs at full resolution.
  EXPECT_DOUBLE_EQ(alloc.tick({learned})[0].resolution, 1.0);
  // The tenant then saturates the downlink: 40 concurrent flows' worth of
  // bytes over 10 simulated seconds at 120 Mbit/s.
  MeasuredUsage usage;
  usage.payload_bytes = static_cast<std::uint64_t>(40.0 * 120e6 / 8.0 * 10.0);
  usage.requests = 100;
  usage.units = 15.0;
  usage.service_s = 1.0;
  usage.duration_s = 10.0;
  alloc.observe(0, usage, 1.0);
  // The EWMA-updated flow estimate now dwarfs the link budget.
  EXPECT_LT(alloc.tick({learned})[0].resolution, 1.0);
}

TEST(JointAllocator, ObserveRescalesMeasurementsToReferenceResolution) {
  MarketConfig cfg;
  cfg.policy = MarketPolicy::MaxMin;
  JointAllocator at_full = make_allocator(cfg);
  JointAllocator at_half = make_allocator(cfg);
  MeasuredUsage usage;
  usage.payload_bytes = static_cast<std::uint64_t>(40.0 * 120e6 / 8.0 * 10.0);
  usage.requests = 100;
  usage.units = 15.0;
  usage.service_s = 1.0;
  usage.duration_s = 10.0;
  at_full.observe(0, usage, 1.0);
  // The same bytes moved while running at r = 0.5 imply 4x the demand at
  // the r = 1 reference, so the next tick trims harder.
  at_half.observe(0, usage, 0.5);
  TenantDemand learned;
  learned.tenant = 0;
  EXPECT_LT(at_half.tick({learned})[0].resolution,
            at_full.tick({learned})[0].resolution);
}

TEST(JointAllocator, ObserveIgnoresEmptyEpochsAndValidatesResolution) {
  JointAllocator alloc = make_allocator({});
  MeasuredUsage nothing;  // no requests: keep the current estimate
  alloc.observe(0, nothing, 1.0);
  TenantDemand learned;
  learned.tenant = 0;
  EXPECT_DOUBLE_EQ(alloc.tick({learned})[0].resolution, 1.0);
  MeasuredUsage usage;
  usage.requests = 1;
  usage.duration_s = 1.0;
  EXPECT_THROW(alloc.observe(0, usage, 0.0), Error);
  EXPECT_THROW(alloc.observe(0, usage, 1.5), Error);
}

TEST(JointAllocator, TickAndObserveAreDeterministic) {
  auto run = [] {
    MarketConfig cfg;
    cfg.policy = MarketPolicy::Pricing;
    JointAllocator alloc = make_allocator(cfg);
    std::vector<double> out;
    for (int epoch = 0; epoch < 5; ++epoch) {
      const auto allocs =
          alloc.tick({demand(0, 1.0), demand(1, 0.5, 2.0), demand(2, 0.1)});
      for (const TenantAllocation& t : allocs) {
        out.push_back(t.resolution);
        out.push_back(t.bg_flows);
        out.push_back(t.bg_rps);
        out.push_back(t.price);
        MeasuredUsage usage;
        usage.payload_bytes = 1'000'000 * (t.tenant + 1);
        usage.requests = 10;
        usage.units = 1.5;
        usage.service_s = 0.2;
        usage.duration_s = 8.0;
        alloc.observe(t.tenant, usage, t.resolution);
      }
      out.push_back(alloc.price());
    }
    return out;
  };
  const std::vector<double> a = run();
  const std::vector<double> b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
}

// ---------------------------------------------------------------------------
// Market-extended HBO cost

TEST(MarketCost, PriceChargesTheTriangleBudget) {
  app::PeriodMetrics m;
  m.average_quality = 0.8;
  m.latency_ratio = 0.3;
  m.triangle_ratio = 0.6;
  m.avg_power_w = 2.0;
  // A zero price must reproduce the energy-extended cost bit for bit (the
  // market-off parity contract).
  const double energy = core::cost(m.average_quality, m.latency_ratio, 0.4) +
                        0.05 * m.avg_power_w;
  EXPECT_EQ(core::cost_of(m, core::CostTerms{0.4, 0.05, 0.0}), energy);
  EXPECT_EQ(core::cost_of(m, core::CostTerms{0.4, 0.0, 0.0}),
            core::cost(m.average_quality, m.latency_ratio, 0.4));
  // A posted price charges the configuration's triangle appetite.
  EXPECT_DOUBLE_EQ(core::cost_of(m, core::CostTerms{0.4, 0.05, 2.5}),
                   energy + 2.5 * 0.6);
}

// ---------------------------------------------------------------------------
// FleetSpec validation (fail loudly on nonsense market combinations)

fleet::FleetSpec market_fleet(std::size_t sessions, std::size_t threads,
                              MarketPolicy policy) {
  fleet::FleetSpec spec;
  spec.sessions = sessions;
  spec.threads = threads;
  spec.duration_s = 12.0;
  spec.session.hbo.n_initial = 2;
  spec.session.hbo.n_iterations = 2;
  spec.session.hbo.selection_candidates = 1;
  spec.session.hbo.control_period_s = 1.0;
  spec.session.hbo.monitor_period_s = 1.0;
  spec.session.reference_periods = 2;
  spec.scenarios = {{scenario::ObjectSet::SC2, scenario::TaskSet::CF2, 1.0}};
  spec.use_edge_service = true;
  spec.edge = edgesvc::edge_service_preset("wifi");
  spec.market.enabled = true;
  spec.market.epoch_sessions = 4;
  spec.market.allocator.policy = policy;
  return spec;
}

TEST(FleetMarket, ValidationRejectsNonsenseCombinations) {
  // The allocator needs an edge box to allocate.
  fleet::FleetSpec spec = market_fleet(8, 1, MarketPolicy::ProportionalFair);
  spec.use_edge_service = false;
  EXPECT_THROW(spec.validate(), Error);

  // The shared pool composes with the market: it freezes at its own
  // barriers in the same loop, so the fleet stays thread-invariant.
  spec = market_fleet(8, 1, MarketPolicy::ProportionalFair);
  spec.use_shared_pool = true;
  EXPECT_NO_THROW(spec.validate());

  // Bandit sessions' cost omits the posted price, so the Pricing signal
  // would never reach them. Learned priors compose with the market.
  spec = market_fleet(8, 1, MarketPolicy::ProportionalFair);
  spec.policy.mode = fleet::PolicyMode::Bandit;
  EXPECT_THROW(spec.validate(), Error);
  spec.policy.mode = fleet::PolicyMode::Prior;
  EXPECT_NO_THROW(spec.validate());

  spec = market_fleet(8, 1, MarketPolicy::ProportionalFair);
  spec.market.epoch_sessions = 0;
  EXPECT_THROW(spec.validate(), Error);

  EXPECT_NO_THROW(
      market_fleet(8, 1, MarketPolicy::ProportionalFair).validate());
}

// ---------------------------------------------------------------------------
// Fleet integration: the determinism guarantee and the market roll-up

TEST(FleetMarket, PerSessionResultsAreThreadCountInvariant) {
  const std::size_t kSessions = 8;
  fleet::FleetResult serial =
      fleet::FleetSimulator(
          market_fleet(kSessions, 1, MarketPolicy::ProportionalFair))
          .run();
  fleet::FleetResult threaded =
      fleet::FleetSimulator(
          market_fleet(kSessions, 4, MarketPolicy::ProportionalFair))
          .run();

  ASSERT_EQ(serial.sessions.size(), kSessions);
  ASSERT_EQ(threaded.sessions.size(), kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    const fleet::SessionResult& a = serial.sessions[i];
    const fleet::SessionResult& b = threaded.sessions[i];
    EXPECT_EQ(a.mean_quality, b.mean_quality) << "session " << i;
    EXPECT_EQ(a.mean_latency_ratio, b.mean_latency_ratio) << "session " << i;
    EXPECT_EQ(a.mean_reward, b.mean_reward) << "session " << i;
    EXPECT_EQ(a.sim_seconds, b.sim_seconds) << "session " << i;
    EXPECT_EQ(a.edge_requests, b.edge_requests) << "session " << i;
    EXPECT_EQ(a.edge_retries, b.edge_retries) << "session " << i;
    EXPECT_EQ(a.edge_fallbacks, b.edge_fallbacks) << "session " << i;
    EXPECT_EQ(a.edge_payload_bytes, b.edge_payload_bytes) << "session " << i;
    EXPECT_EQ(a.edge_units, b.edge_units) << "session " << i;
    EXPECT_EQ(a.edge_service_s, b.edge_service_s) << "session " << i;
    EXPECT_EQ(a.edge_elapsed_s, b.edge_elapsed_s) << "session " << i;
    // The allocator's decisions themselves must replay bit-identically:
    // the tick inputs are fed at the barrier in session-id order.
    EXPECT_EQ(a.market_session, b.market_session) << "session " << i;
    EXPECT_EQ(a.market_denied, b.market_denied) << "session " << i;
    EXPECT_EQ(a.market_resolution, b.market_resolution) << "session " << i;
    EXPECT_EQ(a.market_bandwidth_frac, b.market_bandwidth_frac)
        << "session " << i;
    EXPECT_EQ(a.market_price, b.market_price) << "session " << i;
  }
  // The roll-up (including the edge sums, folded in session-id order)
  // agrees too.
  EXPECT_EQ(serial.metrics.market.resolution.mean,
            threaded.metrics.market.resolution.mean);
  EXPECT_EQ(serial.metrics.market.link_activity,
            threaded.metrics.market.link_activity);
  EXPECT_EQ(serial.metrics.edge.mean_wait_ms, threaded.metrics.edge.mean_wait_ms);
  EXPECT_EQ(serial.metrics.edge.requests, threaded.metrics.edge.requests);
}

TEST(FleetMarket, RollupReportsMarketHealth) {
  fleet::FleetResult result =
      fleet::FleetSimulator(market_fleet(8, 2, MarketPolicy::ProportionalFair))
          .run();
  const fleet::FleetMetrics::MarketHealth& mh = result.metrics.market;
  EXPECT_TRUE(mh.enabled);
  EXPECT_EQ(mh.policy, "pf");
  EXPECT_EQ(mh.ticks, 2u);  // 8 sessions / epoch of 4
  EXPECT_EQ(mh.denied_sessions, 0u);  // PF never denies
  EXPECT_DOUBLE_EQ(mh.admission_rate, 1.0);
  EXPECT_DOUBLE_EQ(mh.final_price, 0.0);
  EXPECT_GT(mh.resolution.mean, 0.0);
  for (const fleet::SessionResult& s : result.sessions) {
    EXPECT_TRUE(s.market_session);
    EXPECT_FALSE(s.market_denied);
    EXPECT_GE(s.market_resolution,
              result.metrics.market.resolution.min - 1e-12);
    EXPECT_LE(s.market_resolution, 1.0);
    EXPECT_DOUBLE_EQ(s.market_price, 0.0);
  }
}

TEST(FleetMarket, PricingOverloadDeniesIntoBestEffort) {
  // Tenants whose budget affords nothing at the posted price are bumped
  // into the scavenger class, survive on on-device fallbacks, and the
  // roll-up says so.
  fleet::FleetSpec spec = market_fleet(6, 2, MarketPolicy::Pricing);
  spec.market.epoch_sessions = 3;
  fleet::FleetSimulator fleet(spec);
  (void)fleet.run();  // builds the broker whose market clients we need

  // The same allocator the broker runs, ticked on budgets too small for
  // even the resolution floor.
  const edgesvc::EdgeServiceSpec& edge = spec.edge;
  JointAllocator alloc(
      spec.market.allocator, static_cast<double>(edge.server.cores),
      edge.link.mbit_per_s,
      edgesvc::EdgeServerSpec::decimation_ms_per_mtri * 1e-3);
  std::vector<TenantDemand> poor(spec.sessions);
  for (std::size_t i = 0; i < poor.size(); ++i) {
    poor[i].tenant = i;
    poor[i].weight = 1e-4;
  }
  const std::vector<TenantAllocation> denied = alloc.tick(poor);

  std::vector<fleet::SessionResult> results;
  for (std::size_t i = 0; i < spec.sessions; ++i) {
    ASSERT_FALSE(denied[i].admitted);
    results.push_back(
        fleet.run_market_session(fleet.session_spec(i), denied[i]));
  }
  fleet::FleetAccumulator acc(fleet::FleetAccumulator::Mode::Exact);
  for (const fleet::SessionResult& s : results) acc.add(s);
  const fleet::FleetMetrics m = acc.finalize(0.0);
  EXPECT_EQ(m.market.denied_sessions, 6u);
  EXPECT_DOUBLE_EQ(m.market.admission_rate, 0.0);
  for (const fleet::SessionResult& s : results) {
    EXPECT_TRUE(s.market_denied);
    EXPECT_GT(s.market_price, 0.0);
    // The session still completed — degraded, not wedged.
    EXPECT_GE(s.sim_seconds, spec.duration_s);
    EXPECT_GT(s.activations, 0u);
    EXPECT_GT(s.edge_requests, 0u);
  }
}

// The market and the learned priors share one loop: with epochs of 3 and
// 4 sessions their barriers interleave, and the allocator ticks and the
// prior snapshots still replay bit-identically on 1 and 4 threads.
TEST(FleetMarket, WithPriorsIsThreadCountInvariant) {
  auto combined = [](std::size_t threads) {
    fleet::FleetSpec spec = market_fleet(16, threads, MarketPolicy::Pricing);
    spec.devices = {{"Pixel 7", 1.0}};  // concentrate traffic on few keys
    spec.market.epoch_sessions = 3;
    spec.policy.mode = fleet::PolicyMode::Prior;
    spec.policy.epoch_sessions = 4;
    return spec;
  };
  const fleet::FleetResult serial = fleet::FleetSimulator(combined(1)).run();
  const fleet::FleetResult threaded = fleet::FleetSimulator(combined(4)).run();

  ASSERT_EQ(serial.sessions.size(), 16u);
  ASSERT_EQ(threaded.sessions.size(), 16u);
  for (std::size_t i = 0; i < serial.sessions.size(); ++i) {
    const fleet::SessionResult& a = serial.sessions[i];
    const fleet::SessionResult& b = threaded.sessions[i];
    EXPECT_EQ(a.mean_reward, b.mean_reward) << "session " << i;
    EXPECT_EQ(a.market_price, b.market_price) << "session " << i;
    EXPECT_EQ(a.market_resolution, b.market_resolution) << "session " << i;
    EXPECT_EQ(a.prior_activations, b.prior_activations) << "session " << i;
  }
  EXPECT_EQ(serial.metrics.policy.epochs, 4u);  // 16 sessions / epoch of 4
  EXPECT_EQ(serial.metrics.market.ticks, 6u);   // ceil(16 / 3)
  EXPECT_GT(serial.metrics.policy.prior_activations, 0u);
  EXPECT_EQ(serial.metrics.policy.prior_activations,
            threaded.metrics.policy.prior_activations);

  // A prior-mode fleet whose one learner barrier precedes all traffic
  // snapshots an empty store, so it never fits a prior and leaves the
  // market-only fleet untouched: the policy layer's barrier, store feed
  // and hooks move no bit.
  fleet::FleetSpec inert = combined(2);
  inert.policy.epoch_sessions = inert.sessions;
  fleet::FleetSpec market_only = combined(2);
  market_only.policy.mode = fleet::PolicyMode::Off;
  const fleet::FleetResult a = fleet::FleetSimulator(inert).run();
  const fleet::FleetResult b = fleet::FleetSimulator(market_only).run();
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    EXPECT_EQ(a.sessions[i].mean_reward, b.sessions[i].mean_reward);
    EXPECT_EQ(a.sessions[i].mean_quality, b.sessions[i].mean_quality);
    EXPECT_EQ(a.sessions[i].activations, b.sessions[i].activations);
    EXPECT_EQ(a.sessions[i].market_price, b.sessions[i].market_price);
    EXPECT_EQ(a.sessions[i].market_resolution,
              b.sessions[i].market_resolution);
    EXPECT_EQ(a.sessions[i].edge_payload_bytes,
              b.sessions[i].edge_payload_bytes);
    EXPECT_EQ(a.sessions[i].prior_activations, 0u);
  }
  EXPECT_EQ(a.metrics.policy.priors_fitted, 0u);
  EXPECT_EQ(a.metrics.market.final_price, b.metrics.market.final_price);
}

// A market epoch longer than the in-flight window: on 1 thread (window 64)
// the allocator observes sessions before the epoch ends, on 9 threads
// (window 72) it observes none. Both must run every tenant on the one
// allocation ticked at the barrier.
TEST(FleetMarket, EpochLongerThanTheWindowRunsOnItsBarrierAllocation) {
  auto long_epoch = [](std::size_t threads) {
    fleet::FleetSpec spec = market_fleet(72, threads, MarketPolicy::Pricing);
    spec.market.epoch_sessions = 72;
    return spec;
  };
  const fleet::FleetResult windowed =
      fleet::FleetSimulator(long_epoch(1)).run();
  const fleet::FleetResult whole = fleet::FleetSimulator(long_epoch(9)).run();

  ASSERT_EQ(windowed.sessions.size(), 72u);
  ASSERT_EQ(whole.sessions.size(), 72u);
  for (std::size_t i = 0; i < 72; ++i) {
    const fleet::SessionResult& a = windowed.sessions[i];
    const fleet::SessionResult& b = whole.sessions[i];
    EXPECT_TRUE(a.market_session) << "session " << i;
    EXPECT_EQ(a.market_denied, b.market_denied) << "session " << i;
    EXPECT_EQ(a.market_resolution, b.market_resolution) << "session " << i;
    EXPECT_EQ(a.market_bandwidth_frac, b.market_bandwidth_frac)
        << "session " << i;
    EXPECT_EQ(a.market_price, b.market_price) << "session " << i;
    EXPECT_EQ(a.mean_reward, b.mean_reward) << "session " << i;
    EXPECT_EQ(a.edge_payload_bytes, b.edge_payload_bytes) << "session " << i;
    // One tick, one posted price for the whole epoch.
    EXPECT_EQ(a.market_price, windowed.sessions[0].market_price);
  }
  EXPECT_EQ(windowed.metrics.market.ticks, 1u);
  EXPECT_EQ(whole.metrics.market.ticks, 1u);
  EXPECT_EQ(windowed.metrics.market.final_price,
            whole.metrics.market.final_price);
}

// run() starts from a fresh broker, allocator and prior store every time,
// so a second run on the same simulator replays the first bit for bit
// instead of continuing its market and learner state.
TEST(FleetMarket, RerunStartsFromAFreshMarketAndStore) {
  fleet::FleetSpec spec = market_fleet(8, 2, MarketPolicy::Pricing);
  spec.devices = {{"Pixel 7", 1.0}};
  spec.market.epoch_sessions = 3;
  spec.policy.mode = fleet::PolicyMode::Prior;
  spec.policy.epoch_sessions = 4;
  fleet::FleetSimulator sim(spec);
  const fleet::FleetResult first = sim.run();
  const fleet::FleetResult second = sim.run();

  ASSERT_EQ(first.sessions.size(), second.sessions.size());
  for (std::size_t i = 0; i < first.sessions.size(); ++i) {
    const fleet::SessionResult& a = first.sessions[i];
    const fleet::SessionResult& b = second.sessions[i];
    EXPECT_EQ(a.mean_reward, b.mean_reward) << "session " << i;
    EXPECT_EQ(a.market_price, b.market_price) << "session " << i;
    EXPECT_EQ(a.market_resolution, b.market_resolution) << "session " << i;
    EXPECT_EQ(a.prior_activations, b.prior_activations) << "session " << i;
    EXPECT_EQ(a.edge_requests, b.edge_requests) << "session " << i;
  }
  EXPECT_EQ(first.metrics.market.ticks, 3u);  // ceil(8 / 3)
  EXPECT_EQ(second.metrics.market.ticks, 3u);
  EXPECT_EQ(first.metrics.policy.epochs, 2u);  // 8 / 4
  EXPECT_EQ(second.metrics.policy.epochs, 2u);
  EXPECT_EQ(first.metrics.policy.store_observations,
            second.metrics.policy.store_observations);
  EXPECT_EQ(first.metrics.market.final_price,
            second.metrics.market.final_price);
  EXPECT_EQ(first.metrics.edge.requests, second.metrics.edge.requests);
}

TEST(FleetMarket, DisabledMarketLeavesResultsNeutral) {
  fleet::FleetSpec spec = market_fleet(2, 1, MarketPolicy::ProportionalFair);
  spec.market.enabled = false;
  fleet::FleetResult result = fleet::FleetSimulator(spec).run();
  EXPECT_FALSE(result.metrics.market.enabled);
  EXPECT_EQ(result.metrics.market.denied_sessions, 0u);
  for (const fleet::SessionResult& s : result.sessions) {
    EXPECT_FALSE(s.market_session);
    EXPECT_DOUBLE_EQ(s.market_resolution, 1.0);
    EXPECT_DOUBLE_EQ(s.market_price, 0.0);
  }
}

}  // namespace
}  // namespace hbosim
