// Tests for hbosim::edgesvc: stochastic link validation/determinism,
// Gilbert-Elliott loss bursts, bandwidth sharing, queue-policy ordering,
// bounded-queue rejection, the retry/backoff schedule, timeout-triggered
// fallback, per-tenant fairness under asymmetric load, telemetry
// counters, and the fleet determinism guarantee with a shared edge box.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "hbosim/common/error.hpp"
#include "hbosim/core/monitored_session.hpp"
#include "hbosim/edge/decimation_service.hpp"
#include "hbosim/edgesvc/broker.hpp"
#include "hbosim/fleet/fleet_simulator.hpp"
#include "hbosim/render/mesh.hpp"
#include "hbosim/scenario/scenarios.hpp"
#include "hbosim/soc/devices_builtin.hpp"
#include "hbosim/telemetry/telemetry.hpp"

namespace hbosim {
namespace {

using namespace hbosim::edgesvc;

// ---------------------------------------------------------------------------
// LinkModel

TEST(LinkModel, ValidatesConfig) {
  LinkModelConfig cfg;
  cfg.mbit_per_s = 1e-6;  // the historical inf/NaN event-time bug
  EXPECT_THROW(LinkModel{cfg}, Error);

  cfg = LinkModelConfig{};
  cfg.rtt_ms = -1.0;
  EXPECT_THROW(LinkModel{cfg}, Error);

  // Near-zero throughput and non-finite links are refused when the link
  // is built, before any exchange is priced.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<double, double>> bad_links = {
      {20.0, 1e-9}, {20.0, 0.0}, {nan, 120.0}, {20.0, inf}, {-5.0, 120.0}};
  for (const auto& [rtt_ms, mbit_per_s] : bad_links) {
    cfg = LinkModelConfig{};
    cfg.rtt_ms = rtt_ms;
    cfg.mbit_per_s = mbit_per_s;
    EXPECT_THROW(LinkModel{cfg}, Error)
        << rtt_ms << " ms, " << mbit_per_s << " Mbit/s";
  }

  cfg = LinkModelConfig{};
  cfg.rtt_jitter_frac = 1.0;
  EXPECT_THROW(LinkModel{cfg}, Error);

  cfg = LinkModelConfig{};
  cfg.loss_bad = 1.5;
  EXPECT_THROW(LinkModel{cfg}, Error);

  EXPECT_NO_THROW(LinkModel{LinkModelConfig{}});
}

TEST(LinkModel, DegenerateConfigMatchesClosedFormExactly) {
  LinkModel link;  // defaults: no jitter, no loss, no sharing
  Rng rng(7);
  const std::uint64_t payload = 36'000;
  const double expected = 20.0 * 1e-3 + 36'000 * 8.0 / (120.0 * 1e6);
  EXPECT_EQ(link.nominal_seconds(payload), expected);
  const LinkSample s = link.sample(payload, rng);
  EXPECT_FALSE(s.lost);
  EXPECT_EQ(s.seconds, expected);
}

TEST(LinkModel, SampleSequenceIsSeedDeterministic) {
  LinkModelConfig cfg;
  cfg.rtt_jitter_frac = 0.3;
  cfg.p_good_to_bad = 0.1;
  cfg.p_bad_to_good = 0.5;
  cfg.loss_bad = 0.4;
  LinkModel a(cfg), b(cfg);
  Rng ra(99), rb(99);
  for (int i = 0; i < 200; ++i) {
    const LinkSample sa = a.sample(1000, ra);
    const LinkSample sb = b.sample(1000, rb);
    EXPECT_EQ(sa.lost, sb.lost);
    EXPECT_EQ(sa.seconds, sb.seconds);
  }
}

TEST(LinkModel, GilbertElliottLossesClusterIntoBursts) {
  // Force the chain straight into (and never out of) the bad state with
  // certain loss: every exchange is lost.
  LinkModelConfig cfg;
  cfg.p_good_to_bad = 1.0;
  cfg.p_bad_to_good = 0.0;
  cfg.loss_bad = 1.0;
  LinkModel link(cfg);
  Rng rng(1);
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(link.sample(100, rng).lost);
  EXPECT_TRUE(link.in_bad_state());
}

TEST(LinkModel, BandwidthSharingDividesThroughput) {
  LinkModelConfig cfg;
  cfg.background_flows = 3.0;
  LinkModel link(cfg);
  EXPECT_DOUBLE_EQ(link.effective_mbit_per_s(), 120.0 / 4.0);
  const double bits = 1e6 * 8.0;
  EXPECT_DOUBLE_EQ(link.nominal_seconds(1'000'000),
                   0.020 + bits / (30.0 * 1e6));
}

// ---------------------------------------------------------------------------
// EdgeServerSim

EdgeServerSpec one_core_spec() {
  EdgeServerSpec spec;
  spec.cores = 1;
  return spec;
}

/// Decimation units one core serves in `seconds`.
double units_for(double seconds) {
  return seconds / (EdgeServerSpec::decimation_ms_per_mtri * 1e-3);
}

EdgeRequest decim_request(double units, double arrival,
                          double deadline = 1e18) {
  EdgeRequest req;
  req.cls = RequestClass::Decimation;
  req.units = units;
  req.arrival_s = arrival;
  req.deadline_s = deadline;
  return req;
}

TEST(EdgeServerSpec, ServiceSecondsFollowThePerClassModels) {
  const EdgeServerSpec spec;
  // 35 ms per decimated Mtri, a flat 2 ms suggest, 4 ms per transferred
  // Mtri and 0.25 ms per device-millisecond of offloaded inference.
  EXPECT_DOUBLE_EQ(spec.service_seconds(RequestClass::Decimation, 2.0), 0.070);
  EXPECT_DOUBLE_EQ(spec.service_seconds(RequestClass::RemoteBo, 7.0), 0.002);
  EXPECT_DOUBLE_EQ(spec.service_seconds(RequestClass::MeshTransfer, 2.0),
                   0.008);
  EXPECT_DOUBLE_EQ(spec.service_seconds(RequestClass::AiInference, 40.0),
                   0.010);
  EXPECT_THROW(spec.service_seconds(RequestClass::Decimation, -1.0), Error);
  EXPECT_THROW(spec.service_seconds(RequestClass::Decimation,
                                    std::numeric_limits<double>::infinity()),
               Error);
}

TEST(EdgeServerSim, BackgroundServiceMatchesTheClassMix) {
  // One background tenant at 1 req/s for 5000 s on an idle box: its
  // requests are 70 % decimation, 20 % suggests and 10 % mesh transfers
  // of exponential size (mean 0.15 Mtri), so the mean service time is
  // 0.15 * (0.7 * 35 + 0.1 * 4) ms + 0.2 * 2 ms = 4.135 ms.
  BackgroundLoadConfig bg;
  bg.per_tenant_rps = 1.0;
  EdgeServerSim sim({}, bg, /*background_tenants=*/1, 2024);
  ASSERT_EQ(sim.submit(decim_request(0.0, 5000.0)).status,
            AdmissionStatus::Ok);
  const EdgeServerStats& st = sim.stats();
  ASSERT_GT(st.bg_arrivals, 4500u);
  EXPECT_EQ(st.served, st.bg_arrivals + 1);  // light load: nothing shed
  const double mean_ms =
      st.total_service_s / static_cast<double>(st.bg_arrivals) * 1e3;
  EXPECT_NEAR(mean_ms, 4.135, 0.25);
}

TEST(EdgeServerSim, FifoRequestsStackInSubmitOrder) {
  EdgeServerSim sim(one_core_spec(), {}, /*background_tenants=*/0, 42);
  const double s = one_core_spec().service_seconds(RequestClass::Decimation,
                                                   1.0);
  const AdmissionResult a = sim.submit(decim_request(1.0, 0.0));
  const AdmissionResult b = sim.submit(decim_request(1.0, 0.0));
  const AdmissionResult c = sim.submit(decim_request(1.0, 0.0));
  ASSERT_EQ(a.status, AdmissionStatus::Ok);
  ASSERT_EQ(b.status, AdmissionStatus::Ok);
  ASSERT_EQ(c.status, AdmissionStatus::Ok);
  EXPECT_DOUBLE_EQ(a.wait_s, 0.0);
  EXPECT_DOUBLE_EQ(a.completion_s, s);
  EXPECT_DOUBLE_EQ(b.wait_s, s);
  EXPECT_DOUBLE_EQ(b.completion_s, 2.0 * s);
  // Resolving b ran the virtual clock to s; c's t=0 arrival is clamped
  // to "now" (started work is never rewound), so it waits s, not 2s.
  EXPECT_DOUBLE_EQ(c.wait_s, s);
  EXPECT_DOUBLE_EQ(c.completion_s, 3.0 * s);
  EXPECT_EQ(sim.stats().served, 3u);
  EXPECT_EQ(sim.stats().bg_arrivals, 0u);
}

TEST(EdgeServerSim, DeadlinePolicyShedsExpiredRequests) {
  EdgeServerSpec spec = one_core_spec();
  spec.policy = QueuePolicy::DeadlinePriority;
  EdgeServerSim sim(spec, {}, 0, 42);
  // A 10 s job holds the single core; the next request's deadline passes
  // long before the core frees, so the policy drops it unserved.
  ASSERT_EQ(sim.submit(decim_request(units_for(10.0), 0.0)).status,
            AdmissionStatus::Ok);
  const AdmissionResult shed = sim.submit(decim_request(0.1, 0.0, 0.5));
  EXPECT_EQ(shed.status, AdmissionStatus::Shed);
  EXPECT_EQ(sim.stats().shed, 1u);
  EXPECT_EQ(sim.stats().served, 1u);
}

TEST(EdgeServerSim, FifoNeverSheds) {
  EdgeServerSim sim(one_core_spec(), {}, 0, 42);
  ASSERT_EQ(sim.submit(decim_request(units_for(10.0), 0.0)).status,
            AdmissionStatus::Ok);
  // Same expired request as above: FIFO burns the core on it anyway (the
  // server cannot see client-side timeouts).
  const AdmissionResult late = sim.submit(decim_request(0.1, 0.0, 0.5));
  EXPECT_EQ(late.status, AdmissionStatus::Ok);
  EXPECT_GE(late.wait_s, 10.0 - 1e-12);
  EXPECT_EQ(sim.stats().shed, 0u);
}

/// Heavy synthetic co-tenant load: a few tenants hammering the box hard
/// enough to keep its single core overloaded and the queue backed up.
BackgroundLoadConfig heavy_background() {
  BackgroundLoadConfig bg;
  bg.per_tenant_rps = 50.0;
  bg.mean_units = 0.3;
  return bg;
}

/// Near-critical load (~0.94 on one core): the queue is usually backed up
/// but far from capacity, so admission never interferes with the
/// policy-ordering comparisons below.
BackgroundLoadConfig moderate_background() {
  BackgroundLoadConfig bg;
  bg.per_tenant_rps = 30.0;
  bg.mean_units = 0.3;
  return bg;
}

TEST(EdgeServerSim, BoundedQueueRejectsWhenFull) {
  EdgeServerSpec spec;
  spec.cores = 1;
  spec.queue_capacity = 2;
  EdgeServerSim sim(spec, heavy_background(), /*background_tenants=*/4, 7);
  // By t=1 the overloaded mirror's queue is pinned at capacity.
  const AdmissionResult res = sim.submit(decim_request(0.1, 1.0));
  EXPECT_EQ(res.status, AdmissionStatus::Rejected);
  EXPECT_EQ(res.depth_at_arrival, spec.queue_capacity);
  EXPECT_GT(sim.stats().rejected, 0u);
  EXPECT_GT(sim.stats().rejection_rate(), 0.0);
  EXPECT_GT(sim.stats().queue_depth_p95(), 0.0);
}

TEST(EdgeServerSim, DeadlinePriorityJumpsTheQueue) {
  // Same seed => identical background arrival/service streams; only the
  // pick order differs. A tight-deadline session request overtakes queued
  // background work (deadline arrival+0.05 vs the background's +0.25), so
  // its wait can never exceed the FIFO wait.
  EdgeServerSpec fifo_spec;
  fifo_spec.cores = 1;
  fifo_spec.queue_capacity = 256;
  EdgeServerSpec dl_spec = fifo_spec;
  dl_spec.policy = QueuePolicy::DeadlinePriority;

  EdgeServerSim fifo(fifo_spec, moderate_background(), 4, 123);
  EdgeServerSim deadline(dl_spec, moderate_background(), 4, 123);
  const EdgeRequest req = decim_request(0.01, 2.0, 2.05);
  const AdmissionResult rf = fifo.submit(req);
  const AdmissionResult rd = deadline.submit(req);
  ASSERT_EQ(rf.status, AdmissionStatus::Ok);
  ASSERT_EQ(rd.status, AdmissionStatus::Ok);
  EXPECT_GT(rf.depth_at_arrival, 0u);  // there was a backlog to jump
  EXPECT_LT(rd.wait_s, rf.wait_s);
}

TEST(EdgeServerSim, FairSharePrioritizesTheLightTenant) {
  // Asymmetric load: the background tenants have been served continuously
  // for 2 simulated seconds; the session tenant arrives with a served
  // count of zero, so the fair-share policy picks it ahead of the queued
  // heavy tenants. Under FIFO it waits behind the full backlog.
  EdgeServerSpec fifo_spec;
  fifo_spec.cores = 1;
  fifo_spec.queue_capacity = 256;
  EdgeServerSpec fair_spec = fifo_spec;
  fair_spec.policy = QueuePolicy::TenantFairShare;

  EdgeServerSim fifo(fifo_spec, moderate_background(), 4, 321);
  EdgeServerSim fair(fair_spec, moderate_background(), 4, 321);
  const EdgeRequest req = decim_request(0.01, 2.0);
  const AdmissionResult rf = fifo.submit(req);
  const AdmissionResult ra = fair.submit(req);
  ASSERT_EQ(rf.status, AdmissionStatus::Ok);
  ASSERT_EQ(ra.status, AdmissionStatus::Ok);
  EXPECT_GT(rf.depth_at_arrival, 0u);
  EXPECT_LT(ra.wait_s, rf.wait_s);
}

TEST(EdgeServerSim, QueuePolicyNamesRoundTrip) {
  EXPECT_EQ(queue_policy_from_name("fifo"), QueuePolicy::Fifo);
  EXPECT_EQ(queue_policy_from_name("deadline"), QueuePolicy::DeadlinePriority);
  EXPECT_EQ(queue_policy_from_name("fair"), QueuePolicy::TenantFairShare);
  EXPECT_THROW(queue_policy_from_name("lifo"), Error);
}

// ---------------------------------------------------------------------------
// EdgeClient

TEST(EdgeClient, UncontendedSuccessMatchesClosedFormDelay) {
  EdgeServerSpec server;  // defaults: 35 ms/mtri, 4 cores
  LinkModelConfig link;   // defaults: no jitter/loss/sharing
  EdgeClient client({}, server, {}, /*background_tenants=*/0,
                    link, /*tenant=*/0, /*seed=*/5);
  const std::uint64_t payload = 36'000;
  const EdgeResponse resp =
      client.perform(RequestClass::Decimation, 1.0, payload, 0.0);
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.attempts, 1);
  const double expected =
      server.service_seconds(RequestClass::Decimation, 1.0) +
      LinkModel(link).nominal_seconds(payload);
  EXPECT_DOUBLE_EQ(resp.elapsed_s, expected);
  EXPECT_EQ(client.stats().successes, 1u);
  EXPECT_EQ(client.stats().retries, 0u);
}

TEST(EdgeClient, BackoffScheduleIsCappedExponential) {
  // 50 ms doubling per retry, capped at 1 s.
  EdgeClient client({}, {}, {}, 0, {}, 0, 1);
  EXPECT_DOUBLE_EQ(client.nominal_backoff_s(1), 0.05);
  EXPECT_DOUBLE_EQ(client.nominal_backoff_s(2), 0.10);
  EXPECT_DOUBLE_EQ(client.nominal_backoff_s(3), 0.20);
  EXPECT_DOUBLE_EQ(client.nominal_backoff_s(5), 0.80);
  EXPECT_DOUBLE_EQ(client.nominal_backoff_s(6), 1.00);  // capped
  EXPECT_DOUBLE_EQ(client.nominal_backoff_s(9), 1.00);
}

TEST(EdgeClient, TimeoutTriggersRetriesThenFallback) {
  // Service takes 35 ms but the client only waits 10 ms: every attempt is
  // answered too late, and after max_attempts (3) the caller must degrade.
  EdgeClientConfig cfg;
  cfg.timeout_s = 0.010;
  EdgeClient client(cfg, {}, {}, 0, {}, 0, 2);
  const EdgeResponse resp =
      client.perform(RequestClass::Decimation, 1.0, 1000, 0.0);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.last_status, EdgeStatus::TimedOut);
  EXPECT_EQ(resp.attempts, 3);
  EXPECT_EQ(client.stats().timeout_attempts, 3u);
  EXPECT_EQ(client.stats().retries, 2u);
  EXPECT_EQ(client.stats().fallbacks, 1u);
  // 3 timeouts + the two backoffs, each within its jitter band around the
  // nominal 50 and 100 ms.
  const double f = EdgeClientConfig::backoff_jitter_frac;
  EXPECT_GE(resp.elapsed_s, 3 * 0.010 + (1.0 - f) * (0.05 + 0.10) - 1e-12);
  EXPECT_LE(resp.elapsed_s, 3 * 0.010 + (1.0 + f) * (0.05 + 0.10) + 1e-12);
  EXPECT_DOUBLE_EQ(client.stats().fallback_rate(), 1.0);
}

TEST(EdgeClient, LossBurstSurfacesAsLinkLost) {
  LinkModelConfig link;
  link.p_good_to_bad = 1.0;
  link.p_bad_to_good = 0.0;
  link.loss_bad = 1.0;
  EdgeClient client({}, {}, {}, 0, link, 0, 3);
  const EdgeResponse resp = client.perform(RequestClass::RemoteBo, 1.0, 88,
                                           0.0, 0.0, /*max_attempts=*/2);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.last_status, EdgeStatus::LinkLost);
  EXPECT_EQ(client.stats().lost_attempts, 2u);
  EXPECT_EQ(client.stats().fallbacks, 1u);
}

TEST(EdgeClient, RejectionsAreRetriedAgainstAFullQueue) {
  EdgeServerSpec server;
  server.cores = 1;
  server.queue_capacity = 2;
  EdgeClient client({}, server, heavy_background(), 4, {}, 0, 11);
  const EdgeResponse resp = client.perform(RequestClass::Decimation, 0.1,
                                           1000, 1.0, 0.0, /*max_attempts=*/2);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.last_status, EdgeStatus::Rejected);
  EXPECT_EQ(client.stats().rejected_attempts, 2u);
  EXPECT_EQ(client.stats().fallbacks, 1u);
}

TEST(EdgeClient, PerformSequenceIsSeedDeterministic) {
  const EdgeServiceSpec spec = edge_service_preset("congested");
  auto run = [&spec] {
    EdgeClient client(spec.client, spec.server, spec.background, 8, spec.link,
                      0, 77);
    std::vector<std::pair<bool, double>> out;
    for (int i = 0; i < 40; ++i) {
      const EdgeResponse r = client.perform(RequestClass::Decimation, 0.2,
                                            20'000, 0.5 * (i + 1));
      out.emplace_back(r.ok, r.elapsed_s);
    }
    return out;
  };
  EXPECT_EQ(run(), run());
}

TEST(EdgeClient, ResolutionScalesMeshWorkByArea) {
  // r = 0.5 quarters both the server-side work and the downlink payload
  // of mesh-bearing requests.
  EdgeServerSpec server;  // defaults: 35 ms/mtri, no jitter/loss/sharing
  EdgeClient client({}, server, {}, 0, {}, 0, 5);
  client.set_resolution(0.5);
  const EdgeResponse resp =
      client.perform(RequestClass::Decimation, 1.0, 40'000, 0.0);
  ASSERT_TRUE(resp.ok);
  const double expected =
      server.service_seconds(RequestClass::Decimation, 0.25) +
      LinkModel(LinkModelConfig{}).nominal_seconds(10'000);
  EXPECT_DOUBLE_EQ(resp.elapsed_s, expected);
  EXPECT_DOUBLE_EQ(client.stats().units, 0.25);
  EXPECT_EQ(client.stats().payload_bytes, 10'000u);

  // The warm-start exchange is not a mesh: RemoteBo is never scaled.
  EdgeClient bo_client({}, server, {}, 0, {}, 0, 6);
  bo_client.set_resolution(0.5);
  const EdgeResponse bo =
      bo_client.perform(RequestClass::RemoteBo, 1.0, 88, 0.0);
  ASSERT_TRUE(bo.ok);
  EXPECT_DOUBLE_EQ(bo.elapsed_s,
                   server.service_seconds(RequestClass::RemoteBo, 1.0) +
                       LinkModel(LinkModelConfig{}).nominal_seconds(88));

  EXPECT_THROW(client.set_resolution(0.0), Error);
  EXPECT_THROW(client.set_resolution(1.5), Error);
}

TEST(EdgeClient, FullResolutionIsBitwiseNeutral) {
  // Scaling by r = 1 must leave the request path untouched — same draws,
  // same elapsed times as a client whose knob was never set (the
  // market-off parity contract at the client level).
  const EdgeServiceSpec spec = edge_service_preset("congested");
  EdgeClient plain(spec.client, spec.server, spec.background, 8, spec.link,
                   0, 77);
  EdgeClient knobbed(spec.client, spec.server, spec.background, 8, spec.link,
                     0, 77);
  knobbed.set_resolution(1.0);
  for (int i = 0; i < 40; ++i) {
    const EdgeResponse a = plain.perform(RequestClass::Decimation, 0.2,
                                         20'000, 0.5 * (i + 1));
    const EdgeResponse b = knobbed.perform(RequestClass::Decimation, 0.2,
                                           20'000, 0.5 * (i + 1));
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.elapsed_s, b.elapsed_s);
  }
  EXPECT_EQ(plain.stats().payload_bytes, knobbed.stats().payload_bytes);
  EXPECT_EQ(plain.stats().units, knobbed.stats().units);
}

TEST(EdgeClient, ValidatesConfig) {
  EdgeClientConfig cfg;
  cfg.timeout_s = 0.0;
  EXPECT_THROW((EdgeClient{cfg, {}, {}, 0, {}, 0, 1}), Error);
  cfg.timeout_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((EdgeClient{cfg, {}, {}, 0, {}, 0, 1}), Error);
}

// ---------------------------------------------------------------------------
// Broker and presets

TEST(EdgeBroker, PresetsValidateAndUnknownThrows) {
  for (const char* name : {"lan", "wifi", "congested"})
    EXPECT_NO_THROW(edge_service_preset(name).validate()) << name;
  EXPECT_THROW(edge_service_preset("dialup"), Error);
}

TEST(EdgeBroker, ClientsAreDeterministicInSeed) {
  EdgeServiceSpec spec = edge_service_preset("congested");
  EdgeBroker broker(spec, 8);
  auto a = broker.make_client(3, 999);
  auto b = broker.make_client(3, 999);
  for (int i = 0; i < 20; ++i) {
    const EdgeResponse ra =
        a->perform(RequestClass::MeshTransfer, 0.5, 50'000, 0.3 * (i + 1));
    const EdgeResponse rb =
        b->perform(RequestClass::MeshTransfer, 0.5, 50'000, 0.3 * (i + 1));
    EXPECT_EQ(ra.ok, rb.ok);
    EXPECT_EQ(ra.elapsed_s, rb.elapsed_s);
  }
}

TEST(EdgeBroker, MarketClientsCarryTheDecidedBackground) {
  EdgeServiceSpec spec;  // default link: clean closed forms below
  spec.background.per_tenant_rps = 0.4;
  EdgeBroker broker(spec, 8);
  EXPECT_FALSE(broker.market_enabled());
  EXPECT_THROW(broker.market(), Error);
  marketsvc::TenantAllocation alloc;
  EXPECT_THROW(broker.make_market_client(alloc, 1), Error);

  broker.enable_market({});
  EXPECT_TRUE(broker.market_enabled());
  EXPECT_THROW(broker.enable_market({}), Error);

  // An admitted tenant's mirror carries the *decided* background instead
  // of the static per-tenant guesses.
  alloc.tenant = 2;
  alloc.resolution = 0.5;
  alloc.bg_flows = 1.5;
  alloc.bg_rps = 3.0;
  alloc.bg_mean_units = 0.2;
  auto admitted = broker.make_market_client(alloc, 42);
  EXPECT_EQ(admitted->tenant(), 2u);
  EXPECT_DOUBLE_EQ(admitted->resolution(), 0.5);
  EXPECT_DOUBLE_EQ(admitted->link().config().background_flows, 1.5);
  EXPECT_DOUBLE_EQ(admitted->link().config().mbit_per_s, spec.link.mbit_per_s);

  // A denied tenant gets the scavenger-class link: a sliver of the
  // downlink, no decided background.
  alloc.admitted = false;
  auto denied = broker.make_market_client(alloc, 42);
  EXPECT_DOUBLE_EQ(denied->link().config().background_flows, 0.0);
  EXPECT_DOUBLE_EQ(
      denied->link().config().mbit_per_s,
      std::max(kMinLinkMbitPerS,
               spec.link.mbit_per_s *
                   broker.market().config().denied_bandwidth_frac));
}

// ---------------------------------------------------------------------------
// Telemetry integration

TEST(EdgeTelemetry, CountersTrackRequestsRetriesAndFallbacks) {
  telemetry::TelemetrySession session;
  {
    // One clean success...
    EdgeClient ok_client({}, {}, {}, 0, {}, 0, 5);
    (void)ok_client.perform(RequestClass::Decimation, 0.1, 1000, 0.0);
    // ...and one all-timeouts fallback after max_attempts (3) attempts.
    EdgeClientConfig cfg;
    cfg.timeout_s = 0.001;
    EdgeClient bad_client(cfg, {}, {}, 0, {}, 0, 6);
    (void)bad_client.perform(RequestClass::Decimation, 1.0, 1000, 0.0);
  }
  const telemetry::MetricsSnapshot snap = session.metrics().snapshot();
  auto value = [&snap](const char* name) {
    const telemetry::MetricValue* m = snap.find(name);
    return m ? m->value : -1.0;
  };
  EXPECT_DOUBLE_EQ(value("edge.requests"), 2.0);
  EXPECT_DOUBLE_EQ(value("edge.successes"), 1.0);
  EXPECT_DOUBLE_EQ(value("edge.retries"), 2.0);
  EXPECT_DOUBLE_EQ(value("edge.timeout_attempts"), 3.0);
  EXPECT_DOUBLE_EQ(value("edge.fallbacks"), 1.0);
}

// ---------------------------------------------------------------------------
// Decimation fallback (nearest cached LOD)

TEST(DecimationFallback, ServesNearestCachedLodWhenEdgeFails) {
  edge::DecimationService service;
  const render::MeshAsset asset(
      "statue", 1'000'000,
      render::synthesize_degradation_params("statue", 1'000'000));
  // Prime the cache through the legacy path at ratio 0.5.
  const edge::DecimationResult primed = service.request(asset, 0.5);
  ASSERT_FALSE(primed.cache_hit);

  // Attach a client that can never succeed (timeout far below service).
  EdgeClientConfig cfg;
  cfg.timeout_s = 1e-4;
  EdgeClient dead(cfg, {}, {}, 0, {}, 0, 9);
  double now = 0.0;
  service.attach_edge(&dead, [&now] { return now; });

  // A different ratio misses the cache, the edge fails, and the nearest
  // cached LOD (the primed 0.5 version) is served instead.
  const edge::DecimationResult res = service.request(asset, 0.9);
  EXPECT_TRUE(res.fallback);
  EXPECT_FALSE(res.unchanged);
  EXPECT_EQ(res.served_ratio, primed.served_ratio);
  EXPECT_EQ(res.triangles, primed.triangles);
  EXPECT_EQ(res.edge_attempts, EdgeClientConfig::max_attempts);
  EXPECT_GT(res.delay_s, 0.0);  // the user still waited through the retries
  EXPECT_EQ(service.edge_fallbacks(), 1u);

  // An object with nothing cached degrades to "keep what's on screen".
  const render::MeshAsset other(
      "vase", 500'000, render::synthesize_degradation_params("vase", 500'000));
  const edge::DecimationResult keep = service.request(other, 0.7);
  EXPECT_TRUE(keep.fallback);
  EXPECT_TRUE(keep.unchanged);
  EXPECT_EQ(service.edge_fallbacks(), 2u);

  // Detaching restores the always-succeeding legacy path.
  service.attach_edge(nullptr, {});
  const edge::DecimationResult legacy = service.request(other, 0.7);
  EXPECT_FALSE(legacy.fallback);
  EXPECT_GT(legacy.delay_s, 0.0);
}

// ---------------------------------------------------------------------------
// MonitoredSession: remote-BO exchange gating the shared-store fetch

TEST(SessionEdge, StoreFetchFallsBackToLocalBoWhenEdgeIsDown) {
  auto app = scenario::make_app(soc::find_builtin("Pixel 7"),
                                scenario::ObjectSet::SC2,
                                scenario::TaskSet::CF2, 77);
  core::MonitoredSessionConfig cfg;
  cfg.hbo.n_initial = 2;
  cfg.hbo.n_iterations = 2;
  cfg.hbo.selection_candidates = 1;
  cfg.hbo.control_period_s = 1.0;
  cfg.hbo.monitor_period_s = 1.0;
  cfg.reference_periods = 2;
  cfg.use_lookup_table = true;
  core::MonitoredSession session(*app, cfg);

  int fetches = 0;
  core::SolutionStoreHooks hooks;
  hooks.fetch = [&fetches](const core::EnvironmentKey&)
      -> std::optional<core::StoredSolution> {
    ++fetches;
    return std::nullopt;
  };
  session.set_solution_store(std::move(hooks));

  EdgeClientConfig ccfg;
  ccfg.timeout_s = 1e-4;  // RemoteBo takes ~22 ms: every attempt times out
  EdgeClient dead(ccfg, {}, {}, 0, {}, 0, 13);
  session.set_edge(&dead);

  session.run_until(20.0);
  ASSERT_GE(session.activations().size(), 1u);
  // The store was never reachable; every local-miss activation fell back
  // to local BO instead of consulting it.
  EXPECT_EQ(fetches, 0);
  EXPECT_GE(session.edge_bo_fallbacks(), 1u);
  EXPECT_FALSE(session.activations().front().warm_start);
}

// Section VI: reaching the server-side store costs one remote-BO exchange
// whose payload is "in the order of a few Bytes" — the observed (z, cost)
// up and the next configuration down, 48 + 40 bytes.
TEST(SessionEdge, EachStoreFetchIsOneRemoteBoExchangeOfAFewBytes) {
  auto app = scenario::make_app(soc::find_builtin("Pixel 7"),
                                scenario::ObjectSet::SC2,
                                scenario::TaskSet::CF2, 78);
  core::MonitoredSessionConfig cfg;
  cfg.hbo.n_initial = 2;
  cfg.hbo.n_iterations = 2;
  cfg.hbo.selection_candidates = 1;
  cfg.hbo.control_period_s = 1.0;
  cfg.hbo.monitor_period_s = 1.0;
  cfg.reference_periods = 2;
  cfg.use_lookup_table = true;
  core::MonitoredSession session(*app, cfg);

  std::uint64_t fetches = 0;
  core::SolutionStoreHooks hooks;
  hooks.fetch = [&fetches](const core::EnvironmentKey&)
      -> std::optional<core::StoredSolution> {
    ++fetches;
    return std::nullopt;
  };
  session.set_solution_store(std::move(hooks));
  EdgeClient client({}, {}, {}, 0, {}, 0, 21);  // uncontended, loss-free
  session.set_edge(&client);
  session.run_until(20.0);

  ASSERT_GE(fetches, 1u);
  EXPECT_EQ(core::kRemoteBoPayloadBytes, 88u);
  const EdgeClientStats& st = client.stats();
  EXPECT_EQ(st.requests, fetches);
  EXPECT_EQ(st.successes, fetches);
  EXPECT_EQ(st.payload_bytes, 88u * fetches);
  EXPECT_DOUBLE_EQ(st.units, static_cast<double>(fetches));
  // Each exchange costs the server's suggest time plus the link's nominal
  // time for the payload: two orders of magnitude below a control period.
  const double exchange_s = EdgeServerSpec::bo_suggest_ms * 1e-3 +
                            LinkModel().nominal_seconds(88);
  EXPECT_NEAR(st.total_elapsed_s, static_cast<double>(fetches) * exchange_s,
              1e-12);
  EXPECT_LT(exchange_s, 0.025);
  EXPECT_EQ(session.edge_bo_fallbacks(), 0u);
}

// ---------------------------------------------------------------------------
// Fleet integration: shared edge box, bit-identical across thread counts

fleet::FleetSpec edge_fleet(std::size_t sessions, std::size_t threads) {
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
  spec.edge = edge_service_preset("wifi");
  return spec;
}

TEST(FleetEdge, PerSessionResultsAreThreadCountInvariantWithEdge) {
  const std::size_t kSessions = 12;
  fleet::FleetResult serial =
      fleet::FleetSimulator(edge_fleet(kSessions, 1)).run();
  fleet::FleetResult threaded =
      fleet::FleetSimulator(edge_fleet(kSessions, 4)).run();

  ASSERT_EQ(serial.sessions.size(), kSessions);
  ASSERT_EQ(threaded.sessions.size(), kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    const fleet::SessionResult& a = serial.sessions[i];
    const fleet::SessionResult& b = threaded.sessions[i];
    EXPECT_EQ(a.mean_quality, b.mean_quality) << "session " << i;
    EXPECT_EQ(a.mean_latency_ratio, b.mean_latency_ratio) << "session " << i;
    EXPECT_EQ(a.mean_reward, b.mean_reward) << "session " << i;
    EXPECT_EQ(a.sim_seconds, b.sim_seconds) << "session " << i;
    // The stochastic edge interaction itself must replay bit-identically.
    EXPECT_EQ(a.edge_requests, b.edge_requests) << "session " << i;
    EXPECT_EQ(a.edge_retries, b.edge_retries) << "session " << i;
    EXPECT_EQ(a.edge_fallbacks, b.edge_fallbacks) << "session " << i;
    EXPECT_EQ(a.edge_rejected_attempts, b.edge_rejected_attempts)
        << "session " << i;
    EXPECT_EQ(a.edge_timeout_attempts, b.edge_timeout_attempts)
        << "session " << i;
  }

  // The roll-up reflects the edge interaction.
  EXPECT_TRUE(serial.metrics.edge.enabled);
  EXPECT_GT(serial.metrics.edge.requests, 0u);
  EXPECT_EQ(serial.metrics.edge.requests, threaded.metrics.edge.requests);
}

// The fleet folds every session's client and mirror statistics into its
// edge health on the main thread, in session-id order: the health is the
// id-order merge of what each session reports, bitwise, on any thread
// count.
TEST(FleetEdge, HealthIsTheSessionIdOrderMergeOnAnyThreadCount) {
  fleet::FleetSpec spec = edge_fleet(9, 1);
  spec.edge = edge_service_preset("congested");
  fleet::FleetSimulator serial_sim(spec);
  const fleet::FleetResult serial = serial_sim.run();
  spec.threads = 3;
  const fleet::FleetResult threaded = fleet::FleetSimulator(spec).run();

  // Without pool, policy or market a session re-run reproduces the fleet's.
  EdgeFleetStats merged;
  for (std::size_t id = 0; id < spec.sessions; ++id) {
    const fleet::PolicySessionOutput o = serial_sim.run_policy_session(
        serial_sim.session_spec(id), nullptr, nullptr);
    EXPECT_EQ(o.edge_client.requests, serial.sessions[id].edge_requests);
    merged.client.merge(o.edge_client);
    merged.server.merge(o.edge_server);
  }
  EXPECT_GT(merged.server.total_wait_s, 0.0);  // congested: real sums
  EXPECT_GT(merged.server.total_service_s, 0.0);
  for (const fleet::FleetResult* r : {&serial, &threaded}) {
    const fleet::FleetMetrics::EdgeHealth& e = r->metrics.edge;
    EXPECT_TRUE(e.enabled);
    EXPECT_EQ(e.requests, merged.client.requests);
    EXPECT_EQ(e.rejection_rate, merged.server.rejection_rate());
    EXPECT_EQ(e.fallback_rate, merged.client.fallback_rate());
    EXPECT_EQ(e.queue_depth_p95, merged.server.queue_depth_p95());
    EXPECT_EQ(e.mean_wait_ms, merged.server.mean_wait_s() * 1e3);
    EXPECT_EQ(e.mean_service_ms, merged.server.mean_service_s() * 1e3);

    // The client doubles are the session-id-order sums of what each
    // session reports.
    double elapsed_s = 0.0, units = 0.0, service_s = 0.0;
    for (const fleet::SessionResult& s : r->sessions) {
      elapsed_s += s.edge_elapsed_s;
      units += s.edge_units;
      service_s += s.edge_service_s;
    }
    EXPECT_GT(units, 0.0);
    EXPECT_EQ(e.mean_exchange_ms,
              elapsed_s / static_cast<double>(e.requests) * 1e3);
    EXPECT_EQ(e.units, units);
    EXPECT_EQ(e.own_service_s, service_s);
  }
}

/// The finite-valued SessionResult fields a blackout could poison.
std::vector<double> blackout_fields(const fleet::SessionResult& r) {
  return {r.sim_seconds,      r.mean_quality,    r.mean_latency_ratio,
          r.mean_reward,      r.edge_units,      r.edge_service_s,
          r.edge_elapsed_s,   r.offload_rate,    r.mean_edge_share,
          r.radio_energy_j,   r.offload_elapsed_s, r.energy_j,
          r.mean_power_w,     r.max_die_temp_c,  r.battery_soc,
          r.battery_drain_pct_per_hour};
}

// Failure injection: an edge blackout degrades every session of a fleet
// with edge, offload, pool and power, and never aborts it. In the first
// fleet the link loses every exchange in either state, and its loss chain
// falls into an absorbing bad state mid-session: decimation misses, store
// fetches and offloaded inferences all fall back on-device. In the second
// only the bad state loses, so the blackout starts mid-session; these
// static scenes fetch from the store before it starts, and the exchanges
// after it fall back.
TEST(FleetEdge, BlackoutDegradesEverySessionWithoutAborting) {
  auto blackout = [](bool from_start, std::size_t threads) {
    fleet::FleetSpec spec = edge_fleet(6, threads);
    spec.use_shared_pool = true;
    spec.use_power_model = true;
    spec.offload.enabled = true;
    LinkModelConfig& link = spec.edge.link;
    link.p_good_to_bad = 0.02;
    link.p_bad_to_good = 0.0;  // the bad state absorbs
    link.loss_bad = 1.0;
    link.loss_good = from_start ? 1.0 : 0.0;
    return spec;
  };
  for (const bool from_start : {true, false}) {
    const fleet::FleetSpec spec = blackout(from_start, 1);
    const fleet::FleetResult serial = fleet::FleetSimulator(spec).run();
    const fleet::FleetResult threaded =
        fleet::FleetSimulator(blackout(from_start, 3)).run();
    ASSERT_EQ(serial.sessions.size(), spec.sessions);
    ASSERT_EQ(threaded.sessions.size(), spec.sessions);
    std::uint64_t decim = 0, fetch = 0, offload = 0;
    for (std::size_t i = 0; i < spec.sessions; ++i) {
      const fleet::SessionResult& a = serial.sessions[i];
      EXPECT_GE(a.sim_seconds, spec.duration_s) << from_start << " " << i;
      const std::vector<double> fa = blackout_fields(a);
      const std::vector<double> fb = blackout_fields(threaded.sessions[i]);
      for (std::size_t f = 0; f < fa.size(); ++f) {
        EXPECT_TRUE(std::isfinite(fa[f])) << from_start << " " << i << " " << f;
        EXPECT_EQ(fa[f], fb[f]) << from_start << " " << i << " " << f;
      }
      EXPECT_EQ(a.edge_fallbacks, threaded.sessions[i].edge_fallbacks);
      EXPECT_EQ(a.offload_fallbacks, threaded.sessions[i].offload_fallbacks);
      decim += a.edge_decim_fallbacks;
      fetch += a.edge_bo_fallbacks;
      offload += a.offload_fallbacks;
    }
    EXPECT_GT(decim, 0u) << from_start;
    EXPECT_GT(offload, 0u) << from_start;
    const fleet::FleetMetrics::EdgeHealth& e = serial.metrics.edge;
    EXPECT_EQ(e.decim_fallbacks, decim);
    EXPECT_EQ(e.bo_fallbacks, fetch);
    EXPECT_EQ(serial.metrics.offload.fallbacks, offload);
    if (from_start) {
      EXPECT_GE(fetch, spec.sessions);  // every first fetch fell back
      EXPECT_EQ(e.fallback_rate, 1.0);
      EXPECT_EQ(serial.metrics.offload.remote_inferences, 0u);
    } else {
      EXPECT_GT(e.fallback_rate, 0.0);
      EXPECT_LT(e.fallback_rate, 1.0);
    }
  }
}

TEST(FleetEdge, DisabledEdgeLeavesHealthZeroed) {
  fleet::FleetSpec spec = edge_fleet(2, 1);
  spec.use_edge_service = false;
  fleet::FleetResult result = fleet::FleetSimulator(spec).run();
  EXPECT_FALSE(result.metrics.edge.enabled);
  EXPECT_EQ(result.metrics.edge.requests, 0u);
  EXPECT_EQ(result.sessions[0].edge_requests, 0u);
}

}  // namespace
}  // namespace hbosim
