#include "hbosim/core/monitored_session.hpp"

#include "hbosim/common/error.hpp"
#include <cmath>

#include "hbosim/core/cost.hpp"
#include "hbosim/telemetry/telemetry.hpp"

namespace hbosim::core {

MonitoredSession::MonitoredSession(app::MarApp& app,
                                   MonitoredSessionConfig cfg)
    : app_(app),
      cfg_(cfg),
      controller_(app, cfg.hbo),
      smoothed_(MonitoredSessionConfig::smoothing_alpha) {
  HB_REQUIRE(cfg_.reference_periods >= 1,
             "need at least one reference period");
  HB_REQUIRE(cfg_.warm_start_tolerance >= 0.0,
             "warm-start tolerance must be non-negative");
  app_.start();
}

double MonitoredSession::settle_and_reference() {
  // One settle period flushes the last exploration config / redraw, then
  // the reference is a multi-period average (see Section IV-E: "the new
  // obtained reward is then used as new reference").
  app_.run_period(cfg_.hbo.monitor_period_s);
  double reference = 0.0;
  for (int i = 0; i < cfg_.reference_periods; ++i) {
    const app::PeriodMetrics m = app_.run_period(cfg_.hbo.monitor_period_s);
    reference += m.reward(cfg_.hbo.w) /
                 static_cast<double>(cfg_.reference_periods);
    stats_.add(m, cfg_.hbo.w, app_.sim().now());
  }
  policy_.set_reference(reference);
  smoothed_ = Ewma(MonitoredSessionConfig::smoothing_alpha);
  smoothed_.add(reference);
  return reference;
}

void MonitoredSession::activate() {
  HB_TRACE_SCOPE("hbo", "hbo.activate");
  HB_TELEM_COUNT("hbo.activations", 1.0);
  SessionActivation record;
  record.at = app_.sim().now();
  // Quantized environment at trigger time: the lookup fetch key, the prior
  // hook's argument, and the key a policy layer files this activation's
  // observations under. A pure read of the app's current scene/taskset.
  const EnvironmentKey key = SolutionLookupTable::make_key(app_);
  record.env = key;

  bool rejected_warm_start = false;
  if (cfg_.use_lookup_table) {
    auto hit = lookup_.find(key);
    // A solution remembered in the other decision space (3- vs 4-target
    // simplex) cannot be applied; treat it as a miss so the store fetch
    // and, failing that, a full activation in the current space run.
    if (hit && hit->z.size() != controller_.config_dim()) hit.reset();
    bool shared = false;
    if (!hit && store_.fetch) {
      // Local miss: another session may already have solved this
      // environment (Section VI's "share results across users"). With an
      // edge client attached, reaching the server-side pool costs a real
      // contended exchange that can fail — in which case this activation
      // runs fully local rather than stalling on a dead link.
      bool store_reachable = true;
      if (edge_ != nullptr) {
        const edgesvc::EdgeResponse resp =
            edge_->perform(edgesvc::RequestClass::RemoteBo, 1.0,
                           kRemoteBoPayloadBytes, app_.sim().now());
        if (resp.ok) {
          app_.sim().run_until(app_.sim().now() + resp.elapsed_s);
        } else {
          store_reachable = false;
          ++edge_bo_fallbacks_;
          HB_TELEM_COUNT("hbo.edge_bo_fallback_local", 1.0);
        }
      }
      if (store_reachable) {
        hit = store_.fetch(key);
        if (hit && hit->z.size() != controller_.config_dim()) hit.reset();
        shared = hit.has_value();
      }
    }
    if (hit) {
      // Warm start: apply the remembered configuration and check it still
      // performs; only fall back to a full activation if it degraded.
      controller_.apply_configuration(hit->z);
      app_.run_period(cfg_.hbo.monitor_period_s);  // settle
      const app::PeriodMetrics m = app_.run_period(cfg_.hbo.monitor_period_s);
      if (cost_of(m, CostTerms{cfg_.hbo.w, cfg_.hbo.w_energy,
                               cfg_.hbo.market_price}) <=
          hit->cost + cfg_.warm_start_tolerance) {
        if (shared) lookup_.store(key, *hit);  // adopt the pooled solution
        record.warm_start = true;
        record.from_shared_store = shared;
        record.reference_reward = settle_and_reference();
        if (telemetry::enabled()) {
          HB_TELEM_COUNT("hbo.warm_start_hits", 1.0);
          if (shared) HB_TELEM_COUNT("hbo.warm_start_shared", 1.0);
          telemetry::sim_span("hbo", "hbo.warm_start", record.at,
                              app_.sim().now());
        }
        activations_.push_back(std::move(record));
        return;
      }
      rejected_warm_start = true;
      HB_TELEM_COUNT("hbo.warm_start_rejected", 1.0);
    }
  }

  if (policy_hooks_.prior) {
    // Full activation ahead: ask the policy layer for a learned prior
    // fitted to this environment. A null return runs the activation flat.
    std::shared_ptr<const bo::SurrogatePrior> prior =
        policy_hooks_.prior(key);
    record.prior_injected = prior != nullptr;
    if (record.prior_injected) HB_TELEM_COUNT("policy.prior_injected", 1.0);
    controller_.set_surrogate_prior(std::move(prior));
  }
  record.result = controller_.run_activation();
  if (cfg_.use_lookup_table) {
    // Remember the *validated* cost where available: the raw minimum of
    // the noisy exploration samples is optimistically biased, which would
    // make later warm starts look like regressions.
    const double remembered = std::isfinite(record.result.validated_cost)
                                  ? record.result.validated_cost
                                  : record.result.best().cost;
    // Re-key: the environment may have drifted over the activation's
    // control periods, and the solution belongs to where it was measured.
    const EnvironmentKey publish_key = SolutionLookupTable::make_key(app_);
    StoredSolution solution{record.result.best().z, remembered};
    if (rejected_warm_start) {
      // The remembered cost just proved unachievable here; keeping it
      // (store's lower-cost-wins policy) would poison every future warm
      // start of this environment. Overwrite with the measured reality.
      lookup_.replace(publish_key, solution);
    } else {
      lookup_.store(publish_key, solution);
    }
    if (store_.publish) store_.publish(publish_key, solution);
  }
  record.reference_reward = settle_and_reference();
  if (telemetry::enabled())
    telemetry::sim_span("hbo", "hbo.activation", record.at, app_.sim().now());
  activations_.push_back(std::move(record));
}

bool MonitoredSession::tick() {
  const SimTime period_start = app_.sim().now();
  const app::PeriodMetrics m = app_.run_period(cfg_.hbo.monitor_period_s);
  stats_.add(m, cfg_.hbo.w, app_.sim().now());
  smoothed_.add(m.reward(cfg_.hbo.w));
  if (telemetry::enabled()) {
    // Control-period boundary on the session's sim-time track; the span
    // covers exactly one monitor period.
    telemetry::sim_span("hbo", "hbo.period", period_start, app_.sim().now());
    HB_TELEM_COUNT("hbo.periods", 1.0);
  }

  if (app_.scene().empty()) return false;  // arm at first placement
  if (!policy_.should_activate(smoothed_.value())) return false;
  activate();
  return true;
}

void MonitoredSession::run_until(SimTime until) {
  while (app_.sim().now() < until) tick();
}

}  // namespace hbosim::core
