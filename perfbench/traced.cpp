#include "traced.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <type_traits>

#include "benchstats.hpp"
#include "hbosim/bo/optimizer.hpp"
#include "hbosim/common/rng.hpp"
#include "hbosim/core/controller.hpp"
#include "hbosim/core/monitored_session.hpp"
#include "hbosim/des/sched_analyzer.hpp"
#include "hbosim/offload/offload.hpp"
#include "hbosim/power/power_manager.hpp"
#include "hbosim/scenario/scenarios.hpp"
#include "hbosim/soc/devices_builtin.hpp"

namespace perfbench {

namespace {

namespace hb = hbosim;
using Clock = std::chrono::steady_clock;
using hb::fleet::FleetSpec;
using hb::fleet::SessionResult;
using hb::fleet::SessionSpec;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The fleet's session body (FleetSimulator::run_session and its market /
/// policy variants) rebuilt from the modules' public calls, so the
/// benchmark holds the app and can time what runs on it.
struct BuiltSession {
  std::unique_ptr<hb::app::MarApp> app;
  std::unique_ptr<hb::des::SchedTrace> trace;
  std::unique_ptr<hb::edgesvc::EdgeClient> client;
  std::unique_ptr<hb::offload::OffloadExecutor> offloader;
  hb::core::MonitoredSessionConfig cfg;
};

BuiltSession build_session(const FleetSpec& fs, const SessionSpec& ss,
                           const hb::edgesvc::EdgeBroker* broker,
                           const hb::marketsvc::TenantAllocation* alloc) {
  BuiltSession b;
  const hb::soc::DeviceProfile device = hb::soc::find_builtin(ss.device);
  hb::app::MarAppConfig base;
  if (fs.use_power_model) {
    base.enable_power = true;
    base.power = fs.power;
    base.power.seed = ss.seed ^ 0xB0D1'E5C0'FFEE'5EEDull;
  }
  b.app = hb::scenario::make_app(device, ss.objects, ss.tasks, ss.seed, base);
  if (fs.sched.enabled) {
    b.trace = std::make_unique<hb::des::SchedTrace>(fs.sched);
    b.app->sim().set_sched_trace(b.trace.get());
    if (b.trace->config().exact_depth_counters) {
      for (hb::soc::Unit u :
           {hb::soc::Unit::Cpu, hb::soc::Unit::Gpu, hb::soc::Unit::Npu})
        b.app->soc().unit(u).set_trace_decimation(1);
    }
  }
  if (broker != nullptr) {
    b.client = alloc != nullptr ? broker->make_market_client(*alloc, ss.seed)
                                : broker->make_client(ss.id, ss.seed);
    b.app->attach_edge(b.client.get());
  }
  if (fs.offload.enabled && b.client) {
    b.offloader = std::make_unique<hb::offload::OffloadExecutor>(
        fs.offload, *b.client, b.app->sim(), b.app->power());
    b.app->set_remote_executor(b.offloader->executor());
  }
  if (alloc != nullptr && alloc->resolution != 1.0) {
    b.app->set_quality_scale(std::pow(
        alloc->resolution, broker->market().config().resolution_gamma));
  }
  b.cfg = fs.session;
  b.cfg.hbo.seed = ss.seed;
  if (fs.offload.enabled) b.cfg.hbo.offload = fs.offload;
  if (alloc != nullptr) b.cfg.hbo.market_price = alloc->price;
  return b;
}

/// Samples and host-time totals gathered over the traced sessions.
struct Acc {
  std::vector<double> solo_s, traced_s;
  std::vector<double> activation_tick_s, plain_tick_s, activations;
  std::vector<double> suggest_s, suggest_last_s, tell_s, suggests;
  std::vector<double> apply_cfg_s, run_period_s, profiles_s, ratios_s;
  std::vector<double> analyze_s, sched_events, replay_rate, active_jobs;
  std::vector<double> epoch_call_s;  ///< Allocator tick or store snapshot.
  std::uint64_t run_period_events = 0, events = 0, inferences = 0;
  std::uint64_t cache_hits = 0, cache_lookups = 0;
  std::uint64_t sched_recorded = 0, sched_dropped = 0;
  double sim_s = 0.0, self_s = 0.0;
  std::map<std::string, double> layer_s;  ///< Top-level span time by layer.
  std::map<std::string, double> layer_calls;
  std::size_t replay_mismatches = 0, mirror_mismatches = 0;
};

/// Timed call: appends the duration to `sample` and to the span list.
template <typename F>
auto timed(std::vector<Span>& spans, Acc& acc, const char* layer,
           std::vector<double>* sample, Clock::time_point origin, F&& f) {
  const Clock::time_point t0 = Clock::now();
  auto finish = [&] {
    const Clock::time_point t1 = Clock::now();
    const double d = secs(t0, t1);
    spans.push_back(Span{secs(origin, t0), secs(origin, t1)});
    acc.layer_s[layer] += d;
    acc.layer_calls[layer] += 1.0;
    if (sample != nullptr) sample->push_back(d);
  };
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    finish();
  } else {
    auto r = f();
    finish();
    return r;
  }
}

/// Replay one session's public calls on a fresh copy of its app, with a
/// span around each: the same monitor periods, and per activation the
/// same suggest / apply_configuration / run_period / tell sequence, the
/// validation pass and the settle periods. The app sees the identical
/// call sequence, so its trajectory (and event count) matches the
/// MonitoredSession run it replays.
void replay_session(const FleetSpec& fs, const SessionSpec& ss,
                    const hb::edgesvc::EdgeBroker* broker,
                    const hb::marketsvc::TenantAllocation* alloc,
                    const std::shared_ptr<const hb::policy::PriorSnapshot>& priors,
                    const std::vector<bool>& tick_activates,
                    const std::vector<hb::core::SessionActivation>& acts,
                    std::uint64_t expect_events, Acc& acc) {
  std::vector<Span> spans;
  const Clock::time_point origin = Clock::now();
  BuiltSession b = timed(spans, acc, "scenario.make_app", nullptr, origin,
                         [&] { return build_session(fs, ss, broker, alloc); });
  hb::app::MarApp& app = *b.app;
  const hb::core::HboConfig& hbo = b.cfg.hbo;
  hb::core::HboController controller(app, hbo);
  app.start();
  hb::Rng rng(hbo.seed);
  const std::size_t n_simplex =
      static_cast<std::size_t>(hb::soc::kNumDelegates) +
      (hbo.offload.enabled ? 1 : 0);

  auto period = [&](double seconds) {
    const std::uint64_t e0 = app.sim().events_executed();
    timed(spans, acc, "app.run_period", &acc.run_period_s, origin,
          [&] { app.run_period(seconds); });
    acc.run_period_events += app.sim().events_executed() - e0;
    for (hb::soc::Unit u :
         {hb::soc::Unit::Cpu, hb::soc::Unit::Gpu, hb::soc::Unit::Npu})
      acc.active_jobs.push_back(
          static_cast<double>(app.soc().unit(u).active_jobs()));
  };
  auto apply = [&](const std::vector<double>& z) {
    timed(spans, acc, "core.apply_configuration", &acc.apply_cfg_s, origin,
          [&] { controller.apply_configuration(z); });
  };

  // The first run_period would compute the isolation profiles lazily;
  // asking for them first gives that cost its own span.
  timed(spans, acc, "app.profiles", &acc.profiles_s, origin,
        [&] { app.profiles(); });

  std::size_t next_act = 0;
  for (const bool activates : tick_activates) {
    period(hbo.monitor_period_s);
    if (!activates) continue;
    const hb::core::ActivationResult& result = acts.at(next_act++).result;
    hb::bo::BoConfig bo_cfg = hbo.bo;
    bo_cfg.n_initial = hbo.n_initial;
    const hb::core::SessionActivation& act = acts[next_act - 1];
    if (priors && act.prior_injected)
      bo_cfg.prior = priors->find(ss.device, ss.scenario_name(), act.env);
    if (bo_cfg.prior && bo_cfg.prior->dim() != 0 &&
        bo_cfg.prior->dim() != n_simplex + 1)
      bo_cfg.prior = nullptr;
    hb::bo::BayesianOptimizer opt(
        hb::bo::SimplexBoxSpace(n_simplex, hbo.r_min, 1.0), bo_cfg);
    for (const hb::core::IterationRecord& rec : result.history) {
      const std::vector<double> z = timed(
          spans, acc, "bo.suggest", &acc.suggest_s, origin,
          [&] { return opt.suggest(rng); });
      if (z != rec.z) ++acc.replay_mismatches;
      apply(rec.z);
      period(hbo.control_period_s);
      timed(spans, acc, "bo.tell", &acc.tell_s, origin,
            [&] { opt.tell(rec.z, rec.cost); });
    }
    if (!result.history.empty()) {
      acc.suggest_last_s.push_back(acc.suggest_s.back());
      acc.suggests.push_back(static_cast<double>(result.history.size()));
    }
    std::vector<std::size_t> order(result.history.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t c) {
      return result.history[a].cost < result.history[c].cost;
    });
    const std::size_t k = std::min<std::size_t>(
        static_cast<std::size_t>(hbo.selection_candidates), order.size());
    if (k > 1) {
      for (std::size_t i = 0; i < k; ++i) {
        apply(result.history[order[i]].z);
        period(hbo.control_period_s);
      }
    }
    apply(result.history.at(result.best_index).z);
    period(hbo.monitor_period_s);
    for (int i = 0; i < b.cfg.reference_periods; ++i)
      period(hbo.monitor_period_s);
  }
  if (app.sim().events_executed() != expect_events) ++acc.replay_mismatches;
  acc.events += app.sim().events_executed();
  acc.sim_s += app.sim().now();
  acc.inferences += app.engine().completed_inferences();
  acc.cache_hits += app.decimation().cache_hits();
  acc.cache_lookups +=
      app.decimation().cache_hits() + app.decimation().cache_misses();

  if (b.trace) {
    app.sim().set_sched_trace(nullptr);
    timed(spans, acc, "des.sched_analyze", &acc.analyze_s, origin, [&] {
      hb::des::SchedAnalyzer analysis(*b.trace, fs.sched_analysis);
      return analysis.health().jobs;
    });
    const double d = acc.analyze_s.back();
    const std::uint64_t recorded = b.trace->total_recorded();
    acc.sched_recorded += recorded;
    acc.sched_dropped += b.trace->total_dropped();
    acc.sched_events.push_back(static_cast<double>(recorded));
    if (d > 0.0) acc.replay_rate.push_back(static_cast<double>(recorded) / d);
  }
  const Span session{0.0, secs(origin, Clock::now())};
  acc.traced_s.push_back(session.duration());
  acc.self_s += self_time(session, spans);

  // render: the same per-object ratio sequence on a third copy of the
  // app, timed call by call.
  BuiltSession r = build_session(fs, ss, broker, alloc);
  r.app->start();
  for (const hb::core::SessionActivation& a : acts) {
    for (const hb::core::IterationRecord& rec : a.result.history) {
      if (rec.object_ratios.empty()) continue;
      const Clock::time_point t0 = Clock::now();
      r.app->apply_object_ratios(rec.object_ratios);
      acc.ratios_s.push_back(secs(t0, Clock::now()));
    }
  }
}

/// Run the session as a MonitoredSession, timing each tick, check it
/// against the fleet's result, then replay its calls (replay_session).
void mirror_session(const FleetSpec& fs, const SessionSpec& ss,
                    const hb::edgesvc::EdgeBroker* broker,
                    const hb::marketsvc::TenantAllocation* alloc,
                    const std::shared_ptr<const hb::policy::PriorSnapshot>& priors,
                    const SessionResult& fleet_result, Acc& acc) {
  BuiltSession b = build_session(fs, ss, broker, alloc);
  hb::core::MonitoredSession session(*b.app, b.cfg);
  if (b.client) session.set_edge(b.client.get());
  if (priors) {
    hb::core::PolicyHooks hooks;
    hooks.prior = [priors, device = ss.device, scenario = ss.scenario_name()](
                      const hb::core::EnvironmentKey& env)
        -> std::shared_ptr<const hb::bo::SurrogatePrior> {
      return priors->find(device, scenario, env);
    };
    session.set_policy_hooks(std::move(hooks));
  }
  std::vector<bool> tick_activates;
  while (b.app->sim().now() < fs.duration_s) {
    const Clock::time_point t0 = Clock::now();
    const bool activated = session.tick();
    const double d = secs(t0, Clock::now());
    (activated ? acc.activation_tick_s : acc.plain_tick_s).push_back(d);
    tick_activates.push_back(activated);
  }
  acc.activations.push_back(static_cast<double>(session.activations().size()));
  if (b.app->sim().now() != fleet_result.sim_seconds ||
      session.reward_stat().mean() != fleet_result.mean_reward ||
      session.activations().size() != fleet_result.activations)
    ++acc.mirror_mismatches;
  const std::uint64_t events = b.app->sim().events_executed();
  // Release the mirror before the replay builds its own copies.
  const std::vector<hb::core::SessionActivation> acts = session.activations();
  replay_session(fs, ss, broker, alloc, priors, tick_activates, acts, events,
                 acc);
}

/// EdgeClient::perform on a make_client client, replaying one session's
/// measured request count, mean size and spacing.
void drive_edge_client(const FleetSpec& fs, const SessionResult& r,
                       std::vector<double>& perform_s) {
  if (r.edge_requests == 0) return;
  const hb::edgesvc::EdgeBroker broker(fs.edge, fs.sessions);
  const std::unique_ptr<hb::edgesvc::EdgeClient> client =
      broker.make_client(r.session_id, r.seed);
  const double n = static_cast<double>(r.edge_requests);
  const hb::edgesvc::RequestClass cls =
      r.offload_session ? hb::edgesvc::RequestClass::AiInference
                        : hb::edgesvc::RequestClass::Decimation;
  const double units = r.edge_units / n;
  const auto bytes = static_cast<std::uint64_t>(
      static_cast<double>(r.edge_payload_bytes) / n);
  const double gap = r.sim_seconds / n;
  for (std::uint64_t i = 0; i < r.edge_requests; ++i) {
    const Clock::time_point t0 = Clock::now();
    client->perform(cls, units, bytes, gap * static_cast<double>(i));
    perform_s.push_back(secs(t0, Clock::now()));
  }
}

/// Host time per PowerManager tick: a Simulator carrying only the
/// power manager of `device`, run for `sim_s` simulated seconds.
double power_tick_s(const FleetSpec& fs, const std::string& device,
                    double sim_s) {
  const hb::soc::DeviceProfile profile = hb::soc::find_builtin(device);
  hb::des::Simulator sim;
  hb::soc::SocRuntime soc(sim, profile);
  hb::power::PowerManager pm(sim, soc, hb::power::find_power_model(device),
                             fs.power);
  const Clock::time_point t0 = Clock::now();
  sim.run_until(sim_s);
  const double d = secs(t0, Clock::now());
  const std::uint64_t ticks = sim.events_executed();
  pm.stop();
  return ticks > 0 ? d / static_cast<double>(ticks) : 0.0;
}

double p50_or_0(const std::vector<double>& v) {
  return v.empty() ? 0.0 : median(v);
}
double p99_or_0(const std::vector<double>& v) {
  return v.empty() ? 0.0 : hb::percentile(v, 99.0);
}
double mean_or_0(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}
double ratio_or_0(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void print_sample(const char* name, const std::vector<double>& v,
                  double scale, const char* unit) {
  std::cout << "  " << std::left << std::setw(32) << name << std::right
            << " n=" << std::setw(6) << v.size();
  if (!v.empty()) {
    std::cout << "  p50=" << median(v) * scale << " " << unit;
    if (const auto tail = tail_percentile(v.size()); tail && *tail > 50.0)
      std::cout << "  p" << *tail << "=" << hb::percentile(v, *tail) * scale
                << " " << unit;
    else
      std::cout << "  (too few samples for a tail percentile)";
  }
  std::cout << "\n";
}

}  // namespace

RunOutcome run_traced(const Workload& w, hb::fleet::FleetSimulator& fleet,
                      double seconds) {
  RunOutcome out;
  const FleetSpec& fs = fleet.spec();
  const Clock::time_point start = Clock::now();

  // One fleet batch, untraced: the results every traced session is
  // checked against, and the worker busy fraction.
  const Clock::time_point r0 = Clock::now();
  const hb::fleet::FleetResult res = fleet.run();
  const double run_wall = secs(r0, Clock::now());
  const std::vector<SessionResult>& results = res.sessions;
  out.attempted += fs.sessions;
  std::vector<double> walls;
  std::uint64_t edge_req = 0, edge_retries = 0, edge_fallbacks = 0;
  std::uint64_t off_remote = 0, off_fallbacks = 0;
  for (const SessionResult& r : results) {
    if (!session_ok(r, fs.duration_s)) ++out.failed;
    walls.push_back(r.wall_seconds);
    edge_req += r.edge_requests;
    edge_retries += r.edge_retries;
    edge_fallbacks += r.edge_fallbacks;
    off_remote += r.offload_remote;
    off_fallbacks += r.offload_fallbacks;
  }
  const std::size_t threads = fs.threads;

  // Sessions in id order, epoch by epoch, until most of the budget is
  // spent: untraced solo re-run, timed MonitoredSession, span replay.
  Acc acc;
  EpochReplay replay(fs);
  const bool market = fs.market.enabled;
  const bool prior = fs.policy.mode == hb::fleet::PolicyMode::Prior;
  std::size_t traced = 0;
  auto in_budget = [&] {
    return traced == 0 || secs(start, Clock::now()) < 0.8 * seconds;
  };
  for (std::size_t start_id = 0; start_id < fs.sessions && in_budget();
       start_id += replay.epoch_sessions()) {
    const double epoch_call = replay.begin_epoch(start_id);
    if (market || prior) acc.epoch_call_s.push_back(epoch_call);
    const std::size_t end =
        std::min(start_id + replay.epoch_sessions(), fs.sessions);
    for (std::size_t id = start_id; id < end && in_budget(); ++id) {
      const Clock::time_point t0 = Clock::now();
      hb::fleet::PolicySessionOutput solo = replay.run(fleet, id);
      acc.solo_s.push_back(secs(t0, Clock::now()));
      ++out.attempted;
      if (!same_result(solo.result, results.at(id))) ++out.failed;
      mirror_session(fs, fleet.session_spec(id), replay.broker(),
                     replay.allocation(id), replay.priors(), results.at(id),
                     acc);
      replay.observe(solo);
      ++traced;
    }
  }

  std::vector<double> perform_s;
  if (fs.use_edge_service) {
    for (std::size_t id = 0; id < std::min<std::size_t>(traced, 16); ++id)
      drive_edge_client(fs, results.at(id), perform_s);
  }
  double power_tick = 0.0;
  if (fs.use_power_model) {
    std::vector<double> per_tick;
    for (const hb::fleet::DeviceMixEntry& d : fs.devices)
      per_tick.push_back(power_tick_s(fs, d.device, 600.0));
    power_tick = median(per_tick);
  }

  // --- per-layer shares over the traced sessions ---------------------------
  double traced_total = 0.0;
  for (const double t : acc.traced_s) traced_total += t;
  const std::vector<std::string> layers = {
      "scenario.make_app", "app.profiles",  "app.run_period",
      "core.apply_configuration", "bo.suggest", "bo.tell",
      "des.sched_analyze"};
  std::vector<LayerCost> costs;
  for (const std::string& l : layers)
    costs.push_back(LayerCost{l, acc.layer_calls[l], acc.layer_s[l]});
  const std::vector<LayerShare> shares =
      traced_total > 0.0 ? share_rollup(costs, traced_total)
                         : std::vector<LayerShare>{};
  double solo_total = 0.0;
  for (const double t : acc.solo_s) solo_total += t;
  const double overhead = ratio_or_0(traced_total, solo_total) - 1.0;
  const double unattributed = ratio_or_0(acc.self_s, traced_total);

  std::cout << std::setprecision(4);
  std::cout << "traced " << w.name << ": fleet batch " << fs.sessions
            << " sessions in " << run_wall << " s on " << threads
            << " threads; " << traced << " sessions traced on this thread\n";
  std::cout << "share of traced session host time (calls x time/call):\n";
  std::cout << "  " << std::left << std::setw(28) << "layer" << std::right
            << std::setw(10) << "calls" << std::setw(14) << "us/call"
            << std::setw(10) << "share\n";
  for (const LayerShare& s : shares) {
    std::cout << "  " << std::left << std::setw(28) << s.layer << std::right
              << std::setw(10) << s.calls << std::setw(14) << s.per_call * 1e6
              << std::setw(10) << s.share << "\n";
  }
  std::cout << "  span self time (unattributed): " << unattributed
            << "; trace.overhead_frac (traced vs untraced host time, same "
               "ids): "
            << overhead << "\n";
  print_sample("core.activation_tick (ms)", acc.activation_tick_s, 1e3, "ms");
  print_sample("core.plain_tick (us)", acc.plain_tick_s, 1e6, "us");
  print_sample("app.run_period (us)", acc.run_period_s, 1e6, "us");
  print_sample("bo.suggest (us)", acc.suggest_s, 1e6, "us");
  print_sample("des.sched_analyze (ms)", acc.analyze_s, 1e3, "ms");
  print_sample("fleet.session_solo (ms)", acc.solo_s, 1e3, "ms");
  if (acc.replay_mismatches + acc.mirror_mismatches > 0) {
    std::cout << "warning: " << acc.mirror_mismatches
              << " MonitoredSession mirrors and " << acc.replay_mismatches
              << " call replays diverged from the fleet's sessions; the "
                 "per-call costs no longer replay the same trajectory\n";
  }

  const double n_traced = static_cast<double>(std::max<std::size_t>(traced, 1));
  auto add = [&out](const std::string& name, double value, const char* unit) {
    out.metrics.push_back(Metric{name, std::isfinite(value) ? value : 0.0, unit});
  };
  add("bo.suggest_us_p50", p50_or_0(acc.suggest_s) * 1e6, "us");
  add("bo.suggest_us_last", p50_or_0(acc.suggest_last_s) * 1e6, "us");
  add("bo.tell_us_p50", p50_or_0(acc.tell_s) * 1e6, "us");
  add("bo.suggests_per_activation", mean_or_0(acc.suggests), "count");
  add("core.activation_tick_ms_p50", p50_or_0(acc.activation_tick_s) * 1e3, "ms");
  add("core.activation_tick_ms_p99", p99_or_0(acc.activation_tick_s) * 1e3, "ms");
  add("core.plain_tick_us_p50", p50_or_0(acc.plain_tick_s) * 1e6, "us");
  add("core.activations_per_session", mean_or_0(acc.activations), "count");
  add("core.apply_configuration_us_p50", p50_or_0(acc.apply_cfg_s) * 1e6, "us");
  add("app.run_period_us_p50", p50_or_0(acc.run_period_s) * 1e6, "us");
  add("app.profiles_us", p50_or_0(acc.profiles_s) * 1e6, "us");
  add("des.events_per_session", static_cast<double>(acc.events) / n_traced, "count");
  add("des.events_per_sim_s", ratio_or_0(static_cast<double>(acc.events), acc.sim_s), "1/s");
  add("des.ns_per_event",
      ratio_or_0(acc.layer_s["app.run_period"] * 1e9,
                 static_cast<double>(acc.run_period_events)),
      "ns");
  add("des.ps_active_jobs_mean", mean_or_0(acc.active_jobs), "count");
  add("des.ps_active_jobs_max",
      acc.active_jobs.empty()
          ? 0.0
          : *std::max_element(acc.active_jobs.begin(), acc.active_jobs.end()),
      "count");
  add("des.sched_events_per_session", mean_or_0(acc.sched_events), "count");
  add("des.sched_analyze_ms_p50", p50_or_0(acc.analyze_s) * 1e3, "ms");
  add("des.sched_analyze_ms_p99", p99_or_0(acc.analyze_s) * 1e3, "ms");
  add("des.sched_replay_events_per_s", p50_or_0(acc.replay_rate), "1/s");
  add("des.sched_dropped_frac",
      ratio_or_0(static_cast<double>(acc.sched_dropped),
                 static_cast<double>(acc.sched_recorded)),
      "fraction");
  add("ai.inferences_per_sim_s",
      ratio_or_0(static_cast<double>(acc.inferences), acc.sim_s), "1/s");
  add("render.apply_object_ratios_us_p50", p50_or_0(acc.ratios_s) * 1e6, "us");
  add("edge.decimation_hit_rate",
      ratio_or_0(static_cast<double>(acc.cache_hits),
                 static_cast<double>(acc.cache_lookups)),
      "fraction");
  add("edgesvc.perform_us_p50", p50_or_0(perform_s) * 1e6, "us");
  add("edgesvc.requests_per_session",
      static_cast<double>(edge_req) / static_cast<double>(fs.sessions), "count");
  add("edgesvc.retries_per_request",
      ratio_or_0(static_cast<double>(edge_retries), static_cast<double>(edge_req)),
      "count");
  add("edgesvc.fallback_rate",
      ratio_or_0(static_cast<double>(edge_fallbacks), static_cast<double>(edge_req)),
      "fraction");
  add("marketsvc.tick_us", market ? p50_or_0(acc.epoch_call_s) * 1e6 : 0.0, "us");
  add("marketsvc.admission_rate", market ? res.metrics.market.admission_rate : 0.0,
      "fraction");
  add("policy.snapshot_ms", prior ? p50_or_0(acc.epoch_call_s) * 1e3 : 0.0, "ms");
  add("policy.prior_injection_rate",
      prior ? res.metrics.policy.prior_injection_rate : 0.0, "fraction");
  add("power.tick_us", power_tick * 1e6, "us");
  add("power.throttled_session_frac",
      res.metrics.power.throttled_session_fraction, "fraction");
  add("offload.remote_frac", res.metrics.offload.offload_rate, "fraction");
  add("offload.fallback_frac",
      ratio_or_0(static_cast<double>(off_fallbacks),
                 static_cast<double>(off_remote + off_fallbacks)),
      "fraction");
  add("fleet.worker_busy_frac", worker_busy_frac(walls, threads, run_wall),
      "fraction");
  add("fleet.session_ms_solo_p50", p50_or_0(acc.solo_s) * 1e3, "ms");
  for (const LayerShare& s : shares) {
    if (s.layer != "unattributed") add("share." + s.layer, s.share, "fraction");
  }
  add("share.unattributed", unattributed, "fraction");
  add("trace.overhead_frac", overhead, "fraction");
  add("trace.sessions", static_cast<double>(traced), "count");
  out.correct = out.failed == 0;
  return out;
}

}  // namespace perfbench
