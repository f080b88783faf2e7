#pragma once

#include <functional>
#include <vector>

#include "hbosim/app/mar_app.hpp"
#include "hbosim/common/stats.hpp"
#include "hbosim/core/activation.hpp"
#include "hbosim/core/controller.hpp"
#include "hbosim/core/lookup_table.hpp"
#include "hbosim/edgesvc/edge_client.hpp"

/// \file monitored_session.hpp
/// The full HBO runtime loop as a reusable component: monitor the reward
/// every monitor period (EWMA-smoothed), consult the event-based
/// activation policy, run an activation when it fires, re-establish the
/// reference from a settled multi-period average — i.e. everything
/// Section IV-E describes, packaged so applications do not hand-roll the
/// loop (the Fig. 8 bench and the museum example are thin wrappers over
/// this).
///
/// Optionally consults the Section VI solution lookup table before
/// spending a full Bayesian activation: on an exact environment match the
/// remembered configuration is applied and validated in one control
/// period; a fresh activation runs only if the warm start underperforms
/// the remembered cost by more than `warm_start_tolerance`.

namespace hbosim::core {

/// Bytes one store-fetch exchange moves (Section VI: "in the order of a
/// few Bytes"): the uplink's observed (z, cost) as packed floats plus
/// framing, 48, and the downlink's next configuration vector, 40.
inline constexpr std::uint64_t kRemoteBoPayloadBytes = 48 + 40;

struct MonitoredSessionConfig {
  HboConfig hbo;
  /// EWMA weight for the monitored reward.
  static constexpr double smoothing_alpha = 0.3;
  /// Settled periods averaged into a new reference after an activation.
  int reference_periods = 3;
  /// Enable the Section VI lookup-table fast path.
  bool use_lookup_table = false;
  /// Warm-start acceptance: measured cost may exceed the remembered cost
  /// by at most this much before a full activation is triggered anyway.
  double warm_start_tolerance = 0.15;
};

/// One record per activation the session performed.
struct SessionActivation {
  SimTime at = 0.0;
  bool warm_start = false;        ///< Served from a remembered solution?
  bool from_shared_store = false; ///< Warm start came from the external store?
  bool prior_injected = false;    ///< Ran with a learned surrogate prior?
  /// Quantized environment at the moment the activation fired (the key a
  /// policy layer files this activation's observations under).
  EnvironmentKey env;
  double reference_reward = 0.0;
  ActivationResult result;   ///< Empty history for warm starts.
};

/// Hooks into an external (e.g. fleet-wide) solution store. `fetch` is
/// consulted when the session's own lookup table misses; `publish` is
/// called after every full activation with the solution that was stored
/// locally. Either hook may be empty. The hooks are invoked on whatever
/// thread runs the session. The fleet's hooks never touch shared mutable
/// state: `fetch` reads an immutable fleet::PoolSnapshot and `publish`
/// appends to the session's own output, which the main thread files into
/// fleet::SharedSolutionPool.
struct SolutionStoreHooks {
  std::function<std::optional<StoredSolution>(const EnvironmentKey&)> fetch;
  std::function<void(const EnvironmentKey&, const StoredSolution&)> publish;
};

/// Hooks into an external learned-policy layer (see hbosim::policy),
/// sitting next to SolutionStoreHooks: where the store moves *solutions*
/// across sessions, the policy hooks move *models*. `prior` is consulted
/// at the start of every full (non-warm-start) activation with the
/// quantized environment; the prior it returns (may be null) is injected
/// into that activation's Bayesian optimizer. Invoked on whatever thread
/// runs the session, so anything behind the hook must be safe for
/// concurrent reads (fleet epochs hand out frozen snapshots).
struct PolicyHooks {
  std::function<std::shared_ptr<const bo::SurrogatePrior>(
      const EnvironmentKey&)>
      prior;
};

class MonitoredSession {
 public:
  MonitoredSession(app::MarApp& app, MonitoredSessionConfig cfg = {});

  /// Advance the app by one monitor period; runs an activation when the
  /// policy fires. Returns true if an activation (or warm start) ran.
  bool tick();

  /// Run tick() until the simulation clock reaches `until`.
  void run_until(SimTime until);

  const std::vector<SessionActivation>& activations() const {
    return activations_;
  }
  const EventActivationPolicy& policy() const { return policy_; }
  const SolutionLookupTable& lookup_table() const { return lookup_; }
  /// Mutable access, for injecting remembered solutions from outside (the
  /// Section VI "share results across users" direction) and for tests.
  SolutionLookupTable& lookup_table() { return lookup_; }
  const MonitoredSessionConfig& config() const { return cfg_; }

  /// Attach external warm-start hooks. Only consulted/notified while
  /// `use_lookup_table` is enabled (the hooks extend the table, they do
  /// not replace it).
  void set_solution_store(SolutionStoreHooks hooks) {
    store_ = std::move(hooks);
  }

  /// Attach learned-policy hooks (prior injection). Unlike the solution
  /// store these are independent of `use_lookup_table`: a prior helps any
  /// full activation, remembered-solution fast path or not.
  void set_policy_hooks(PolicyHooks hooks) { policy_hooks_ = std::move(hooks); }

  /// Model the shared-store fetch as a remote exchange with the edge box
  /// (Section VI: the pool lives server-side). While attached, a local
  /// lookup miss costs one RemoteBo exchange of kRemoteBoPayloadBytes
  /// before the store is consulted; if it fails after retries, the store
  /// is skipped and the session falls back to local BO for this
  /// activation. Pass nullptr to detach. The client must outlive the
  /// session.
  void set_edge(edgesvc::EdgeClient* client) { edge_ = client; }

  /// Store fetches abandoned because the edge exchange failed (each one
  /// forced a full local activation instead of a possible warm start).
  std::uint64_t edge_bo_fallbacks() const { return edge_bo_fallbacks_; }

  /// Every monitored period observed so far (Q_t, epsilon_t, B_t and the
  /// (t, B_t) trace).
  const app::SessionStats& stats() const { return stats_; }
  /// Shorthand for stats().reward.
  const RunningStat& reward_stat() const { return stats_.reward; }

 private:
  void activate();
  double settle_and_reference();

  app::MarApp& app_;
  MonitoredSessionConfig cfg_;
  HboController controller_;
  EventActivationPolicy policy_;
  SolutionLookupTable lookup_;
  SolutionStoreHooks store_;
  PolicyHooks policy_hooks_;
  edgesvc::EdgeClient* edge_ = nullptr;
  std::uint64_t edge_bo_fallbacks_ = 0;
  Ewma smoothed_;
  app::SessionStats stats_;
  std::vector<SessionActivation> activations_;
};

}  // namespace hbosim::core
