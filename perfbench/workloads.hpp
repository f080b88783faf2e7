#pragma once

// Workload definitions, session-result checks, and the calling-thread
// replay of the fleet's cross-session channels that lets single sessions
// be re-run outside FleetSimulator::run().

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hbosim/edgesvc/broker.hpp"
#include "hbosim/fleet/fleet_simulator.hpp"
#include "hbosim/policy/prior_store.hpp"

namespace perfbench {

/// One benchmark workload: a closed batch of `spec.sessions` sessions run
/// by one FleetSimulator::run() on `spec.threads` workers.
struct Workload {
  std::string name;
  hbosim::fleet::FleetSpec spec;
  /// Alternate exact-path (retained results) and streaming-path batches;
  /// throughput is read from the streaming ones.
  bool streaming = false;
};

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::size_t threads);

/// CPUs this process may run on (what `nproc` prints).
std::size_t nproc();

/// Fill the lazily built caches the first session would otherwise pay
/// for: builtin device profiles and the mix's mesh assets.
void warm_caches(const hbosim::fleet::FleetSpec& spec);

/// Finite metrics and at least `duration_s` simulated seconds.
bool session_ok(const hbosim::fleet::SessionResult& r, double duration_s);

/// Bitwise equality of every field except wall_seconds.
bool same_result(const hbosim::fleet::SessionResult& a,
                 const hbosim::fleet::SessionResult& b);

/// FNV-1a over every field except wall_seconds, chained through `h`.
std::uint64_t result_digest(const hbosim::fleet::SessionResult& r,
                            std::uint64_t h = 0xcbf29ce484222325ull);

/// Replays, in session-id order on the calling thread, the epoch channel
/// FleetSimulator::run() drives at its barriers: the market allocator
/// (tick per epoch, observe per session) or the prior store (snapshot
/// per epoch, record per session). Lets session `id` be re-run with the
/// artifact the fleet gave it. Without either layer it is a no-op.
class EpochReplay {
 public:
  explicit EpochReplay(const hbosim::fleet::FleetSpec& spec);

  std::size_t epoch_sessions() const { return epoch_; }

  /// Tick the allocator or snapshot the store for the epoch that starts
  /// at `start`; returns the host seconds the call took (0 without a
  /// layer).
  double begin_epoch(std::size_t start);

  /// The allocation of session `id` in the current epoch (null without
  /// a market).
  const hbosim::marketsvc::TenantAllocation* allocation(std::size_t id) const;
  /// The current epoch's frozen priors (null without the prior layer).
  std::shared_ptr<const hbosim::policy::PriorSnapshot> priors() const {
    return priors_;
  }
  /// Broker owning the replayed allocator (null without an edge).
  const hbosim::edgesvc::EdgeBroker* broker() const { return broker_.get(); }

  /// Feed one finished session, in session-id order.
  void observe(const hbosim::fleet::PolicySessionOutput& out);

  /// Re-run session `id` on the calling thread, as the fleet ran it.
  hbosim::fleet::PolicySessionOutput run(
      const hbosim::fleet::FleetSimulator& fleet, std::size_t id) const;

 private:
  hbosim::fleet::FleetSpec spec_;
  std::size_t epoch_ = 32;
  std::size_t start_ = 0;
  std::unique_ptr<hbosim::edgesvc::EdgeBroker> broker_;
  std::unique_ptr<hbosim::policy::PriorStore> store_;
  std::vector<hbosim::marketsvc::TenantAllocation> allocations_;
  std::shared_ptr<const hbosim::policy::PriorSnapshot> priors_;
};

}  // namespace perfbench
