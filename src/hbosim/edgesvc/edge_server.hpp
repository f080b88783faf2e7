#pragma once

#include <cstdint>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "hbosim/common/rng.hpp"

/// \file edge_server.hpp
/// The contended edge server: a worker pool fed by a bounded admission
/// queue with pluggable ordering policies, serving three request classes
/// (mesh decimation, remote-BO suggest exchanges, raw mesh transfers).
///
/// The server is simulated in *virtual time* as seen by one session:
/// every hbosim session owns an independent des::Simulator clock, so a
/// literally shared queue would make event times depend on thread
/// scheduling and break the fleet's bit-identical determinism guarantee.
/// Instead, each session's EdgeServerSim is a deterministic mirror of the
/// shared box: it simulates the session's own requests *plus* a seeded
/// background arrival process standing in for the other N-1 tenants.
/// Contention is therefore statistical (load grows with the configured
/// tenant count), not causal across sessions — the price of exact replay.
/// The fleet folds every mirror's statistics into the fleet-wide view
/// (edgesvc::EdgeFleetStats, see broker.hpp).
///
/// A session request is resolved synchronously at submit(): the mirror
/// catches its virtual clock up to the arrival time (admitting background
/// arrivals on the way), admits or rejects against the bounded queue, and
/// then drives the assignment loop forward — generating further background
/// arrivals as needed, since under priority policies those may legally
/// overtake — until the request reaches a core. Admitted-but-abandoned
/// work (a client that timed out waiting) still occupies the queue and a
/// core, exactly as a real server that cannot see client-side timeouts;
/// the deadline-priority policy is the exception: it sheds requests whose
/// deadline already passed at pick time instead of burning a core on them.

namespace hbosim::edgesvc {

enum class RequestClass : std::uint8_t {
  Decimation,
  RemoteBo,
  MeshTransfer,
  /// Offloaded AI inference (hbosim::offload): `units` carries the
  /// inference's *device-milliseconds* of compute demand, which the
  /// server converts through ai_ms_per_unit (server cores are a few
  /// times faster than a phone accelerator).
  AiInference,
};
enum class QueuePolicy : std::uint8_t { Fifo, DeadlinePriority, TenantFairShare };

const char* request_class_name(RequestClass c);
const char* queue_policy_name(QueuePolicy p);
/// Parse "fifo" / "deadline" / "fair" (throws hbosim::Error otherwise).
QueuePolicy queue_policy_from_name(std::string_view name);

struct EdgeServerSpec {
  int cores = 4;                    ///< Parallel workers.
  std::size_t queue_capacity = 64;  ///< Bounded admission queue.
  QueuePolicy policy = QueuePolicy::Fifo;

  /// Per-class service-time models. Decimation and mesh transfers scale
  /// with the request's size in mega-triangles; a BO suggest is flat.
  /// edge::DecimationService's closed form prices its misses with
  /// decimation_ms_per_mtri too.
  static constexpr double decimation_ms_per_mtri = 35.0;
  static constexpr double bo_suggest_ms = 2.0;     ///< One remote suggest.
  static constexpr double mesh_ms_per_mtri = 4.0;  ///< Framing/compression.
  /// Server milliseconds per device-millisecond of offloaded inference
  /// demand (AiInference `units`). 0.25 models an edge core ~4x faster
  /// than the device accelerator the demand was profiled on.
  static constexpr double ai_ms_per_unit = 0.25;

  void validate() const;
  double service_seconds(RequestClass cls, double units) const;
};

/// Synthetic per-tenant load standing in for the other tenants of the
/// shared box. All draws come from the mirror's seeded Rng stream.
struct BackgroundLoadConfig {
  double per_tenant_rps = 0.4;  ///< Poisson arrival rate per tenant (req/s).
  /// Class mix weights (need not be normalized).
  static constexpr double decimation_weight = 0.7;
  static constexpr double bo_weight = 0.2;
  static constexpr double mesh_weight = 0.1;
  double mean_units = 0.15;   ///< Exponential mean request size (mtri).
  /// Background clients' patience (for deadline-ordered queues and
  /// shedding).
  static constexpr double deadline_s = 0.25;
  void validate() const;
};

struct EdgeRequest {
  std::uint64_t tenant = 0;
  RequestClass cls = RequestClass::Decimation;
  double units = 0.0;     ///< Mega-triangles (ignored for RemoteBo).
  double arrival_s = 0.0;
  /// Absolute deadline; orders DeadlinePriority queues and marks when the
  /// issuing client will give up. Defaults to "infinitely patient".
  double deadline_s = std::numeric_limits<double>::infinity();
};

enum class AdmissionStatus : std::uint8_t {
  Ok,        ///< Assigned to a core; completion_s is valid.
  Rejected,  ///< Bounced at the bounded queue.
  Shed,      ///< Deadline passed while queued; dropped by the deadline
             ///< policy before reaching a core.
};

struct AdmissionResult {
  AdmissionStatus status = AdmissionStatus::Rejected;
  double wait_s = 0.0;        ///< Queue wait before service started.
  double completion_s = 0.0;  ///< Absolute service completion (Ok only).
  std::size_t depth_at_arrival = 0;
};

struct EdgeServerStats {
  std::uint64_t arrivals = 0;   ///< Session + background arrivals.
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;   ///< Bounced at the bounded queue.
  std::uint64_t served = 0;     ///< Reached a core.
  std::uint64_t shed = 0;       ///< Expired in queue (deadline policy).
  std::uint64_t bg_arrivals = 0;  ///< Subset of arrivals: background.
  double total_wait_s = 0.0;      ///< Summed queue waits of served work.
  double total_service_s = 0.0;   ///< Summed service (core busy) time.
  /// Queue depth observed at each arrival; index clamped to capacity.
  std::vector<std::uint64_t> depth_hist;

  double rejection_rate() const;
  double mean_wait_s() const;
  double mean_service_s() const;  ///< total_service_s / served.
  /// Depth below which 95% of arrivals found the queue.
  double queue_depth_p95() const;
  /// Element-wise accumulate (for the fleet-wide roll-up).
  void merge(const EdgeServerStats& other);
};

class EdgeServerSim {
 public:
  /// `background_tenants` is the number of *other* tenants this mirror
  /// stands in for; 0 gives an uncontended private server. `seed` fixes
  /// the background process (derive it from the session seed).
  EdgeServerSim(EdgeServerSpec spec, BackgroundLoadConfig bg,
                std::size_t background_tenants, std::uint64_t seed);

  /// Submit one session request and resolve it against the mirror.
  /// Arrivals should be non-decreasing; an arrival behind the virtual
  /// clock (possible when a previous resolution ran ahead) is treated as
  /// arriving "now" without rewinding already-started work.
  AdmissionResult submit(const EdgeRequest& req);

  const EdgeServerStats& stats() const { return stats_; }
  const EdgeServerSpec& spec() const { return spec_; }
  double virtual_now() const { return vnow_; }
  std::size_t queue_depth() const { return queue_.size(); }

 private:
  struct Pending {
    std::uint64_t tenant = 0;
    double service_s = 0.0;
    double arrival_s = 0.0;
    double deadline_s = 0.0;
    std::uint64_t seq = 0;  ///< Admission order; FIFO tie-break.
  };

  static constexpr std::uint64_t kNoSeq = ~0ull;

  /// Admit or bounce an arrival (records depth + counters). Returns the
  /// assigned seq, or kNoSeq when rejected.
  std::uint64_t admit(std::uint64_t tenant, double service_s,
                      double arrival_s, double deadline_s, bool background);

  /// Drive the mirror: admit background arrivals and start queued work in
  /// virtual-time order. With `wait_seq` set, runs until that request is
  /// assigned (returning its result) or shed; otherwise runs until the
  /// next step would pass `horizon` and returns nullopt-equivalent.
  AdmissionResult run(double horizon, std::uint64_t wait_seq);

  /// Policy choice among queued requests at virtual time `now`.
  std::size_t pick_index(double now) const;

  void schedule_next_background();
  double draw_exponential(double mean);

  EdgeServerSpec spec_;
  BackgroundLoadConfig bg_;
  std::size_t background_tenants_;
  Rng rng_;

  double vnow_ = 0.0;
  std::uint64_t next_seq_ = 0;
  double next_bg_ = std::numeric_limits<double>::infinity();
  std::vector<double> core_free_;  ///< Absolute per-core busy-until times.
  std::vector<Pending> queue_;
  /// Served-request count per tenant (TenantFairShare bookkeeping).
  std::unordered_map<std::uint64_t, std::uint64_t> tenant_served_;

  EdgeServerStats stats_;
};

}  // namespace hbosim::edgesvc
