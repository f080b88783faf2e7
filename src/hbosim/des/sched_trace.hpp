#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hbosim/common/types.hpp"

/// \file sched_trace.hpp
/// Structured per-job scheduler lifecycle event stream.
///
/// A SchedSink receives every scheduling-relevant transition of the
/// PsResources attached to one Simulator: job admission, completion, and
/// every mid-service rescale (DVFS capacity step, rate-cap change,
/// background-utilization change). No job leaves service any other way.
/// Each record carries the per-job service rate in effect *after* the
/// transition, which makes the stream exactly replayable: a
/// processor-sharing resource changes its per-job rate only at these
/// transitions, so between two consecutive events every active job
/// accrues `share * dt` service — no sampling, no approximation.
/// `des::SchedMeter` folds it into SchedHealth as it arrives; a SchedTrace
/// keeps it for the offline `des::SchedAnalyzer`.
///
/// Recording is strictly observational. A PsResource reaches its sink
/// through `Simulator::sched_trace()` (a plain pointer read); when no
/// sink is attached the off-mode cost is one predictable branch, and
/// when one is attached nothing the sink does can feed back into the
/// simulation — attaching one changes no simulated result (pinned by
/// parity tests).
///
/// Events live in per-resource rings that grow on demand, doubling up to
/// a fixed power-of-two capacity; past it the oldest records are
/// overwritten. A trace therefore holds memory in proportion to what it
/// recorded, never capacity x resources up front. The drop count is kept
/// so the analyzer can report truncated coverage instead of silently
/// under-counting.

namespace hbosim::des {

/// Lifecycle transition kinds. A processor-sharing server admits jobs
/// into service immediately, so Submit doubles as the start-of-service
/// record; Rescale covers every mid-service share change (DVFS steps,
/// rate-cap moves, background/render load settling on the unit).
enum class SchedEventKind : std::uint8_t {
  Submit,    ///< Job entered service (admission == start under PS).
  Rescale,   ///< Capacity / rate cap / background changed mid-service.
  Complete,  ///< Job finished; its completion callback is about to run.
};

/// One lifecycle record. `share` is the per-job service rate in effect
/// AFTER the event applied — the invariant the exact replay rests on.
/// Submit additionally snapshots `solo_rate`, the rate this job would
/// have received on an otherwise-empty resource, which defines its ideal
/// (contention-free) service time `demand / solo_rate`. Fields are laid
/// out widest first so a record fills one 64-byte cache line.
struct SchedEvent {
  SimTime time = 0.0;
  JobId job = 0;                 ///< 0 for Rescale records.
  const char* cls = nullptr;     ///< Job-class tag (interned); may be null.
  double demand = 0.0;           ///< Rate-1 seconds requested (Submit only).
  double cores = 0.0;            ///< Capacity units held (Submit only).
  double share = 0.0;            ///< Per-job rate after the event.
  double solo_rate = 0.0;        ///< Contention-free rate (Submit only).
  std::uint32_t active_jobs = 0; ///< Jobs in service after the event.
  std::uint16_t resource = 0;    ///< Id from SchedSink::register_resource.
  SchedEventKind kind = SchedEventKind::Submit;
};

/// Receiver of a Simulator's lifecycle records.
class SchedSink {
 public:
  virtual ~SchedSink() = default;
  /// A new resource stream's id, which the resource stamps on its records.
  virtual std::uint16_t register_resource(const std::string& name) = 0;
  virtual void record(const SchedEvent& ev) = 0;
};

struct SchedTraceConfig {
  /// Fleet-level master switch (FleetSpec::sched): whether every session
  /// runs with a SchedMeter. A constructed SchedTrace always records.
  bool enabled = false;
  /// Ring capacity per resource of a SchedTrace (rounded up to a power of
  /// two). Rings grow on demand, so this caps a trace's memory rather than
  /// reserving it; at the default 65536 a 60 s session traces every AI
  /// phase with room to spare.
  std::size_t capacity_per_resource = 1u << 16;
  /// Drop the PsResource depth-counter decimation to 1 (exact counters)
  /// on metered or traced sessions, so the telemetry depth series lines
  /// up with the forensics event stream. Only consulted where a sink is
  /// attached; other sessions keep the default 1-in-16 sampling.
  static constexpr bool exact_depth_counters = true;
};

/// Per-resource ring buffers of SchedEvents plus drop accounting, for
/// the deep dive (run_session_traced, --gantt, the Perfetto export).
/// Single-threaded like the Simulator that feeds it.
class SchedTrace final : public SchedSink {
 public:
  explicit SchedTrace(SchedTraceConfig cfg = {});

  const SchedTraceConfig& config() const { return cfg_; }

  std::uint16_t register_resource(const std::string& name) override;

  void record(const SchedEvent& ev) override;

  std::size_t resources() const { return rings_.size(); }
  const std::string& resource_name(std::uint16_t resource) const;

  /// Retained events of one resource, oldest first, as two contiguous
  /// runs: all of `older`, then all of `newer` (empty until the ring
  /// wraps). When the ring wrapped, the earliest `dropped(resource)`
  /// records are gone — the analyzer treats jobs whose Submit fell off as
  /// uncovered. A view into the ring, valid until the trace records again.
  struct Runs {
    std::span<const SchedEvent> older;
    std::span<const SchedEvent> newer;
  };
  Runs runs(std::uint16_t resource) const;

  /// Total records ever offered to / lost from one resource's ring.
  std::uint64_t recorded(std::uint16_t resource) const;
  std::uint64_t dropped(std::uint16_t resource) const;

  std::uint64_t total_recorded() const;
  std::uint64_t total_dropped() const;

  /// Bytes of ring storage allocated so far, across resources.
  std::size_t memory_bytes() const;

 private:
  struct ResourceRing {
    std::string name;
    std::vector<SchedEvent> slots;  // grows on demand up to capacity_
    std::uint64_t pushed = 0;       // total records ever pushed
  };

  SchedTraceConfig cfg_;
  std::size_t capacity_ = 0;  // per-ring, power of two
  std::vector<ResourceRing> rings_;
};

}  // namespace hbosim::des
