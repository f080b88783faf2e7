#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hbosim/des/sched_trace.hpp"
#include "hbosim/des/simulator.hpp"

/// \file ps_resource.hpp
/// Generalized processor-sharing compute resource.
///
/// A PsResource models one compute unit of a mobile SoC (CPU cluster, GPU,
/// NPU) as a processor-sharing server: the `capacity` (e.g., number of CPU
/// cores, or 1.0 for an accelerator) is divided among the active jobs, with
/// each job's instantaneous rate additionally capped at
/// `max_rate_per_job` (a single inference cannot use more than one CPU
/// core). A *background utilization* models the AR render pipeline: a
/// fraction of capacity continuously consumed by drawing virtual objects,
/// unavailable to AI jobs. This single mechanism reproduces the paper's
/// motivation observations (Fig. 2): crowding a delegate inflates every
/// task's latency, and raising triangle count starves GPU-resident phases.
///
/// Job demands are expressed in seconds-at-rate-1 (i.e., the time the work
/// takes alone on one unit of this resource).

namespace hbosim::des {

class PsResource {
 public:
  using Completion = std::function<void()>;

  PsResource(Simulator& sim, std::string name, double capacity,
             double max_rate_per_job = 1.0);

  PsResource(const PsResource&) = delete;
  PsResource& operator=(const PsResource&) = delete;

  const std::string& name() const { return name_; }
  double capacity() const { return capacity_; }
  double max_rate_per_job() const { return max_rate_per_job_; }

  /// Rescale total capacity mid-service (DVFS: the governor stepped this
  /// unit's clock). Accrued progress is settled at the old rate first and
  /// the pending completion event is re-derived from the new per-job rate,
  /// so every in-flight job's remaining *virtual work* (seconds-at-rate-1)
  /// is preserved exactly — only its wall-clock completion time moves.
  /// A call with the current capacity is a strict no-op (no event churn),
  /// which keeps never-throttled runs bit-identical to runs without a
  /// governor attached.
  void set_capacity(double capacity);

  /// Rescale the per-job rate cap alongside capacity. Needed on multi-core
  /// clusters: halving a 6-core cluster's clock must also halve what a
  /// single-threaded job can extract, which `set_capacity` alone would not
  /// model (the min() would still allow rate 1). Same settlement and
  /// no-op semantics as set_capacity.
  void set_max_rate_per_job(double max_rate);

  /// work_done() projected to sim.now(): the settled counter plus the
  /// progress in-flight jobs have accrued since the last internal update.
  /// A pure read — it must NOT settle state, because splitting the
  /// `elapsed * rate` products into different chunk boundaries changes
  /// their last floating-point bits, and a 1e-16 s shift in one completion
  /// time diverges a chaotic DES trajectory. The power model samples
  /// per-tick utilization through this so that an attached-but-idle
  /// governor leaves the simulation bitwise untouched.
  double settled_work_done() const;

  /// Submit a job requiring `demand` seconds of rate-1 service while
  /// holding `cores` units of this resource (a multi-threaded CPU
  /// inference holds several cores; accelerator kernels hold 1). When the
  /// sum of requested cores exceeds the available capacity every job
  /// slows down by the same factor. `done` is invoked (once) when the job
  /// completes; it may submit to this resource but must not destroy it.
  /// Returns the job's id, which its sched records carry.
  ///
  /// `cls` optionally tags the job with a class for scheduler forensics
  /// (the AI engine passes its interned "model@delegate" span name). The
  /// pointer is stored as-is — it must outlive the job — and is only ever
  /// read by an attached SchedSink; it has no effect on scheduling.
  JobId submit(double demand, double cores, Completion done,
               const char* cls = nullptr);
  JobId submit(double demand, Completion done, const char* cls = nullptr);

  /// Set the fraction of capacity consumed by background (render) work,
  /// in [0, 1], clamped to kMaxBackground. Takes effect immediately for
  /// running jobs.
  void set_background_utilization(double u);
  double background_utilization() const { return background_; }

  /// Background utilization is clamped to this value so AI jobs can never
  /// be starved to a full stop (the OS scheduler always lets GPU compute
  /// kernels through eventually).
  static constexpr double kMaxBackground = 0.95;

  std::size_t active_jobs() const { return jobs_.size(); }

  /// Instantaneous service rate a single additional 1-core job would get.
  double current_rate_per_job(std::size_t extra_jobs = 1) const;

  /// Sum of cores requested by active jobs.
  double requested_cores() const { return requested_cores_; }

  /// Total rate-1 seconds of work completed so far (for utilization stats).
  double work_done() const { return work_done_; }

  /// Depth/core telemetry counters sample 1 in `every` changes (default
  /// 16; see trace_depth()). 1 records every change — exact counters,
  /// what sched forensics wants when lining the depth series up against
  /// the lifecycle event stream. Telemetry-only: never affects scheduling.
  void set_trace_decimation(std::uint32_t every);
  std::uint32_t trace_decimation() const { return trace_decimation_; }

 private:
  struct Job {
    JobId id;
    double remaining;  // seconds of rate-1 service left
    double cores;      // capacity units held while running
    const char* cls;   // forensics class tag (may be null)
    Completion done;
  };
  struct Finished {
    JobId id;
    const char* cls;
    Completion done;
  };

  /// Advance all job progress to sim.now() at the current rate.
  void advance_progress();
  /// Recompute per-job rate and (re)schedule the next completion event.
  void reschedule();
  /// Fires when the earliest job is predicted to finish.
  void on_completion_event();
  double shared_rate(double total_cores) const;

  /// Sample active-job count and requested cores onto the telemetry trace
  /// (no-op without an active session).
  void trace_depth() const;

  /// The Simulator's attached SchedSink, or null. Registers this
  /// resource's stream on first sight of a given sink.
  SchedSink* sched() const;
  /// Record one lifecycle event (call only with sched() != null).
  void sched_record(SchedSink& sink, SchedEventKind kind, JobId job,
                    const char* cls, double demand, double cores,
                    double solo_rate) const;

  Simulator& sim_;
  std::string name_;
  const char* traced_jobs_name_;   ///< Interned "<name>.active_jobs".
  const char* traced_cores_name_;  ///< Interned "<name>.requested_cores".
  mutable std::uint32_t trace_decimator_ = 0;
  std::uint32_t trace_decimation_ = 16;
  mutable SchedSink* sched_trace_ = nullptr;    ///< Last sink registered with.
  mutable std::uint16_t sched_resource_ = 0;    ///< Our stream id in it.
  double capacity_;
  double max_rate_per_job_;
  double background_ = 0.0;

  /// Live jobs in ascending id (= submission) order. Every walk visits
  /// them in that order, which keeps the floating-point sums
  /// deterministic. Fleet sessions hold under one live job per unit on
  /// average and six at most, so a flat vector beats any tree or heap.
  std::vector<Job> jobs_;
  /// Completion buffer reused across events (see on_completion_event).
  std::vector<Finished> finished_;
  double requested_cores_ = 0.0;
  JobId next_job_id_ = 1;
  SimTime last_update_ = 0.0;
  double current_rate_ = 0.0;  // per-job rate since last_update_
  EventId pending_event_ = 0;
  double work_done_ = 0.0;
};

}  // namespace hbosim::des
