#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hbosim/common/stats.hpp"
#include "hbosim/des/sched_trace.hpp"

/// \file sched_analyzer.hpp
/// Scheduler forensics over the lifecycle event stream.
///
/// SchedAnalyzer replays a recorded SchedTrace exactly (see
/// sched_trace.hpp for why the replay is exact, not sampled) and derives
/// the artifacts a scheduling study needs:
///
///  - per-job records: turnaround, ideal (contention-free) service time,
///    wait = turnaround - ideal, slowdown = turnaround / ideal;
///  - wait and slowdown distributions (p50/p95/p99) per resource and per
///    job class (the AI engine tags jobs "model@delegate");
///  - Jain fairness index over per-class attained service in tumbling
///    sim-time windows, and its floor across the run;
///  - a starvation detector flagging jobs whose wait exceeded k x their
///    class median, with the contending job set at the flagging instant;
///  - Gantt timelines, exported as CSV and as Perfetto async slices on
///    the sim-time pid (via telemetry::sim_span).
///
/// The analyzer runs after the simulation completed and cannot perturb
/// it. SchedMeter runs the same replay step on each record as it happens.
///
/// The replay is one pass over the stream. Each record walks the jobs in
/// service (a handful per unit in a fleet session) and credits their
/// service to dense class ids. Jobs are stored in submission order as
/// they are admitted, so no sort is needed, and starvation contenders come
/// from one sweep over the flagging instants.

namespace hbosim::des {

/// One job's reconstructed lifecycle. Jobs whose Submit record fell off a
/// wrapped ring are not reconstructable and are excluded (counted in
/// SchedHealth::dropped_events via the trace's drop counters).
struct SchedJobRecord {
  std::uint16_t resource = 0;
  JobId job = 0;
  const char* cls = nullptr;  ///< Interned class tag; null -> untagged.
  double submit_s = 0.0;
  double end_s = 0.0;       ///< Completion time, or trace end.
  double demand = 0.0;      ///< Rate-1 seconds requested.
  double cores = 0.0;
  double ideal_s = 0.0;     ///< demand / solo_rate.
  double turnaround_s = 0.0;
  double wait_s = 0.0;      ///< max(0, turnaround - ideal).
  double slowdown = 1.0;    ///< turnaround / ideal.
  bool completed = false;   ///< False: still in service at trace end.
};

/// Wait/slowdown roll-up for one job class on one resource, over its
/// completed jobs (wait.count of them).
struct SchedClassStats {
  std::string cls;
  double attained_service_s = 0.0;
  Summary wait;  ///< Seconds; wait.p50 is the starvation rule's median.
  Summary slowdown;
};

/// The same roll-up over every completed job on one resource.
struct SchedResourceStats {
  std::string resource;
  double service_s = 0.0;  ///< Total rate-1 service delivered.
  Summary wait;
  Summary slowdown;
  std::vector<SchedClassStats> classes;  ///< Sorted by class name.
};

/// Jain fairness of per-class attained service over one tumbling window.
/// J = (sum x)^2 / (n * sum x^2) over classes active in the window:
/// 1.0 when every class got equal service, 1/n when one class got it all.
struct FairnessWindow {
  std::uint16_t resource = 0;
  double begin_s = 0.0;
  double end_s = 0.0;
  double jain = 1.0;
  std::size_t classes = 0;  ///< Classes with service in the window.
};

/// One flagged starving job plus its forensic context.
struct StarvedJob {
  SchedJobRecord job;
  double threshold_s = 0.0;   ///< k x max(class median wait, floor).
  double flagged_at_s = 0.0;  ///< Instant the job's wait crossed it.
  /// Jobs in service on the same resource at flagged_at_s (the
  /// contenders the starving job was losing to), as (id, class tag)
  /// pairs in id order; untagged jobs carry "(untagged)".
  std::vector<std::pair<JobId, const char*>> contenders;
};

/// Compact roll-up of one stream's forensics — what a fleet carries per
/// session into FleetMetrics::SchedHealth.
struct SchedHealth {
  std::size_t jobs = 0;  ///< Completed jobs analyzed across resources.
  std::uint64_t events = 0;          ///< Records the sink received.
  std::uint64_t dropped_events = 0;  ///< Records lost to ring wrap.
  double worst_p99_slowdown = 0.0;   ///< Max p99 slowdown over resources.
  double fairness_floor = 1.0;       ///< Min windowed Jain index.
  std::size_t starved_jobs = 0;
};

struct SchedAnalyzerConfig {
  /// A completed job is starving when wait > k x max(median, floor) for
  /// its class on its resource.
  static constexpr double starvation_k = 4.0;
  /// Floor under the class median (seconds): classes whose median wait is
  /// ~0 (uncontended) would otherwise flag on microscopic jitter.
  static constexpr double min_wait_floor_s = 1e-3;
  /// Tumbling fairness-window width in sim seconds.
  double fairness_window_s = 5.0;
};

class SchedAnalyzer {
 public:
  explicit SchedAnalyzer(const SchedTrace& trace,
                         SchedAnalyzerConfig cfg = {});

  const SchedAnalyzerConfig& config() const { return cfg_; }

  /// All reconstructed jobs, ordered by (resource, submit time, id).
  const std::vector<SchedJobRecord>& jobs() const { return jobs_; }
  const std::vector<SchedResourceStats>& resources() const {
    return resources_;
  }
  const std::vector<FairnessWindow>& fairness_windows() const {
    return windows_;
  }
  const std::vector<StarvedJob>& starved() const { return starved_; }
  const SchedHealth& health() const { return health_; }

  /// Gantt timeline as CSV (RFC-4180 quoting), one row per job.
  void write_gantt_csv(std::ostream& os) const;

  /// Emit every completed job as a sim-time async slice (cat "sched",
  /// name = class tag) on track `track` via telemetry::sim_span — lands
  /// on the same Perfetto sim-time pid as the ai/hbo spans. No-op without
  /// an active TelemetrySession.
  void export_perfetto_gantt(std::uint64_t track) const;

  /// Human-readable forensics report (fleet_demo --sched).
  void print_report(std::ostream& os) const;

 private:
  void replay(const SchedTrace& trace);
  void summarize();
  /// Flag resource `r`'s starving jobs against per-class-id thresholds.
  void detect_starvation(std::size_t r, const std::vector<double>& threshold);

  SchedAnalyzerConfig cfg_;
  std::vector<std::string> resource_names_;
  std::vector<SchedJobRecord> jobs_;
  std::vector<std::uint32_t> job_class_;    ///< Class id of each jobs_ entry.
  std::vector<std::size_t> resource_jobs_;  ///< jobs_ start per resource, + end.
  std::vector<const char*> class_names_;    ///< Class id -> tag.
  std::vector<SchedResourceStats> resources_;
  std::vector<FairnessWindow> windows_;
  std::vector<StarvedJob> starved_;
  SchedHealth health_;
};

/// SchedHealth as the simulation runs: each record goes through the
/// analyzer's replay step as it arrives, and of a completed job only its
/// slowdown and class wait are kept. The health is bitwise the analyzer's
/// over an unwrapped trace, with dropped_events 0. With telemetry on, each
/// completed job is a "sched" sim-time slice on the current track.
class SchedMeter final : public SchedSink {
 public:
  explicit SchedMeter(SchedAnalyzerConfig cfg = {});
  ~SchedMeter() override;
  std::uint16_t register_resource(const std::string& name) override;
  void record(const SchedEvent& ev) override;

  /// Reduce after the last record; jobs still in service are left out.
  SchedHealth finish();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace hbosim::des
