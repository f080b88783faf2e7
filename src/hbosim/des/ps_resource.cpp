#include "hbosim/des/ps_resource.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "hbosim/common/error.hpp"
#include "hbosim/telemetry/telemetry.hpp"

namespace hbosim::des {

namespace {
/// Work below this threshold (seconds of service) counts as finished; it
/// absorbs floating-point residue from repeated progress updates.
constexpr double kEpsilon = 1e-12;
}  // namespace

PsResource::PsResource(Simulator& sim, std::string name, double capacity,
                       double max_rate_per_job)
    : sim_(sim),
      name_(std::move(name)),
      traced_jobs_name_(telemetry::intern(name_ + ".active_jobs")),
      traced_cores_name_(telemetry::intern(name_ + ".requested_cores")),
      capacity_(capacity),
      max_rate_per_job_(max_rate_per_job) {
  HB_REQUIRE(capacity_ > 0.0, "PsResource capacity must be positive");
  HB_REQUIRE(max_rate_per_job_ > 0.0, "max_rate_per_job must be positive");
}

void PsResource::trace_depth() const {
  // Sample 1 in `trace_decimation_` depth changes (default 16): per-change
  // emission floods the ring on inference-heavy runs without adding
  // information to the depth series. Decimation 1 records every change —
  // exact counters for scheduler forensics.
  if (trace_decimation_ > 1 && (++trace_decimator_ % trace_decimation_) != 0)
    return;
  telemetry::counter("ps", traced_jobs_name_,
                     static_cast<double>(jobs_.size()));
  telemetry::counter("ps", traced_cores_name_, requested_cores_);
}

void PsResource::set_trace_decimation(std::uint32_t every) {
  HB_REQUIRE(every >= 1, "trace decimation must be >= 1");
  trace_decimation_ = every;
}

SchedSink* PsResource::sched() const {
  SchedSink* sink = sim_.sched_trace();
  if (sink == nullptr) return nullptr;
  if (sink != sched_trace_) {
    // First event under this sink: register our per-resource stream.
    sched_trace_ = sink;
    sched_resource_ = sink->register_resource(name_);
  }
  return sink;
}

void PsResource::sched_record(SchedSink& sink, SchedEventKind kind,
                              JobId job, const char* cls, double demand,
                              double cores, double solo_rate) const {
  SchedEvent ev;
  ev.time = sim_.now();
  ev.kind = kind;
  ev.resource = sched_resource_;
  ev.job = job;
  ev.cls = cls;
  ev.demand = demand;
  ev.cores = cores;
  // The per-job rate now in effect — callers record *after* reschedule(),
  // which is what makes the stream exactly replayable (sched_trace.hpp).
  ev.share = current_rate_;
  ev.solo_rate = solo_rate;
  ev.active_jobs = static_cast<std::uint32_t>(jobs_.size());
  sink.record(ev);
}

double PsResource::shared_rate(double total_cores) const {
  if (total_cores <= 0.0) return 0.0;
  const double available = capacity_ * (1.0 - background_);
  return std::min(max_rate_per_job_, available / total_cores);
}

double PsResource::current_rate_per_job(std::size_t extra_jobs) const {
  return shared_rate(requested_cores_ + static_cast<double>(extra_jobs));
}

void PsResource::advance_progress() {
  const SimTime now = sim_.now();
  const double elapsed = now - last_update_;
  if (elapsed > 0.0 && current_rate_ > 0.0) {
    const double progress = elapsed * current_rate_;
    for (Job& job : jobs_) {
      const double used = std::min(progress, job.remaining);
      job.remaining -= used;
      work_done_ += used;
    }
  }
  last_update_ = now;
}

void PsResource::reschedule() {
  if (pending_event_ != 0) {
    sim_.cancel(pending_event_);
    pending_event_ = 0;
  }
  current_rate_ = shared_rate(requested_cores_);
  if (jobs_.empty() || current_rate_ <= 0.0) return;

  double min_remaining = std::numeric_limits<double>::infinity();
  for (const Job& job : jobs_)
    min_remaining = std::min(min_remaining, job.remaining);
  const double eta = std::max(min_remaining, 0.0) / current_rate_;
  pending_event_ =
      sim_.schedule_after(eta, [this] { on_completion_event(); });
}

void PsResource::on_completion_event() {
  pending_event_ = 0;
  advance_progress();

  // Collect everything that is done before invoking callbacks: a callback
  // may submit new work to this same resource (pipelined phases), so the
  // internal state must be consistent first. The reused buffer is moved
  // out for the duration, so a callback that re-enters cannot clobber it.
  std::vector<Finished> finished = std::move(finished_);
  const SimTime now = sim_.now();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    Job& job = jobs_[i];
    // Done when the residue is below the epsilon, or when it is too small
    // to move the clock: once half an ulp of `now` exceeds the epsilon
    // (past 2^14 s at rate <= 1) a re-derived ETA would land on `now`
    // again and the job would never finish.
    if (job.remaining <= kEpsilon ||
        now + job.remaining / current_rate_ == now) {
      finished.push_back(Finished{job.id, job.cls, std::move(job.done)});
      requested_cores_ -= job.cores;
    } else {
      if (kept != i) jobs_[kept] = std::move(job);
      ++kept;
    }
  }
  jobs_.erase(jobs_.begin() + static_cast<std::ptrdiff_t>(kept), jobs_.end());
  if (jobs_.empty()) requested_cores_ = 0.0;  // absorb fp residue
  reschedule();
  if (SchedSink* sink = sched()) {
    // Record completions before the callbacks run: a callback's re-submit
    // lands after them in the stream, matching simulated causality.
    for (const Finished& f : finished)
      sched_record(*sink, SchedEventKind::Complete, f.id, f.cls, 0.0, 0.0,
                   0.0);
  }
  if (telemetry::enabled() && !finished.empty()) trace_depth();
  for (Finished& f : finished) {
    if (f.done) f.done();
  }
  finished.clear();
  finished_ = std::move(finished);
}

JobId PsResource::submit(double demand, double cores, Completion done,
                         const char* cls) {
  HB_REQUIRE(demand >= 0.0, "job demand must be non-negative");
  HB_REQUIRE(cores > 0.0, "job must request positive cores");
  advance_progress();
  const JobId id = next_job_id_++;
  const double effective = std::max(demand, kEpsilon);
  jobs_.push_back(Job{id, effective, cores, cls, std::move(done)});
  requested_cores_ += cores;
  reschedule();
  if (SchedSink* sink = sched()) {
    // Admission doubles as start-of-service under processor sharing.
    // solo_rate: what this job would get on the otherwise-empty resource
    // (its contention-free ideal), at the background level it saw.
    sched_record(*sink, SchedEventKind::Submit, id, cls, effective, cores,
                 shared_rate(cores));
  }
  if (telemetry::enabled()) {
    HB_TELEM_COUNT("ps.jobs_submitted", 1.0);
    trace_depth();
  }
  return id;
}

JobId PsResource::submit(double demand, Completion done, const char* cls) {
  return submit(demand, 1.0, std::move(done), cls);
}

double PsResource::settled_work_done() const {
  const double elapsed = sim_.now() - last_update_;
  double extra = 0.0;
  if (elapsed > 0.0 && current_rate_ > 0.0) {
    const double progress = elapsed * current_rate_;
    for (const Job& job : jobs_) extra += std::min(progress, job.remaining);
  }
  return work_done_ + extra;
}

void PsResource::set_capacity(double capacity) {
  HB_REQUIRE(capacity > 0.0, "PsResource capacity must be positive");
  if (capacity == capacity_) return;
  advance_progress();
  capacity_ = capacity;
  reschedule();
  if (SchedSink* sink = sched())
    sched_record(*sink, SchedEventKind::Rescale, 0, nullptr, 0.0, 0.0, 0.0);
}

void PsResource::set_max_rate_per_job(double max_rate) {
  HB_REQUIRE(max_rate > 0.0, "max_rate_per_job must be positive");
  if (max_rate == max_rate_per_job_) return;
  advance_progress();
  max_rate_per_job_ = max_rate;
  reschedule();
  if (SchedSink* sink = sched())
    sched_record(*sink, SchedEventKind::Rescale, 0, nullptr, 0.0, 0.0, 0.0);
}

void PsResource::set_background_utilization(double u) {
  HB_REQUIRE(u >= 0.0 && u <= 1.0, "background utilization must be in [0,1]");
  const double clamped = std::min(u, kMaxBackground);
  if (clamped == background_) return;
  advance_progress();
  background_ = clamped;
  reschedule();
  if (SchedSink* sink = sched())
    sched_record(*sink, SchedEventKind::Rescale, 0, nullptr, 0.0, 0.0, 0.0);
}

}  // namespace hbosim::des
