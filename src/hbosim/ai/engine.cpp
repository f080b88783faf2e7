#include "hbosim/ai/engine.hpp"

#include <cmath>

#include "hbosim/ai/registry.hpp"
#include "hbosim/common/error.hpp"
#include "hbosim/telemetry/telemetry.hpp"

namespace hbosim::ai {

namespace {
const char* inference_span_name(const AiTask& task) {
  return telemetry::intern(task.model + "@" +
                           soc::delegate_name(task.delegate));
}
}  // namespace

InferenceEngine::InferenceEngine(des::Simulator& sim, soc::SocRuntime& soc,
                                 EngineConfig cfg)
    : sim_(sim), soc_(soc), cfg_(cfg), rng_(cfg.seed) {
  HB_REQUIRE(cfg_.inference_gap_s >= 0.0, "inference gap must be >= 0");
  HB_REQUIRE(cfg_.latency_noise >= 0.0, "latency noise must be >= 0");
}

double InferenceEngine::next_gap() {
  return cfg_.inference_gap_s * rng_.uniform(1.0 - EngineConfig::gap_jitter,
                                             1.0 + EngineConfig::gap_jitter);
}

TaskId InferenceEngine::add_task(const std::string& model,
                                 const std::string& label,
                                 soc::Delegate delegate) {
  HB_REQUIRE(is_known_model(model), "unknown AI model: " + model);
  HB_REQUIRE(soc_.profile().supports(model, delegate),
             model + " cannot run on " + soc::delegate_name(delegate) +
                 " on " + soc_.profile().name());
  const auto id = static_cast<TaskId>(tasks_.size() + 1);
  TaskState st;
  st.task = AiTask{id, model, label, delegate};
  st.span_name = inference_span_name(st.task);
  tasks_.push_back(std::move(st));
  if (started_) {
    // Join the running system after one gap, as a freshly loaded model.
    sim_.schedule_after(next_gap(), [this, id] { begin_inference(id); });
  }
  return id;
}

void InferenceEngine::set_delegate(TaskId id, soc::Delegate delegate) {
  TaskState& st = state(id);
  HB_REQUIRE(soc_.profile().supports(st.task.model, delegate),
             st.task.model + " cannot run on " + soc::delegate_name(delegate));
  st.task.delegate = delegate;  // picked up when the next plan is built
  st.span_name = inference_span_name(st.task);
  st.plan_stale = true;
}

const AiTask& InferenceEngine::task(TaskId id) const { return state(id).task; }

std::vector<TaskId> InferenceEngine::task_ids() const {
  std::vector<TaskId> out;
  out.reserve(tasks_.size());
  for (const TaskState& st : tasks_) out.push_back(st.task.id);
  return out;
}

void InferenceEngine::start() {
  if (started_) return;
  started_ = true;
  for (const TaskState& st : tasks_) {
    const TaskId id = st.task.id;
    // Random initial phase: real tasks do not begin on the same camera
    // frame, and a synchronized start would take tens of simulated
    // seconds to decay into the steady-state interleaving.
    const double offset = cfg_.inference_gap_s * rng_.uniform();
    sim_.schedule_after(offset, [this, id] { begin_inference(id); });
  }
}

void InferenceEngine::begin_inference(TaskId id) {
  TaskState& st = state(id);
  if (st.plan_stale) {
    st.plan = build_exec_plan(soc_.profile(), st.task.model, st.task.delegate);
    st.plan_stale = false;
  }
  st.phase_index = 0;
  st.inference_start = sim_.now();
  st.remote = false;
  // The demand noise draw happens before remote/local routing so the
  // engine's RNG stream is identical whichever path each inference takes
  // (and identical to a pre-offload build when every share is 0).
  st.noise_factor = cfg_.latency_noise > 0.0
                        ? std::exp(cfg_.latency_noise * rng_.normal())
                        : 1.0;
  if (st.edge_share > 0.0 && remote_) {
    // Deterministic fractional routing: the carry accumulates the share
    // each inference and fires remote on overflow — no RNG, so a share
    // of 0 leaves every draw and event of the local path untouched.
    st.edge_carry += st.edge_share;
    if (st.edge_carry >= 1.0) {
      st.edge_carry -= 1.0;
      const double demand = plan_isolation_seconds(st.plan) * st.noise_factor;
      ++remote_attempts_;
      const RemoteResult res = remote_(st.task, demand);
      if (res.ok) {
        st.remote = true;
        sim_.schedule_after(res.elapsed_s, [this, id] { finish_inference(id); });
        return;
      }
      // Exhausted the edge attempt budget: the timeouts and NACK
      // round-trips still happened, so charge their wall time before
      // falling back to the untouched local plan.
      ++remote_fallbacks_;
      if (res.elapsed_s > 0.0) {
        sim_.schedule_after(res.elapsed_s, [this, id] { run_next_phase(id); });
        return;
      }
    }
  }
  run_next_phase(id);
}

void InferenceEngine::run_next_phase(TaskId id) {
  TaskState& st = state(id);
  if (st.phase_index >= st.plan.size()) {
    finish_inference(id);
    return;
  }
  const Phase& phase = st.plan[st.phase_index];
  if (phase.kind == Phase::Kind::Delay) {
    // Dispatch/communication: a fixed wall delay, not contended.
    sim_.schedule_after(phase.seconds, [this, id] { on_phase_done(id); });
  } else {
    soc_.unit(phase.unit).submit(
        phase.seconds * st.noise_factor, phase.cores,
        [this, id] { on_phase_done(id); },
        st.span_name);  // job class for sched forensics: "model@delegate"
  }
}

void InferenceEngine::on_phase_done(TaskId id) {
  ++state(id).phase_index;
  run_next_phase(id);
}

void InferenceEngine::finish_inference(TaskId id) {
  TaskState& st = state(id);
  const double latency = sim_.now() - st.inference_start;
  st.last_latency = latency;
  st.window.add(latency);
  ++completed_inferences_;
  if (st.remote) ++remote_inferences_;
  if (telemetry::enabled()) {
    // Sim-time span on the session's async track: the inference as the
    // simulated pipeline saw it, resource contention included.
    telemetry::sim_span("ai", st.span_name, st.inference_start, sim_.now());
    HB_TELEM_HIST_US("ai.inference_us", latency * 1e6);
    HB_TELEM_COUNT("ai.inferences", 1.0);
  }
  if (observer_) observer_(st.task, latency);
  sim_.schedule_after(next_gap(), [this, id] { begin_inference(id); });
}

void InferenceEngine::set_edge_share(TaskId id, double share) {
  HB_REQUIRE(std::isfinite(share) && share >= 0.0 && share <= 1.0,
             "edge share must be in [0, 1]");
  // The carry is deliberately left alone: reconfiguration mid-session
  // keeps the routing pattern a pure function of the share history, and
  // setting a share back to 0 freezes the carry below 1 forever.
  state(id).edge_share = share;
}

void InferenceEngine::reset_window() {
  for (TaskState& st : tasks_) st.window.reset();
}

double InferenceEngine::window_mean_latency_s(TaskId id) const {
  return state(id).window.mean();
}

std::size_t InferenceEngine::window_count(TaskId id) const {
  return state(id).window.count();
}

double InferenceEngine::last_latency_s(TaskId id) const {
  return state(id).last_latency;
}

InferenceEngine::TaskState& InferenceEngine::state(TaskId id) {
  HB_REQUIRE(id >= 1 && id <= tasks_.size(), "unknown task id");
  return tasks_[id - 1];
}

const InferenceEngine::TaskState& InferenceEngine::state(TaskId id) const {
  HB_REQUIRE(id >= 1 && id <= tasks_.size(), "unknown task id");
  return tasks_[id - 1];
}

}  // namespace hbosim::ai
