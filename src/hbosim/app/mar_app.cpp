#include "hbosim/app/mar_app.hpp"

#include <algorithm>
#include <cmath>

#include "hbosim/ai/latency_stats.hpp"
#include "hbosim/common/error.hpp"

namespace hbosim::app {

MarApp::MarApp(const soc::DeviceProfile& device, MarAppConfig cfg)
    : cfg_(cfg),
      device_(device),
      soc_(sim_, device_),
      render_binder_(scene_, soc_),
      engine_(sim_, soc_, cfg.engine) {
  if (cfg_.enable_power) {
    power_ = std::make_unique<power::PowerManager>(
        sim_, soc_, power::find_power_model(device_.name()), cfg_.power);
  }
}

ObjectId MarApp::add_object(std::shared_ptr<const render::MeshAsset> asset,
                            double distance_m) {
  return scene_.add_object(std::move(asset), distance_m);
}

void MarApp::set_user_distance_scale(double scale) {
  scene_.set_user_distance_scale(scale);
}

TaskId MarApp::add_task(const std::string& model, const std::string& label,
                        std::optional<soc::Delegate> delegate) {
  for (TaskId id : task_order_) {
    HB_REQUIRE(engine_.task(id).label != label,
               "duplicate task label: " + label);
  }
  const soc::Delegate d = delegate.value_or(device_.best_delegate(model));
  const TaskId id = engine_.add_task(model, label, d);
  task_order_.push_back(id);
  profiles_.reset();  // taskset changed; recompute lazily
  return id;
}

std::vector<std::string> MarApp::task_models() const {
  std::vector<std::string> out;
  out.reserve(task_order_.size());
  for (TaskId id : task_order_) out.push_back(engine_.task(id).model);
  return out;
}

std::vector<std::string> MarApp::task_labels() const {
  std::vector<std::string> out;
  out.reserve(task_order_.size());
  for (TaskId id : task_order_) out.push_back(engine_.task(id).label);
  return out;
}

std::vector<soc::Delegate> MarApp::current_allocation() const {
  std::vector<soc::Delegate> out;
  out.reserve(task_order_.size());
  for (TaskId id : task_order_) out.push_back(engine_.task(id).delegate);
  return out;
}

void MarApp::start() { engine_.start(); }

void MarApp::apply_allocation(const std::vector<soc::Delegate>& delegates) {
  HB_REQUIRE(delegates.size() == task_order_.size(),
             "allocation size must match the taskset");
  for (std::size_t i = 0; i < delegates.size(); ++i)
    engine_.set_delegate(task_order_[i], delegates[i]);
}

void MarApp::apply_offload_shares(const std::vector<double>& shares) {
  HB_REQUIRE(shares.size() == task_order_.size(),
             "offload share vector size must match the taskset");
  double sum = 0.0;
  for (std::size_t i = 0; i < shares.size(); ++i) {
    engine_.set_edge_share(task_order_[i], shares[i]);
    sum += shares[i];
  }
  offload_share_stat_.add(shares.empty()
                              ? 0.0
                              : sum / static_cast<double>(shares.size()));
}

void MarApp::set_remote_executor(ai::InferenceEngine::RemoteExecutor exec) {
  engine_.set_remote_executor(std::move(exec));
}

void MarApp::attach_edge(edgesvc::EdgeClient* client) {
  if (client == nullptr) {
    decimation_.attach_edge(nullptr, {});
    return;
  }
  decimation_.attach_edge(client, [this] { return sim_.now(); });
}

void MarApp::apply_object_ratios(const std::vector<double>& ratios) {
  const std::vector<ObjectId> ids = scene_.object_ids();
  HB_REQUIRE(ratios.size() == ids.size(),
             "ratio vector size must match the scene");
  double max_delay = 0.0;
  std::vector<std::pair<ObjectId, double>> served;
  served.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto& obj = scene_.object(ids[i]);
    const edge::DecimationResult res =
        decimation_.request(obj.asset(), ratios[i]);
    max_delay = std::max(max_delay, res.delay_s);
    // An `unchanged` fallback means the edge path failed with nothing
    // cached: the object keeps its current version, so there is nothing
    // to redraw for it.
    if (!res.unchanged) served.emplace_back(ids[i], res.served_ratio);
  }
  // Versions download in parallel; the redraw happens once the slowest
  // arrives. Ratios are captured by value so later calls cannot clobber
  // this redraw's payload.
  sim_.schedule_after(max_delay, [this, served = std::move(served)] {
    for (const auto& [id, ratio] : served) {
      if (scene_.has_object(id)) scene_.set_ratio(id, ratio);
    }
  });
}

void MarApp::ensure_profiles() {
  if (profiles_) return;
  profiles_ = std::make_unique<ai::ProfileTable>(
      ai::profile_models(device_, task_models()));
}

const ai::ProfileTable& MarApp::profiles() {
  ensure_profiles();
  return *profiles_;
}

double MarApp::expected_ms(TaskId id) {
  ensure_profiles();
  return profiles_->get(engine_.task(id).model).expected_ms;
}

PeriodMetrics MarApp::run_period(double seconds) {
  HB_REQUIRE(seconds > 0.0, "period length must be positive");
  HB_REQUIRE(engine_.started(), "start() the app before measuring");
  ensure_profiles();

  engine_.reset_window();
  const SimTime t0 = sim_.now();
  const double e0 = power_ ? power_->total_energy_j() : 0.0;
  sim_.run_until(t0 + seconds);
  PeriodMetrics m = snapshot();
  m.period_start = t0;
  m.period_end = sim_.now();
  if (power_) m.avg_power_w = (power_->total_energy_j() - e0) / seconds;
  return m;
}

PeriodMetrics MarApp::snapshot() {
  ensure_profiles();
  PeriodMetrics m;
  m.period_start = m.period_end = sim_.now();
  m.average_quality = scene_.average_quality();
  m.triangle_ratio = scene_.current_ratio();
  m.average_quality *= quality_scale_;

  std::vector<ai::LatencySample> samples;
  for (TaskId id : task_order_) {
    const ai::AiTask& task = engine_.task(id);
    const double expected = profiles_->get(task.model).expected_ms;
    // Tasks with no completed inference this window fall back to their
    // last known latency; if none exists yet, to the expectation.
    double measured = to_ms(engine_.window_mean_latency_s(id));
    if (engine_.window_count(id) == 0) {
      const double last = to_ms(engine_.last_latency_s(id));
      measured = last > 0.0 ? last : expected;
    }
    m.task_latency_ms[task.label] = measured;
    m.task_expected_ms[task.label] = expected;
    m.inference_count += engine_.window_count(id);
    samples.push_back(ai::LatencySample{measured, expected});
  }
  m.latency_ratio =
      samples.empty() ? 0.0 : ai::average_latency_ratio(samples);
  if (power_) {
    m.die_temp_c = power_->die_temp_c();
    m.freq_scale = power_->freq_scale();
    m.battery_soc = power_->battery_soc();
  }
  return m;
}

void MarApp::set_quality_scale(double scale) {
  HB_REQUIRE(std::isfinite(scale) && scale > 0.0 && scale <= 1.0,
             "quality scale must be in (0, 1]");
  quality_scale_ = scale;
}

}  // namespace hbosim::app
