#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "hbosim/common/stats.hpp"
#include "hbosim/common/types.hpp"

/// \file metrics.hpp
/// Per-control-period measurements the evaluation components consume
/// (Fig. 3's "AI Latency Monitor" + "Quality Estimator" outputs), and the
/// fold of a session's periods that both session loops share.

namespace hbosim::app {

/// Everything measured over one control period.
struct PeriodMetrics {
  SimTime period_start = 0.0;
  SimTime period_end = 0.0;

  /// Average virtual-object quality Q_t (Eq. 2) at period end.
  double average_quality = 1.0;

  /// Average normalized AI latency epsilon_t (Eq. 4).
  double latency_ratio = 0.0;

  /// Mean measured latency (ms) per task label.
  std::map<std::string, double> task_latency_ms;

  /// Isolation expectation tau^e (ms) per task label.
  std::map<std::string, double> task_expected_ms;

  /// Inference completions observed in the window (across all tasks).
  std::size_t inference_count = 0;

  /// Total triangle ratio on screen when measured.
  double triangle_ratio = 1.0;

  // --- power/thermal (populated only when the app runs with power
  // simulation enabled; defaults are the "cool, full clocks, full
  // battery" state so power-agnostic consumers see neutral values) ------
  /// Mean battery draw over the period (W); 0 without a power model.
  double avg_power_w = 0.0;
  /// Die temperature at period end (C); 0 without a power model.
  double die_temp_c = 0.0;
  /// DVFS frequency scale at period end (1.0 = nominal clocks).
  double freq_scale = 1.0;
  /// Battery state of charge at period end, in [0, 1].
  double battery_soc = 1.0;

  /// Reward of Eq. 3 for a given latency/quality weight.
  double reward(double w) const { return average_quality - w * latency_ratio; }

  /// Mean measured latency across tasks (ms), for figure dumps.
  double mean_task_latency_ms() const;
};

/// Every period a session observed, folded as it is measured: streaming
/// statistics of Q_t, epsilon_t and B_t = Q_t - w*epsilon_t (the
/// per-session aggregates fleets roll up without retaining traces) and
/// the (t, B_t) trace. core::MonitoredSession and policy::BanditSession
/// each hold one.
struct SessionStats {
  RunningStat quality;
  RunningStat latency_ratio;
  RunningStat reward;
  std::vector<std::pair<SimTime, double>> reward_trace;

  /// Fold period `m`, which ended at `now`, with latency weight `w`.
  void add(const PeriodMetrics& m, double w, SimTime now);
};

}  // namespace hbosim::app
