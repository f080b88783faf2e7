#pragma once

#include "hbosim/app/metrics.hpp"

/// \file cost.hpp
/// Eq. 3 and Eq. 5: the reward B_t = Q_t - w * epsilon_t that HBO
/// maximizes, and the cost phi = -B_t that the Bayesian optimizer
/// minimizes. Optional terms extend the cost to
///
///   phi = -(Q - w*eps) + w_energy * P_avg + market_price * x,
///
/// letting energy-aware runs trade quality/latency against battery draw
/// and market runs charge a configuration's shared-resource appetite.
///
/// All extensions compose through one CostTerms bundle. The terms add in
/// a fixed order, and a zero weight adds 0 * x, a signed zero, which
/// leaves a sum over finite metrics equal to the base cost (a -0 base may
/// come back as +0): default configurations compute the paper's plain
/// cost.

namespace hbosim::core {

/// Eq. 3.
double reward(double average_quality, double latency_ratio, double w);

/// Eq. 5 (phi = -B).
double cost(double average_quality, double latency_ratio, double w);

/// The weighted terms of the extended cost. New terms join here, and
/// every term after `w` defaults to a zero weight.
struct CostTerms {
  /// Latency/quality weight of Eq. 3.
  double w = 2.5;
  /// Battery-draw weight (per watt of mean period power); pulls the
  /// energy-aware joint cost from hbosim::power via m.avg_power_w.
  double w_energy = 0.0;
  /// Posted congestion price of the tenant's edge market (marketsvc);
  /// charges the configuration's triangle budget.
  double market_price = 0.0;
};

/// The cost of a measured period under `terms`: Eq. 5, plus
/// w_energy * m.avg_power_w, plus market_price * m.triangle_ratio (the
/// posted congestion price charges the configuration's resource
/// appetite, steering HBO toward leaner configs while the shared box is
/// expensive). A term with zero weight leaves the cost of finite metrics
/// unchanged.
double cost_of(const hbosim::app::PeriodMetrics& m, const CostTerms& terms);

}  // namespace hbosim::core
