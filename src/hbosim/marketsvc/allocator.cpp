#include "hbosim/marketsvc/allocator.hpp"

#include <algorithm>
#include <cmath>

#include "hbosim/common/error.hpp"
#include "hbosim/telemetry/telemetry.hpp"

namespace hbosim::marketsvc {

JointAllocator::JointAllocator(MarketConfig cfg, double cores,
                               double link_mbit_per_s,
                               double service_s_per_unit)
    : cfg_(cfg), cores_(cores), link_mbit_per_s_(link_mbit_per_s) {
  HB_REQUIRE(cores_ > 0.0, "JointAllocator: cores must be positive");
  HB_REQUIRE(link_mbit_per_s_ > 0.0,
             "JointAllocator: link_mbit_per_s must be positive");
  HB_REQUIRE(service_s_per_unit > 0.0,
             "JointAllocator: service_s_per_unit must be positive");
  initial_.flow = cfg_.initial_flow_activity;
  initial_.rps = cfg_.initial_request_rps;
  initial_.units = cfg_.initial_mean_units;
  initial_.svc = cfg_.initial_mean_units * service_s_per_unit;
  if (cfg_.policy == MarketPolicy::Pricing) {
    price_ = cfg_.initial_price;
  }
}

JointAllocator::Demand JointAllocator::resolve_demand(
    const TenantDemand& d) const {
  Demand base = initial_;
  auto it = learned_.find(d.tenant);
  if (it != learned_.end()) {
    base = it->second;
  }
  if (d.flow_activity > 0.0) base.flow = d.flow_activity;
  if (d.request_rps > 0.0) base.rps = d.request_rps;
  if (d.mean_units > 0.0) base.units = d.mean_units;
  return base;
}

std::vector<double> JointAllocator::solve(
    const std::vector<TenantDemand>& demands, const std::vector<double>& a,
    const std::vector<double>& c, std::vector<bool>& admitted) {
  const std::size_t n = demands.size();
  const double x_min = cfg_.min_resolution * cfg_.min_resolution;
  const double a_budget = cfg_.max_link_activity;
  const double c_budget = cfg_.max_compute_utilization * cores_;
  std::vector<double> x(n, x_min);

  switch (cfg_.policy) {
    case MarketPolicy::MaxMin: {
      // One common level: the largest x every tenant can hold under both
      // budgets. sum(a)*x <= A and sum(c)*x <= C are linear in x, so the
      // binding budget gives the level in closed form.
      double a_sum = 0.0;
      double c_sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        a_sum += a[i];
        c_sum += c[i];
      }
      double level = 1.0;
      if (a_sum > 0.0) level = std::min(level, a_budget / a_sum);
      if (c_sum > 0.0) level = std::min(level, c_budget / c_sum);
      level = std::clamp(level, x_min, 1.0);
      std::fill(x.begin(), x.end(), level);
      break;
    }
    case MarketPolicy::ProportionalFair: {
      // Weighted PF on x (log utility): x_i = clamp(t * w_i / d_i) where
      // d_i is the budget-normalized footprint. Every x_i is
      // nondecreasing in the water level t, so both budget LHS are too,
      // and deterministic bisection on t finds the largest feasible
      // level. With symmetric tenants every d_i is equal, so x_i is
      // common and a binding link budget splits exactly evenly — the
      // closed form the CI gate checks.
      std::vector<double> d(n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        d[i] = a[i] / a_budget + c[i] / c_budget;
        HB_ASSERT(d[i] > 0.0, "PF footprint must be positive");
      }
      auto fill = [&](double t) {
        for (std::size_t i = 0; i < n; ++i) {
          x[i] = std::clamp(t * demands[i].weight / d[i], x_min, 1.0);
        }
      };
      auto feasible = [&]() {
        double a_sum = 0.0;
        double c_sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          a_sum += a[i] * x[i];
          c_sum += c[i] * x[i];
        }
        return a_sum <= a_budget && c_sum <= c_budget;
      };
      double hi = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        hi = std::max(hi, d[i] / std::max(demands[i].weight, 1e-12));
      }
      fill(hi);
      if (!feasible()) {
        double lo = 0.0;
        for (int it = 0; it < 64; ++it) {
          const double mid = 0.5 * (lo + hi);
          fill(mid);
          if (feasible()) {
            lo = mid;
          } else {
            hi = mid;
          }
        }
        fill(lo);
      }
      break;
    }
    case MarketPolicy::Pricing: {
      // Posted-price round: each tenant buys the level its budget
      // affords at the current price over its normalized footprint;
      // tenants that cannot afford even the resolution floor are denied
      // into the best-effort class. The price itself moves between
      // ticks (tatonnement, in tick()).
      for (std::size_t i = 0; i < n; ++i) {
        const double d = a[i] / a_budget + c[i] / c_budget;
        HB_ASSERT(d > 0.0, "pricing footprint must be positive");
        const double budget = cfg_.tenant_budget * demands[i].weight;
        const double affordable = budget / (price_ * d);
        if (affordable < x_min) {
          admitted[i] = false;
          x[i] = x_min;  // scavenger class; excluded from the budgets
        } else {
          x[i] = std::min(affordable, 1.0);
        }
      }
      break;
    }
  }
  return x;
}

std::vector<TenantAllocation> JointAllocator::tick(
    const std::vector<TenantDemand>& demands) {
  HB_TRACE_SCOPE("market", "market.tick");
  const std::size_t n = demands.size();
  HB_REQUIRE(n > 0, "JointAllocator::tick needs at least one tenant");

  // Footprints at the r = 1 reference: a_i = link-flow duty cycle,
  // c_i = service core-seconds per second.
  std::vector<Demand> dem(n);
  std::vector<double> a(n, 0.0);
  std::vector<double> c(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    dem[i] = resolve_demand(demands[i]);
    a[i] = dem[i].flow;
    c[i] = dem[i].rps * dem[i].svc;
  }

  std::vector<bool> admitted(n, true);
  const std::vector<double> x = solve(demands, a, c, admitted);

  // Decided aggregate load of the admitted tenants; each tenant's mirror
  // background is the total minus its own contribution.
  double a_total = 0.0;
  double rps_total = 0.0;
  double units_rate_total = 0.0;  // rate-weighted request size
  double c_total = 0.0;
  double res_sum = 0.0;
  std::size_t denied = 0;
  for (std::size_t i = 0; i < n; ++i) {
    res_sum += std::sqrt(x[i]);
    if (!admitted[i]) {
      ++denied;
      continue;
    }
    a_total += a[i] * x[i];
    rps_total += dem[i].rps;
    units_rate_total += dem[i].rps * dem[i].units * x[i];
    c_total += c[i] * x[i];
  }

  std::vector<TenantAllocation> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    TenantAllocation& alloc = out[i];
    alloc.tenant = demands[i].tenant;
    alloc.admitted = admitted[i];
    alloc.resolution = std::sqrt(x[i]);
    alloc.price = (cfg_.policy == MarketPolicy::Pricing) ? price_ : 0.0;
    if (!admitted[i]) {
      alloc.bandwidth_frac = cfg_.denied_bandwidth_frac;
      alloc.compute_frac = 0.0;
      alloc.bg_flows = 0.0;
      alloc.bg_rps = 0.0;
      alloc.bg_mean_units = 0.0;
      continue;
    }
    alloc.bg_flows = std::max(0.0, a_total - a[i] * x[i]);
    alloc.bg_rps = std::max(0.0, rps_total - dem[i].rps);
    const double units_rate_others =
        std::max(0.0, units_rate_total - dem[i].rps * dem[i].units * x[i]);
    alloc.bg_mean_units =
        (alloc.bg_rps > 0.0) ? units_rate_others / alloc.bg_rps : 0.0;
    alloc.bandwidth_frac = 1.0 / (1.0 + alloc.bg_flows);
    alloc.compute_frac = c[i] * x[i] / cores_;
  }

  last_.tenants = n;
  last_.denied = denied;
  last_.link_activity = a_total;
  last_.compute_utilization = c_total / cores_;
  last_.mean_resolution = res_sum / static_cast<double>(n);

  if (cfg_.policy == MarketPolicy::Pricing) {
    // Tatonnement: raise the price while decided demand overshoots the
    // tighter budget, decay it while the system runs slack so denied
    // tenants get re-admitted when load recedes.
    const double load =
        std::max(a_total / cfg_.max_link_activity,
                 c_total / (cfg_.max_compute_utilization * cores_));
    const double step = std::clamp(cfg_.price_step * (load - 1.0),
                                   -cfg_.max_price_step, cfg_.max_price_step);
    price_ = std::max(cfg_.min_price, price_ * (1.0 + step));
  }
  last_.price = price_;
  ++ticks_;
  HB_TELEM_COUNT("market.ticks", 1.0);
  HB_TELEM_COUNT("market.denied", static_cast<double>(denied));
  return out;
}

void JointAllocator::observe(std::uint64_t tenant, const MeasuredUsage& usage,
                             double resolution) {
  HB_REQUIRE(resolution > 0.0 && resolution <= 1.0,
             "JointAllocator::observe: resolution must be in (0, 1]");
  if (usage.duration_s <= 0.0 || usage.requests == 0) {
    return;  // nothing measurable this epoch; keep the current estimate
  }
  // Rescale measurements to the r = 1 reference: payload, request size
  // and service cost all scale with r^2 (resolution area), the request
  // rate does not (it is driven by the app's redraw schedule).
  const double x = resolution * resolution;
  const double reqs = static_cast<double>(usage.requests);
  Demand meas;
  meas.flow = (static_cast<double>(usage.payload_bytes) * 8.0 / 1e6) /
              link_mbit_per_s_ / usage.duration_s / x;
  meas.rps = reqs / usage.duration_s;
  meas.units = usage.units / reqs / x;
  meas.svc = usage.service_s / reqs / x;

  auto [it, inserted] = learned_.try_emplace(tenant, initial_);
  Demand& est = it->second;
  const double k = cfg_.demand_smoothing;
  est.flow += k * (meas.flow - est.flow);
  est.rps += k * (meas.rps - est.rps);
  est.units += k * (meas.units - est.units);
  est.svc += k * (meas.svc - est.svc);
}

}  // namespace hbosim::marketsvc
