#include "hbosim/edgesvc/edge_server.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "hbosim/common/error.hpp"

namespace hbosim::edgesvc {

const char* request_class_name(RequestClass c) {
  switch (c) {
    case RequestClass::Decimation: return "decimation";
    case RequestClass::RemoteBo: return "remote_bo";
    case RequestClass::MeshTransfer: return "mesh_transfer";
    case RequestClass::AiInference: return "ai_inference";
  }
  return "?";
}

const char* queue_policy_name(QueuePolicy p) {
  switch (p) {
    case QueuePolicy::Fifo: return "fifo";
    case QueuePolicy::DeadlinePriority: return "deadline";
    case QueuePolicy::TenantFairShare: return "fair";
  }
  return "?";
}

QueuePolicy queue_policy_from_name(std::string_view name) {
  if (name == "fifo") return QueuePolicy::Fifo;
  if (name == "deadline") return QueuePolicy::DeadlinePriority;
  if (name == "fair") return QueuePolicy::TenantFairShare;
  HB_REQUIRE(false, "unknown queue policy: " + std::string(name) +
                        " (expected fifo | deadline | fair)");
  return QueuePolicy::Fifo;
}

void EdgeServerSpec::validate() const {
  HB_REQUIRE(cores >= 1, "edge server needs at least one core");
}

double EdgeServerSpec::service_seconds(RequestClass cls, double units) const {
  HB_REQUIRE(std::isfinite(units) && units >= 0.0,
             "request units must be finite and >= 0");
  switch (cls) {
    case RequestClass::Decimation: return decimation_ms_per_mtri * 1e-3 * units;
    case RequestClass::RemoteBo: return bo_suggest_ms * 1e-3;
    case RequestClass::MeshTransfer: return mesh_ms_per_mtri * 1e-3 * units;
    case RequestClass::AiInference: return ai_ms_per_unit * 1e-3 * units;
  }
  return 0.0;
}

void BackgroundLoadConfig::validate() const {
  HB_REQUIRE(std::isfinite(per_tenant_rps) && per_tenant_rps >= 0.0,
             "background per_tenant_rps must be finite and >= 0");
  HB_REQUIRE(std::isfinite(mean_units) && mean_units > 0.0,
             "background mean_units must be positive");
}

double EdgeServerStats::rejection_rate() const {
  return arrivals ? static_cast<double>(rejected) /
                        static_cast<double>(arrivals)
                  : 0.0;
}

double EdgeServerStats::mean_wait_s() const {
  return served ? total_wait_s / static_cast<double>(served) : 0.0;
}

double EdgeServerStats::mean_service_s() const {
  return served ? total_service_s / static_cast<double>(served) : 0.0;
}

double EdgeServerStats::queue_depth_p95() const {
  std::uint64_t total = 0;
  for (std::uint64_t c : depth_hist) total += c;
  if (total == 0) return 0.0;
  const double target = 0.95 * static_cast<double>(total);
  std::uint64_t acc = 0;
  for (std::size_t d = 0; d < depth_hist.size(); ++d) {
    acc += depth_hist[d];
    if (static_cast<double>(acc) >= target) return static_cast<double>(d);
  }
  return static_cast<double>(depth_hist.size() - 1);
}

void EdgeServerStats::merge(const EdgeServerStats& other) {
  arrivals += other.arrivals;
  admitted += other.admitted;
  rejected += other.rejected;
  served += other.served;
  shed += other.shed;
  bg_arrivals += other.bg_arrivals;
  total_wait_s += other.total_wait_s;
  total_service_s += other.total_service_s;
  if (depth_hist.size() < other.depth_hist.size())
    depth_hist.resize(other.depth_hist.size(), 0);
  for (std::size_t i = 0; i < other.depth_hist.size(); ++i)
    depth_hist[i] += other.depth_hist[i];
}

EdgeServerSim::EdgeServerSim(EdgeServerSpec spec, BackgroundLoadConfig bg,
                             std::size_t background_tenants,
                             std::uint64_t seed)
    : spec_(spec),
      bg_(bg),
      background_tenants_(background_tenants),
      rng_(seed),
      core_free_(static_cast<std::size_t>(spec.cores), 0.0) {
  spec_.validate();
  bg_.validate();
  HB_REQUIRE(spec_.queue_capacity >= 1,
             "edge server queue_capacity must be >= 1");
  stats_.depth_hist.assign(spec_.queue_capacity + 1, 0);
  schedule_next_background();
}

double EdgeServerSim::draw_exponential(double mean) {
  // Inverse-CDF with the open-interval uniform; 1 - u is never 0.
  return -mean * std::log(1.0 - rng_.uniform());
}

void EdgeServerSim::schedule_next_background() {
  const double rate =
      bg_.per_tenant_rps * static_cast<double>(background_tenants_);
  if (rate <= 0.0) {
    next_bg_ = std::numeric_limits<double>::infinity();
    return;
  }
  next_bg_ = std::max(next_bg_ == std::numeric_limits<double>::infinity()
                          ? 0.0
                          : next_bg_,
                      0.0) +
             draw_exponential(1.0 / rate);
}

std::uint64_t EdgeServerSim::admit(std::uint64_t tenant, double service_s,
                                   double arrival_s, double deadline_s,
                                   bool background) {
  ++stats_.arrivals;
  if (background) ++stats_.bg_arrivals;
  const std::size_t depth = queue_.size();
  ++stats_.depth_hist[std::min(depth, stats_.depth_hist.size() - 1)];
  if (depth >= spec_.queue_capacity) {
    ++stats_.rejected;
    return kNoSeq;
  }
  ++stats_.admitted;
  const std::uint64_t seq = next_seq_++;
  queue_.push_back(Pending{tenant, service_s, arrival_s, deadline_s, seq});
  return seq;
}

std::size_t EdgeServerSim::pick_index(double now) const {
  HB_ASSERT(!queue_.empty(), "pick_index on empty queue");
  std::size_t best = 0;
  for (std::size_t i = 1; i < queue_.size(); ++i) {
    const Pending& a = queue_[i];
    const Pending& b = queue_[best];
    bool better = false;
    switch (spec_.policy) {
      case QueuePolicy::Fifo:
        better = a.seq < b.seq;
        break;
      case QueuePolicy::DeadlinePriority:
        better = a.deadline_s < b.deadline_s ||
                 (a.deadline_s == b.deadline_s && a.seq < b.seq);
        break;
      case QueuePolicy::TenantFairShare: {
        auto served_of = [this](std::uint64_t t) {
          auto it = tenant_served_.find(t);
          return it == tenant_served_.end() ? std::uint64_t{0} : it->second;
        };
        const std::uint64_t sa = served_of(a.tenant);
        const std::uint64_t sb = served_of(b.tenant);
        better = sa < sb || (sa == sb && a.seq < b.seq);
        break;
      }
    }
    if (better) best = i;
  }
  (void)now;
  return best;
}

AdmissionResult EdgeServerSim::run(double horizon, std::uint64_t wait_seq) {
  while (true) {
    // Next decision moment: a background arrival or a core assignment.
    double t_assign = std::numeric_limits<double>::infinity();
    if (!queue_.empty()) {
      const double cf =
          *std::min_element(core_free_.begin(), core_free_.end());
      t_assign = std::max(vnow_, cf);
    }
    const double t_next = std::min(next_bg_, t_assign);
    if (wait_seq == kNoSeq && t_next > horizon) {
      vnow_ = std::max(vnow_, horizon);
      return {};
    }

    if (next_bg_ <= t_assign) {
      vnow_ = next_bg_;
      // Background request: class by mix weight, size exponential,
      // tenant cycled through the background population (ids offset so
      // they can never collide with session tenant ids).
      const double wsum =
          bg_.decimation_weight + bg_.bo_weight + bg_.mesh_weight;
      const double u = rng_.uniform() * wsum;
      const RequestClass cls =
          u < bg_.decimation_weight ? RequestClass::Decimation
          : u < bg_.decimation_weight + bg_.bo_weight
              ? RequestClass::RemoteBo
              : RequestClass::MeshTransfer;
      const double units = draw_exponential(bg_.mean_units);
      const std::uint64_t tenant =
          (1ull << 32) + rng_.uniform_index(std::max<std::uint64_t>(
                             1, background_tenants_));
      admit(tenant, spec_.service_seconds(cls, units), vnow_,
            vnow_ + bg_.deadline_s, /*background=*/true);
      schedule_next_background();
      continue;
    }

    // Core assignment at t_assign.
    vnow_ = t_assign;
    const std::size_t i = pick_index(vnow_);
    const Pending p = queue_[i];
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
    if (spec_.policy == QueuePolicy::DeadlinePriority &&
        p.deadline_s < vnow_) {
      // The issuing client has provably given up; don't burn a core.
      ++stats_.shed;
      if (p.seq == wait_seq) {
        AdmissionResult out;
        out.status = AdmissionStatus::Shed;
        return out;
      }
      continue;
    }
    auto core = std::min_element(core_free_.begin(), core_free_.end());
    const double start = vnow_;
    const double completion = start + p.service_s;
    *core = completion;
    ++stats_.served;
    ++tenant_served_[p.tenant];
    stats_.total_wait_s += start - p.arrival_s;
    stats_.total_service_s += p.service_s;
    if (p.seq == wait_seq) {
      AdmissionResult out;
      out.status = AdmissionStatus::Ok;
      out.wait_s = start - p.arrival_s;
      out.completion_s = completion;
      return out;
    }
  }
}

AdmissionResult EdgeServerSim::submit(const EdgeRequest& req) {
  HB_REQUIRE(std::isfinite(req.arrival_s) && req.arrival_s >= 0.0,
             "edge request arrival must be finite and >= 0");
  HB_REQUIRE(req.deadline_s > req.arrival_s,
             "edge request deadline must be after its arrival");
  // Catch the mirror up to the arrival (admitting background traffic on
  // the way). A previous resolution may already have run ahead; work that
  // virtually started is never rewound.
  run(req.arrival_s, kNoSeq);

  const double arrival = std::max(req.arrival_s, vnow_);
  const std::size_t depth = queue_.size();
  const std::uint64_t seq =
      admit(req.tenant, spec_.service_seconds(req.cls, req.units), arrival,
            req.deadline_s, /*background=*/false);
  if (seq == kNoSeq) {
    AdmissionResult out;
    out.status = AdmissionStatus::Rejected;
    out.depth_at_arrival = depth;
    return out;
  }
  AdmissionResult out = run(0.0, seq);
  out.depth_at_arrival = depth;
  return out;
}

}  // namespace hbosim::edgesvc
