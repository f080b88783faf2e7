#include "hbosim/des/sched_trace.hpp"

#include <algorithm>

#include "hbosim/common/error.hpp"

namespace hbosim::des {

namespace {
std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// First allocation of a ring that starts recording.
constexpr std::size_t kFirstSlots = 64;
}  // namespace

SchedTrace::SchedTrace(SchedTraceConfig cfg) : cfg_(cfg) {
  HB_REQUIRE(cfg_.capacity_per_resource >= 1,
             "sched trace ring needs at least one slot");
  capacity_ = round_up_pow2(cfg_.capacity_per_resource);
}

std::uint16_t SchedTrace::register_resource(const std::string& name) {
  HB_REQUIRE(rings_.size() < 0xFFFFu, "too many sched-traced resources");
  ResourceRing ring;
  ring.name = name;
  rings_.push_back(std::move(ring));
  return static_cast<std::uint16_t>(rings_.size() - 1);
}

void SchedTrace::record(const SchedEvent& ev) {
  ResourceRing& ring = rings_.at(ev.resource);
  std::vector<SchedEvent>& slots = ring.slots;
  if (slots.size() < capacity_) {
    // Still filling (so slots.size() == pushed): grow by doubling, never
    // past the ring capacity.
    if (slots.size() == slots.capacity()) {
      slots.reserve(
          std::min(capacity_, std::max(kFirstSlots, 2 * slots.size())));
    }
    slots.push_back(ev);
  } else {
    slots[ring.pushed & (capacity_ - 1)] = ev;
  }
  ++ring.pushed;
}

const std::string& SchedTrace::resource_name(std::uint16_t resource) const {
  return rings_.at(resource).name;
}

SchedTrace::Runs SchedTrace::runs(std::uint16_t resource) const {
  const ResourceRing& ring = rings_.at(resource);
  const std::span<const SchedEvent> slots(ring.slots);
  if (ring.pushed <= capacity_) return {slots, {}};
  // Wrapped: the next write position holds the oldest retained record.
  const auto head = static_cast<std::size_t>(ring.pushed & (capacity_ - 1));
  return {slots.subspan(head), slots.first(head)};
}

std::uint64_t SchedTrace::recorded(std::uint16_t resource) const {
  return rings_.at(resource).pushed;
}

std::uint64_t SchedTrace::dropped(std::uint16_t resource) const {
  const std::uint64_t pushed = rings_.at(resource).pushed;
  return pushed > capacity_ ? pushed - capacity_ : 0;
}

std::uint64_t SchedTrace::total_recorded() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < rings_.size(); ++i) total += rings_[i].pushed;
  return total;
}

std::uint64_t SchedTrace::total_dropped() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < rings_.size(); ++i)
    total += dropped(static_cast<std::uint16_t>(i));
  return total;
}

std::size_t SchedTrace::memory_bytes() const {
  std::size_t bytes = 0;
  for (const ResourceRing& ring : rings_)
    bytes += ring.slots.capacity() * sizeof(SchedEvent);
  return bytes;
}

}  // namespace hbosim::des
