#include "hbosim/des/simulator.hpp"

#include <algorithm>

#include "hbosim/common/error.hpp"
#include "hbosim/telemetry/telemetry.hpp"

namespace hbosim::des {

EventId Simulator::schedule_at(SimTime at, Handler fn) {
  HB_REQUIRE(at >= now_, "cannot schedule an event in the past");
  HB_REQUIRE(fn != nullptr, "event handler must be callable");
  auto slot = static_cast<std::uint32_t>(slots_.size());
  if (free_slots_.empty()) {
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  heap_.push_back(Entry{at, next_seq_++, slot, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return (static_cast<EventId>(s.gen) << 32) | slot;
}

EventId Simulator::schedule_after(SimDuration delay, Handler fn) {
  HB_REQUIRE(delay >= 0.0, "cannot schedule with negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

void Simulator::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  if (++s.gen == 0) s.gen = 1;  // on wrap-around, keep ids non-zero
  free_slots_.push_back(slot);
}

bool Simulator::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (s.gen != static_cast<std::uint32_t>(id >> 32) || !s.fn) return false;
  // The heap entry stays where it is: its generation no longer matches
  // the slot's, so it is dropped when it reaches the top. The handler's
  // captures are destroyed on return, once the queue is consistent.
  const Handler cancelled = std::move(s.fn);
  release(slot);
  return true;
}

void Simulator::peel_stale() {
  while (!heap_.empty() &&
         heap_.front().gen != slots_[heap_.front().slot].gen) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

bool Simulator::step() {
  peel_stale();
  if (heap_.empty()) return false;
  const Entry ev = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  // Take the handler out and free its slot before running it: the handler
  // may schedule events (reusing the slot or growing the slot array), and
  // cancelling its own id from inside must find it already fired.
  const Handler fn = std::move(slots_[ev.slot].fn);
  release(ev.slot);
  now_ = ev.time;
  ++executed_;
  // Dispatch telemetry every 1024 events: the executed-events counter is
  // flushed in batches (a per-step registry add would tax multi-million-
  // event fleet runs) and the queue depth is sampled at the same cadence.
  // The steady-state cost is one relaxed load and a predictable branch.
  if ((executed_ & 0x3FFu) == 0 && telemetry::enabled()) {
    HB_TELEM_COUNT("des.events_executed", 1024.0);
    HB_TRACE_COUNTER("des", "des.queue_depth", static_cast<double>(pending()));
  }
  fn();
  return true;
}

void Simulator::run_until(SimTime t) {
  HB_REQUIRE(t >= now_, "run_until target is in the past");
  for (;;) {
    peel_stale();
    if (heap_.empty() || heap_.front().time > t) break;
    step();
  }
  now_ = t;
}

void Simulator::run(std::uint64_t max_events) {
  for (std::uint64_t i = 0; i < max_events; ++i) {
    if (!step()) return;
  }
}

}  // namespace hbosim::des
