#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "hbosim/common/types.hpp"

/// \file simulator.hpp
/// The discrete-event simulation core. A Simulator owns a virtual clock and
/// a time-ordered event queue; everything in hbosim (AI inference phases,
/// render frames, HBO control periods, network delays) executes as events on
/// one Simulator, so the entire system is deterministic and runs far faster
/// than real time.
///
/// The queue is a binary heap of plain (time, seq, slot, gen) entries over
/// a free-listed slot array that holds the handlers. Both vectors grow to
/// the session's high-water mark and are then reused, so once warm,
/// scheduling, firing or cancelling an event allocates and hashes nothing
/// — provided the handler's captures fit std::function's inline buffer
/// (16 bytes in libstdc++).

namespace hbosim::des {

/// Handle of a scheduled event, usable to cancel it: the slot holding its
/// handler plus that slot's generation. Never 0, so callers may use 0 as
/// "no event".
using EventId = std::uint64_t;

class SchedSink;

class Simulator {
 public:
  using Handler = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time (seconds).
  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `at` (>= now). Ties execute in
  /// scheduling order (stable FIFO within a timestamp).
  EventId schedule_at(SimTime at, Handler fn);

  /// Schedule `fn` after `delay` seconds (>= 0).
  EventId schedule_after(SimDuration delay, Handler fn);

  /// Cancel a pending event. Returns false (no-op) if the event already
  /// fired (an event cancelling itself from its own handler included), was
  /// already cancelled, or never existed.
  bool cancel(EventId id);

  /// Execute the next pending event; returns false if the queue is empty.
  bool step();

  /// Run until the clock reaches `t` (events at exactly `t` included);
  /// the clock is advanced to `t` even if the queue drains first.
  void run_until(SimTime t);

  /// Run until no events remain or `max_events` have fired.
  void run(std::uint64_t max_events = UINT64_MAX);

  /// Number of events executed so far (for tests / micro-benches).
  std::uint64_t events_executed() const { return executed_; }

  /// Pending (non-cancelled) event count: the occupied slots.
  std::size_t pending() const { return slots_.size() - free_slots_.size(); }

  /// Attach (or detach, with nullptr) a scheduler lifecycle sink, a
  /// SchedMeter or a SchedTrace. The Simulator does not own it; resources
  /// reach it through sched_trace() and report their job transitions to it
  /// (see sched_trace.hpp). Recording is observational only — attaching a
  /// sink changes no simulated result — and off-mode costs one null-pointer
  /// branch per transition. The sink must outlive the simulation.
  void set_sched_trace(SchedSink* sink) { sched_trace_ = sink; }
  SchedSink* sched_trace() const { return sched_trace_; }

 private:
  /// A heap entry. `gen` is the slot's generation when the event was
  /// scheduled; once the event fires or is cancelled the slot's generation
  /// moves on, and the entry is stale — dropped when it reaches the top.
  struct Entry {
    SimTime time;
    std::uint64_t seq;  // scheduling order: FIFO among equal timestamps
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Slot {
    Handler fn;             // empty while the slot is free
    std::uint32_t gen = 1;  // starts at 1 so no EventId is 0
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Drop stale entries sitting at the top of the heap.
  void peel_stale();
  /// Retire a slot's event (fired or cancelled): empty the slot, bump its
  /// generation (invalidating the EventId and any heap entry) and return
  /// it to the free list.
  void release(std::uint32_t slot);

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  SchedSink* sched_trace_ = nullptr;  // non-owning; null = not traced
  std::uint64_t executed_ = 0;
  std::vector<Entry> heap_;  // min-heap on (time, seq)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace hbosim::des
