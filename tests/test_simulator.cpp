// Unit tests for the discrete-event simulation core.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "hbosim/common/error.hpp"
#include "hbosim/common/rng.hpp"
#include "hbosim/des/simulator.hpp"

namespace hbosim::des {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3.0);
}

TEST(Simulator, TiesExecuteFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterUsesRelativeTime) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(5.0, [&] {
    sim.schedule_after(2.5, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Simulator, PastSchedulingThrows) {
  Simulator sim;
  sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(0.5, [] {}), Error);
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), Error);
}

TEST(Simulator, NullHandlerThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(1.0, nullptr), Error);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, CancelIsIdempotentAndRejectsUnknown) {
  Simulator sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));      // already cancelled
  EXPECT_FALSE(sim.cancel(999999));  // never existed
  EXPECT_FALSE(sim.cancel(0));       // 0 is never an id
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  std::vector<double> fired;
  sim.schedule_at(1.0, [&] { fired.push_back(1.0); });
  sim.schedule_at(2.0, [&] { fired.push_back(2.0); });
  sim.schedule_at(3.0, [&] { fired.push_back(3.0); });
  sim.run_until(2.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator sim;
  sim.run_until(10.0);
  EXPECT_EQ(sim.now(), 10.0);
}

TEST(Simulator, RunUntilSkipsCancelledHeadWithoutOverrunning) {
  // Regression guard: a cancelled event at the queue head must not cause
  // run_until to execute a later-than-boundary event.
  Simulator sim;
  bool late_fired = false;
  const EventId id = sim.schedule_at(1.0, [] {});
  sim.schedule_at(5.0, [&] { late_fired = true; });
  sim.cancel(id);
  sim.run_until(2.0);
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sim.now(), 2.0);
}

TEST(Simulator, StepReturnsFalseWhenDrained) {
  Simulator sim;
  sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) sim.schedule_after(1.0, chain);
  };
  sim.schedule_after(1.0, chain);
  sim.run();
  EXPECT_EQ(count, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulator, RunHonoursMaxEvents) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 10; ++i)
    sim.schedule_at(static_cast<double>(i) + 1.0, [&] { ++count; });
  sim.run(4);
  EXPECT_EQ(count, 4);
  EXPECT_EQ(sim.pending(), 6u);
}

TEST(Simulator, EventsExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

// Event handles are slots that get reused. An id whose event was cancelled
// or has fired must stay dead after its slot carries a new event.
TEST(Simulator, StaleIdDoesNotCancelTheEventReusingItsSlot) {
  Simulator sim;
  const EventId cancelled = sim.schedule_at(1.0, [] {});
  ASSERT_TRUE(sim.cancel(cancelled));
  int fired = 0;
  const EventId reuser = sim.schedule_at(2.0, [&] { ++fired; });
  ASSERT_EQ(static_cast<std::uint32_t>(reuser),
            static_cast<std::uint32_t>(cancelled));  // same slot
  EXPECT_NE(reuser, cancelled);
  EXPECT_FALSE(sim.cancel(cancelled));
  EXPECT_EQ(sim.pending(), 1u);

  sim.run();
  EXPECT_EQ(fired, 1);
  const EventId next = sim.schedule_after(1.0, [&] { ++fired; });
  ASSERT_EQ(static_cast<std::uint32_t>(next),
            static_cast<std::uint32_t>(reuser));  // same slot again
  EXPECT_FALSE(sim.cancel(reuser));  // fired
  EXPECT_FALSE(sim.cancel(cancelled));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventCancellingItselfGetsFalse) {
  Simulator sim;
  EventId self = 0;
  bool self_cancel = true;
  bool child_fired = false;
  self = sim.schedule_at(1.0, [&] {
    // The child reuses this handler's slot; cancelling the handler's own
    // (now stale) id must leave the child alone.
    sim.schedule_after(1.0, [&] { child_fired = true; });
    self_cancel = sim.cancel(self);
  });
  sim.run();
  EXPECT_FALSE(self_cancel);
  EXPECT_TRUE(child_fired);
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_EQ(sim.pending(), 0u);
}

// A seeded stream of schedules (many at equal times), cancels of live,
// fired and cancelled ids, handler-scheduled children and steps, checked
// against a plain list that fires the earliest (time, scheduling order)
// entry. Firing order, pending() and events_executed() must match at every
// step, and no id is ever 0.
TEST(Simulator, RandomScheduleCancelStreamMatchesReferenceOrder) {
  struct RefEvent {
    SimTime time;
    std::size_t order;  // scheduling order, also the event's label
  };
  Simulator sim;
  Rng rng(20241017);
  std::vector<RefEvent> ref;  // the reference's pending events
  std::vector<EventId> ids;   // by label
  std::vector<std::size_t> fired;
  std::uint64_t ref_executed = 0;

  std::function<void(SimTime)> add = [&](SimTime at) {
    const std::size_t label = ids.size();
    ids.push_back(sim.schedule_at(at, [&, label] {
      fired.push_back(label);
      // Every fifth event schedules a child from inside its handler.
      if (label % 5 == 0)
        add(sim.now() + 0.25 * static_cast<double>(label % 3));
    }));
    EXPECT_NE(ids.back(), 0u);
    ref.push_back({at, label});
  };
  auto step_and_check = [&] {
    const auto next = std::min_element(
        ref.begin(), ref.end(), [](const RefEvent& a, const RefEvent& b) {
          return a.time != b.time ? a.time < b.time : a.order < b.order;
        });
    const RefEvent expected = *next;
    ref.erase(next);
    ++ref_executed;
    ASSERT_TRUE(sim.step());
    EXPECT_EQ(fired.back(), expected.order);
    EXPECT_EQ(sim.now(), expected.time);
  };

  for (int op = 0; op < 20000; ++op) {
    const double r = rng.uniform();
    if (r < 0.45) {
      // Quarter-second grid: plenty of equal timestamps.
      add(sim.now() + 0.25 * static_cast<double>(rng.uniform_index(8)));
    } else if (r < 0.65 && !ids.empty()) {
      const std::size_t label = rng.uniform_index(ids.size());
      const auto it =
          std::find_if(ref.begin(), ref.end(),
                       [&](const RefEvent& e) { return e.order == label; });
      const bool live = it != ref.end();
      EXPECT_EQ(sim.cancel(ids[label]), live) << "label " << label;
      if (live) ref.erase(it);
    } else if (ref.empty()) {
      EXPECT_FALSE(sim.step());
    } else {
      step_and_check();
    }
    ASSERT_EQ(sim.pending(), ref.size()) << "op " << op;
    ASSERT_EQ(sim.events_executed(), ref_executed) << "op " << op;
  }
  while (!ref.empty()) step_and_check();
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(fired.size(), ref_executed);
  EXPECT_GT(ref_executed, 5000u);
}

}  // namespace
}  // namespace hbosim::des
