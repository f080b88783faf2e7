// Unit + property tests for the processor-sharing resource — the mechanism
// behind every contention effect in the reproduction.

#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "hbosim/common/error.hpp"
#include "hbosim/des/ps_resource.hpp"
#include "hbosim/des/sched_trace.hpp"
#include "hbosim/telemetry/telemetry.hpp"

namespace hbosim::des {
namespace {

TEST(PsResource, SingleJobRunsAtFullRate) {
  Simulator sim;
  PsResource res(sim, "gpu", 1.0);
  double done_at = -1.0;
  res.submit(0.05, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 0.05, 1e-12);
}

TEST(PsResource, TwoEqualJobsShareEvenly) {
  Simulator sim;
  PsResource res(sim, "gpu", 1.0);
  std::vector<double> done;
  res.submit(0.05, [&] { done.push_back(sim.now()); });
  res.submit(0.05, [&] { done.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  // Both progress at rate 1/2, so both finish at 0.1.
  EXPECT_NEAR(done[0], 0.10, 1e-9);
  EXPECT_NEAR(done[1], 0.10, 1e-9);
}

TEST(PsResource, ShortJobLeavesAndLongJobSpeedsUp) {
  Simulator sim;
  PsResource res(sim, "gpu", 1.0);
  double long_done = -1.0;
  res.submit(0.03, [] {});
  res.submit(0.09, [&] { long_done = sim.now(); });
  sim.run();
  // Shared until t=0.06 (short job finishes with 0.03 work at rate 1/2);
  // the long job then has 0.06 left at full rate -> finishes at 0.12.
  EXPECT_NEAR(long_done, 0.12, 1e-9);
}

TEST(PsResource, MultiCoreCapacityRunsJobsInParallel) {
  Simulator sim;
  PsResource cpu(sim, "cpu", 4.0);  // 4 cores, 1-core jobs
  std::vector<double> done;
  for (int i = 0; i < 4; ++i)
    cpu.submit(0.1, [&] { done.push_back(sim.now()); });
  sim.run();
  for (double t : done) EXPECT_NEAR(t, 0.1, 1e-9);  // no slowdown
}

TEST(PsResource, OversubscribedCpuSlowsEveryoneEqually) {
  Simulator sim;
  PsResource cpu(sim, "cpu", 4.0);
  std::vector<double> done;
  for (int i = 0; i < 8; ++i)
    cpu.submit(0.1, [&] { done.push_back(sim.now()); });
  sim.run();
  for (double t : done) EXPECT_NEAR(t, 0.2, 1e-9);  // rate 1/2 each
}

TEST(PsResource, PerJobRateCapNeverExceedsOne) {
  Simulator sim;
  PsResource cpu(sim, "cpu", 8.0);
  double done_at = -1.0;
  cpu.submit(0.1, [&] { done_at = sim.now(); });
  sim.run();
  // A single 1-core job cannot borrow all 8 cores.
  EXPECT_NEAR(done_at, 0.1, 1e-12);
}

TEST(PsResource, MultiCoreJobConsumesMoreCapacity) {
  Simulator sim;
  PsResource cpu(sim, "cpu", 4.0);
  std::vector<double> done(2, -1.0);
  // A 3-core job and a 2-core job want 5 cores on a 4-core cluster:
  // both slow to rate 4/5.
  cpu.submit(0.1, 3.0, [&] { done[0] = sim.now(); });
  cpu.submit(0.1, 2.0, [&] { done[1] = sim.now(); });
  sim.run();
  EXPECT_NEAR(done[0], 0.125, 1e-9);
  EXPECT_NEAR(done[1], 0.125, 1e-9);
}

TEST(PsResource, BackgroundUtilizationReducesRate) {
  Simulator sim;
  PsResource gpu(sim, "gpu", 1.0);
  gpu.set_background_utilization(0.5);
  double done_at = -1.0;
  gpu.submit(0.05, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 0.10, 1e-9);
}

TEST(PsResource, BackgroundChangeMidJobTakesEffectImmediately) {
  Simulator sim;
  PsResource gpu(sim, "gpu", 1.0);
  double done_at = -1.0;
  gpu.submit(0.10, [&] { done_at = sim.now(); });
  // Run half the job, then the render pipeline loads the GPU 50%.
  sim.run_until(0.05);
  gpu.set_background_utilization(0.5);
  sim.run();
  // 0.05 work left at rate 0.5 -> 0.1 more seconds.
  EXPECT_NEAR(done_at, 0.15, 1e-9);
}

TEST(PsResource, MaxBackgroundClampProtectsJobs) {
  Simulator sim;
  PsResource gpu(sim, "gpu", 1.0);
  gpu.set_background_utilization(1.0);  // clamped to 0.95
  EXPECT_DOUBLE_EQ(gpu.background_utilization(), PsResource::kMaxBackground);
  EXPECT_DOUBLE_EQ(PsResource::kMaxBackground, 0.95);
  double done_at = -1.0;
  gpu.submit(0.02, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 0.4, 1e-9);  // rate 0.05
}

TEST(PsResource, CompletionCallbackMaySubmitImmediately) {
  Simulator sim;
  PsResource gpu(sim, "gpu", 1.0);
  int completions = 0;
  std::function<void()> resubmit = [&] {
    if (++completions < 5) gpu.submit(0.01, resubmit);
  };
  gpu.submit(0.01, resubmit);
  sim.run();
  EXPECT_EQ(completions, 5);
  EXPECT_NEAR(sim.now(), 0.05, 1e-9);
}

TEST(PsResource, WorkDoneAccountsServiceTime) {
  Simulator sim;
  PsResource gpu(sim, "gpu", 1.0);
  gpu.submit(0.05, [] {});
  gpu.submit(0.07, [] {});
  sim.run();
  EXPECT_NEAR(gpu.work_done(), 0.12, 1e-9);
}

TEST(PsResource, CurrentRatePerJobPredictsShare) {
  Simulator sim;
  PsResource gpu(sim, "gpu", 1.0);
  EXPECT_DOUBLE_EQ(gpu.current_rate_per_job(), 1.0);
  gpu.submit(1.0, [] {});
  EXPECT_DOUBLE_EQ(gpu.current_rate_per_job(), 0.5);  // with one more job
  EXPECT_DOUBLE_EQ(gpu.requested_cores(), 1.0);
}

TEST(PsResource, InvalidArgumentsThrow) {
  Simulator sim;
  EXPECT_THROW(PsResource(sim, "x", 0.0), Error);
  PsResource gpu(sim, "gpu", 1.0);
  EXPECT_THROW(gpu.submit(-1.0, [] {}), Error);
  EXPECT_THROW(gpu.submit(1.0, 0.0, [] {}), Error);
  EXPECT_THROW(gpu.set_background_utilization(1.5), Error);
}

TEST(PsResource, ZeroDemandJobCompletesImmediatelyInSimTime) {
  Simulator sim;
  PsResource gpu(sim, "gpu", 1.0);
  double done_at = -1.0;
  gpu.submit(0.0, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 0.0, 1e-9);
}

// --- capacity rescaling (DVFS throttling support) --------------------------

TEST(PsResource, SetCapacityMidServiceStretchesRemainingWork) {
  Simulator sim;
  PsResource gpu(sim, "gpu", 1.0);
  double done_at = -1.0;
  gpu.submit(0.10, [&] { done_at = sim.now(); });
  sim.run_until(0.05);  // half the work served at rate 1
  gpu.set_capacity(0.5);
  gpu.set_max_rate_per_job(0.5);
  sim.run();
  // 0.05 work left at rate 0.5 -> 0.1 more seconds.
  EXPECT_NEAR(done_at, 0.15, 1e-9);
}

TEST(PsResource, SetCapacityConservesWorkAcrossTheStep) {
  // Virtual work must be accounted at the pre-change rate up to the change
  // and at the post-change rate after; total service still equals demand.
  Simulator sim;
  PsResource gpu(sim, "gpu", 1.0);
  int completed = 0;
  gpu.submit(0.06, [&] { ++completed; });
  gpu.submit(0.10, [&] { ++completed; });
  sim.run_until(0.04);
  gpu.set_capacity(0.7);
  sim.run_until(0.15);
  gpu.set_capacity(1.3);
  gpu.set_max_rate_per_job(1.3);
  sim.run();
  EXPECT_EQ(completed, 2);
  EXPECT_NEAR(gpu.work_done(), 0.16, 1e-9);
}

TEST(PsResource, UnchangedCapacityIsAStrictNoOp) {
  // The throttling governor calls set_capacity every re-application; an
  // unchanged value must not settle progress or reschedule the completion
  // event, or it would perturb completion times at the last bit and break
  // the power subsystem's bitwise no-throttle parity guarantee.
  Simulator a_sim, b_sim;
  PsResource a(a_sim, "gpu", 1.0);
  PsResource b(b_sim, "gpu", 1.0);
  std::vector<double> a_done, b_done;
  for (int i = 0; i < 3; ++i) {
    a.submit(0.05 + 0.013 * i, [&] { a_done.push_back(a_sim.now()); });
    b.submit(0.05 + 0.013 * i, [&] { b_done.push_back(b_sim.now()); });
  }
  a_sim.run_until(0.033);
  b_sim.run_until(0.033);
  b.set_capacity(1.0);          // same value: must change nothing
  b.set_max_rate_per_job(1.0);  // likewise
  a_sim.run();
  b_sim.run();
  ASSERT_EQ(a_done.size(), b_done.size());
  for (std::size_t i = 0; i < a_done.size(); ++i)
    EXPECT_EQ(a_done[i], b_done[i]);  // bitwise, not NEAR
}

TEST(PsResource, SettledWorkDoneIsAPureRead) {
  // Projects partially-served jobs onto work_done() without mutating the
  // resource: repeated reads agree, and interleaving reads with the run
  // leaves completion times bitwise identical to an unobserved run.
  Simulator a_sim, b_sim;
  PsResource a(a_sim, "gpu", 1.0);
  PsResource b(b_sim, "gpu", 1.0);
  std::vector<double> a_done, b_done;
  for (int i = 0; i < 3; ++i) {
    a.submit(0.04 + 0.017 * i, [&] { a_done.push_back(a_sim.now()); });
    b.submit(0.04 + 0.017 * i, [&] { b_done.push_back(b_sim.now()); });
  }
  a_sim.run();  // never observed
  double last = 0.0;
  for (double t = 0.01; t < 0.2; t += 0.01) {
    b_sim.run_until(t);
    const double w = b.settled_work_done();
    EXPECT_DOUBLE_EQ(w, b.settled_work_done());  // read twice, same answer
    EXPECT_GE(w, last);                          // monotone in time
    last = w;
  }
  b_sim.run();
  ASSERT_EQ(a_done.size(), b_done.size());
  for (std::size_t i = 0; i < a_done.size(); ++i)
    EXPECT_EQ(a_done[i], b_done[i]);  // observation did not shift anything
  EXPECT_DOUBLE_EQ(b.settled_work_done(), b.work_done());  // all settled
}

TEST(PsResource, SetCapacityRejectsNonPositive) {
  Simulator sim;
  PsResource gpu(sim, "gpu", 1.0);
  EXPECT_THROW(gpu.set_capacity(0.0), Error);
  EXPECT_THROW(gpu.set_max_rate_per_job(-1.0), Error);
}

class PsConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(PsConservationTest, TotalWorkIsConservedUnderChurn) {
  // Property: whatever the arrival pattern, the sum of service received
  // equals the sum of submitted demands once everything drains.
  Simulator sim;
  PsResource res(sim, "gpu", 1.0);
  const int n = GetParam();
  double total_demand = 0.0;
  int completed = 0;
  for (int i = 0; i < n; ++i) {
    const double demand = 0.01 + 0.003 * i;
    const double arrival = 0.005 * i;
    total_demand += demand;
    sim.schedule_at(arrival, [&res, &completed, demand] {
      res.submit(demand, [&completed] { ++completed; });
    });
  }
  sim.run();
  EXPECT_EQ(completed, n);
  EXPECT_NEAR(res.work_done(), total_demand, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PsConservationTest,
                         ::testing::Values(1, 2, 5, 13, 40));

TEST(PsResource, TraceDecimationOneRecordsEveryDepthChange) {
  // Count "<name>.active_jobs" counter samples in the exported trace:
  // decimation 1 records one per depth change (N submits + N completion
  // events here), the default 1-in-16 sampling far fewer.
  auto depth_samples = [](std::uint32_t decimation) {
    telemetry::TelemetrySession session;
    Simulator sim;
    PsResource res(sim, "cpu", 1.0);
    if (decimation != 0) res.set_trace_decimation(decimation);
    for (int i = 0; i < 10; ++i) {
      sim.schedule_at(0.1 * i, [&] { res.submit(0.01, [] {}); });
    }
    sim.run();
    std::ostringstream os;
    session.write_chrome_trace(os);
    const std::string text = os.str();
    std::size_t count = 0, pos = 0;
    while ((pos = text.find("cpu.active_jobs", pos)) != std::string::npos) {
      ++count;
      pos += 1;
    }
    return count;
  };
  // 10 sequential jobs: 10 submit-side changes + 10 completion-side ones.
  EXPECT_EQ(depth_samples(1), 20u);
  // Default sampling sees 1 in 16 of those 20 changes.
  EXPECT_EQ(depth_samples(0), 1u);
  EXPECT_EQ(depth_samples(16), 1u);

  Simulator sim;
  PsResource res(sim, "cpu", 1.0);
  EXPECT_EQ(res.trace_decimation(), 16u);
  EXPECT_THROW(res.set_trace_decimation(0), Error);
}

TEST(PsResource, SchedTraceCapturesSubmitFieldsAndOrdering) {
  Simulator sim;
  SchedTrace trace;
  sim.set_sched_trace(&trace);
  PsResource res(sim, "gpu", 2.0, 2.0);
  res.submit(0.1, 1.0, [] {}, "first");
  res.submit(0.2, 1.0, [] {}, "second");
  sim.run();

  const std::span<const SchedEvent> events = trace.runs(0).older;
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, SchedEventKind::Submit);
  EXPECT_STREQ(events[0].cls, "first");
  EXPECT_DOUBLE_EQ(events[0].demand, 0.1);
  EXPECT_DOUBLE_EQ(events[0].cores, 1.0);
  // Alone on a 2-wide, rate-2-capped unit: solo and shared rate are 2.
  EXPECT_DOUBLE_EQ(events[0].solo_rate, 2.0);
  EXPECT_DOUBLE_EQ(events[0].share, 2.0);
  EXPECT_EQ(events[0].active_jobs, 1u);

  EXPECT_EQ(events[1].kind, SchedEventKind::Submit);
  // Two jobs split the capacity: share after the event is 1.
  EXPECT_DOUBLE_EQ(events[1].share, 1.0);
  EXPECT_EQ(events[1].active_jobs, 2u);
  // Its solo rate is still the contention-free 2.
  EXPECT_DOUBLE_EQ(events[1].solo_rate, 2.0);

  EXPECT_EQ(events[2].kind, SchedEventKind::Complete);
  EXPECT_STREQ(events[2].cls, "first");
  EXPECT_EQ(events[2].active_jobs, 1u);
  EXPECT_EQ(events[3].kind, SchedEventKind::Complete);
  EXPECT_STREQ(events[3].cls, "second");
  EXPECT_EQ(events[3].active_jobs, 0u);
  EXPECT_LT(events[2].time, events[3].time);
}

}  // namespace
}  // namespace hbosim::des
