// Unit tests for TraceRecorder.

#include <gtest/gtest.h>

#include <sstream>

#include "hbosim/common/error.hpp"
#include "hbosim/des/trace.hpp"

namespace hbosim::des {
namespace {

TEST(TraceRecorder, RecordsAndReadsSeries) {
  TraceRecorder trace;
  trace.record("lat", 1.0, 10.0);
  trace.record("lat", 2.0, 20.0);
  trace.record("other", 1.0, 5.0);
  EXPECT_TRUE(trace.has_series("lat"));
  EXPECT_FALSE(trace.has_series("missing"));
  EXPECT_EQ(trace.series("lat").size(), 2u);
  EXPECT_EQ(trace.series_names(), (std::vector<std::string>{"lat", "other"}));
}

TEST(TraceRecorder, UnknownSeriesThrows) {
  TraceRecorder trace;
  EXPECT_THROW(trace.series("nope"), hbosim::Error);
}

TEST(TraceRecorder, WindowMeanFiltersByTime) {
  TraceRecorder trace;
  for (int i = 0; i <= 10; ++i)
    trace.record("v", static_cast<double>(i), static_cast<double>(i));
  EXPECT_DOUBLE_EQ(trace.window_mean("v", 2.0, 4.0), 3.0);
  EXPECT_DOUBLE_EQ(trace.window_mean("v", 100.0, 200.0), 0.0);
}

TEST(TraceRecorder, WindowMeanEdgeCases) {
  TraceRecorder trace;
  trace.record("v", 1.0, 10.0);
  trace.record("v", 2.0, 20.0);
  trace.record("v", 3.0, 30.0);
  // Window endpoints are inclusive on both sides.
  EXPECT_DOUBLE_EQ(trace.window_mean("v", 1.0, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(trace.window_mean("v", 1.0, 3.0), 20.0);
  EXPECT_DOUBLE_EQ(trace.window_mean("v", 2.0, 3.0), 25.0);
  // Empty window (even a valid range with no samples) is 0, not NaN.
  EXPECT_DOUBLE_EQ(trace.window_mean("v", 1.5, 1.9), 0.0);
  // Inverted window selects nothing.
  EXPECT_DOUBLE_EQ(trace.window_mean("v", 3.0, 1.0), 0.0);
  // Unknown series still throws.
  EXPECT_THROW(trace.window_mean("nope", 0.0, 1.0), hbosim::Error);
}

TEST(TraceRecorder, MarkersAccumulate) {
  TraceRecorder trace;
  trace.mark(1.0, "N1");
  trace.mark(2.0, "C5");
  ASSERT_EQ(trace.markers().size(), 2u);
  EXPECT_EQ(trace.markers()[1].second, "C5");
}

TEST(TraceRecorder, SeriesCsvDump) {
  TraceRecorder trace;
  trace.record("v", 1.0, 2.0);
  std::ostringstream os;
  trace.dump_series_csv("v", os);
  EXPECT_EQ(os.str(), "time,v\n1,2\n");
}

}  // namespace
}  // namespace hbosim::des
