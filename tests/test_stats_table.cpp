// Unit tests for streaming statistics, the sample summary and the
// table/CSV emitters.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "hbosim/common/error.hpp"
#include "hbosim/common/rng.hpp"
#include "hbosim/common/stats.hpp"
#include "hbosim/common/table.hpp"

namespace hbosim {
namespace {

TEST(RunningStat, MatchesDirectComputation) {
  RunningStat s;
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stdev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, EmptyAndReset) {
  RunningStat s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  s.add(1.0);
  EXPECT_FALSE(s.empty());
  s.reset();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
}

TEST(RunningStat, SingleSampleHasZeroVariance) {
  RunningStat s;
  s.add(3.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(Ewma, ConvergesTowardConstantInput) {
  Ewma e(0.5);
  EXPECT_TRUE(e.empty());
  e.add(0.0);
  for (int i = 0; i < 50; ++i) e.add(10.0);
  EXPECT_NEAR(e.value(), 10.0, 1e-6);
}

TEST(Ewma, FirstSampleInitializes) {
  Ewma e(0.1);
  e.add(42.0);
  EXPECT_DOUBLE_EQ(e.value(), 42.0);
}

TEST(Percentile, MatchesLinearInterpolationReference) {
  // rank = p/100 * (n-1), interpolated between order statistics.
  const std::vector<double> xs = {15.0, 20.0, 35.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 15.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 35.0);   // exact middle statistic
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 20.0);   // rank 1.0, no fraction
  EXPECT_DOUBLE_EQ(percentile(xs, 40.0), 29.0);   // rank 1.6: 20 + 0.6*15
  EXPECT_DOUBLE_EQ(percentile(xs, 90.0), 46.0);   // rank 3.6: 40 + 0.6*10
}

TEST(Percentile, SortsItsOwnCopyAndHandlesSingletons) {
  EXPECT_DOUBLE_EQ(percentile({9.0, 1.0, 5.0}, 50.0), 5.0);  // unsorted input
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 63.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 100.0), 7.0);
}

TEST(Percentile, EmptySampleAndOutOfRangePThrow) {
  EXPECT_THROW(percentile({}, 50.0), Error);
  EXPECT_THROW(percentile({1.0}, -0.1), Error);
  EXPECT_THROW(percentile({1.0}, 100.1), Error);
}

TEST(Ewma, InvalidAlphaThrows) {
  EXPECT_THROW(Ewma{0.0}, Error);
  EXPECT_THROW(Ewma{1.5}, Error);
  EXPECT_NO_THROW(Ewma{1.0});
}

TEST(Ewma, ValueOnEmptyThrows) {
  Ewma e(0.5);
  EXPECT_THROW(e.value(), Error);
}

/// summarize()'s reference: the caller-order mean and percentile_sorted
/// over one full sort.
Summary reference_summary(const std::vector<double>& values) {
  Summary out;
  out.count = values.size();
  double acc = 0.0;
  for (double v : values) acc += v;
  out.mean = acc / static_cast<double>(values.size());
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  out.min = sorted.front();
  out.max = sorted.back();
  out.p50 = percentile_sorted(sorted, 50.0);
  out.p90 = percentile_sorted(sorted, 90.0);
  out.p95 = percentile_sorted(sorted, 95.0);
  out.p99 = percentile_sorted(sorted, 99.0);
  return out;
}

// Selection reads the same order statistics as the sort, and the mean is
// summed in the caller's order before selection reorders the sample: the
// summary is the sorted reference's bit for bit, ties included.
TEST(Summary, MatchesASortedReference) {
  Rng rng(0x5EEDu);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(2000);
    std::vector<double> values(n);
    for (double& v : values) {
      // About one draw in three comes from a 16-point grid: ties.
      v = rng.uniform_index(3) == 0
              ? 0.25 * static_cast<double>(rng.uniform_index(16))
              : rng.uniform(-3.0, 7.0);
    }
    const Summary ref = reference_summary(values);
    const Summary got = summarize(values);
    EXPECT_EQ(got.count, ref.count) << "n = " << n;
    EXPECT_EQ(got.min, ref.min) << "n = " << n;
    EXPECT_EQ(got.mean, ref.mean) << "n = " << n;
    EXPECT_EQ(got.p50, ref.p50) << "n = " << n;
    EXPECT_EQ(got.p90, ref.p90) << "n = " << n;
    EXPECT_EQ(got.p95, ref.p95) << "n = " << n;
    EXPECT_EQ(got.p99, ref.p99) << "n = " << n;
    EXPECT_EQ(got.max, ref.max) << "n = " << n;
  }
}

TEST(Summary, EmptySampleIsZero) {
  const Summary empty = summarize({});
  EXPECT_EQ(empty.count, 0u);
  for (double v : {empty.min, empty.mean, empty.p50, empty.p90, empty.p95,
                   empty.p99, empty.max})
    EXPECT_EQ(v, 0.0);
  const Summary one = summarize({2.5});
  EXPECT_EQ(one.count, 1u);
  for (double v : {one.min, one.mean, one.p50, one.p90, one.p95, one.p99,
                   one.max})
    EXPECT_EQ(v, 2.5);
}

TEST(TextTable, AlignsAndPrints) {
  TextTable t(std::vector<std::string>{"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable t(std::vector<std::string>{"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TextTable, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(CsvWriter, HeaderAndRows) {
  std::ostringstream os;
  CsvWriter csv(os, {"t", "v"});
  csv.row(std::vector<double>{1.0, 2.5});
  csv.row(std::vector<std::string>{"x", "y"});
  EXPECT_EQ(os.str(), "t,v\n1,2.5\nx,y\n");
}

// A field holding a comma, a quote, CR or LF is quoted with inner quotes
// doubled, in the header and in string rows; other fields stay bare.
TEST(CsvWriter, QuotesFieldsPerRfc4180) {
  std::ostringstream os;
  CsvWriter csv(os, {"t", "a,b"});
  csv.row(std::vector<std::string>{"plain", "say \"hi\""});
  csv.row(std::vector<std::string>{"line\nbreak", "cr\r"});
  EXPECT_EQ(os.str(),
            "t,\"a,b\"\n"
            "plain,\"say \"\"hi\"\"\"\n"
            "\"line\nbreak\",\"cr\r\"\n");
  std::ostringstream field;
  write_csv_field(field, "det,\"v2\"@GPU");
  EXPECT_EQ(field.str(), "\"det,\"\"v2\"\"@GPU\"");
}

TEST(CsvWriter, WidthMismatchThrows) {
  std::ostringstream os;
  CsvWriter csv(os, {"a", "b"});
  EXPECT_THROW(csv.row(std::vector<double>{1.0}), Error);
}

}  // namespace
}  // namespace hbosim
