// Tests for trace-driven demand replay.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "workload/trace_demand.h"

namespace bbsched::workload {
namespace {

TEST(TraceDemand, ReplaysSegmentsCyclically) {
  TraceDemand d({{1000.0, 2.0}, {3000.0, 8.0}});
  EXPECT_DOUBLE_EQ(d.period_us(), 4000.0);
  EXPECT_DOUBLE_EQ(d.rate(0, 500.0), 2.0);
  EXPECT_DOUBLE_EQ(d.rate(0, 1500.0), 8.0);
  EXPECT_DOUBLE_EQ(d.rate(0, 3999.0), 8.0);
  EXPECT_DOUBLE_EQ(d.rate(0, 4500.0), 2.0);  // wrapped
  EXPECT_DOUBLE_EQ(d.rate(0, 9500.0), 8.0);
}

TEST(TraceDemand, MeanIsDurationWeighted) {
  TraceDemand d({{1000.0, 2.0}, {3000.0, 8.0}});
  EXPECT_DOUBLE_EQ(d.mean_tps(), (1000.0 * 2.0 + 3000.0 * 8.0) / 4000.0);
}

TEST(TraceDemand, ThreadsArePhaseShifted) {
  TraceDemand d({{1000.0, 2.0}, {3000.0, 8.0}});
  // Thread 1 starts one segment later: at progress 0 it sees segment 2.
  EXPECT_DOUBLE_EQ(d.rate(1, 0.0), 8.0);
  EXPECT_DOUBLE_EQ(d.rate(0, 0.0), 2.0);
}

TEST(TraceDemand, SingleSegmentIsConstant) {
  TraceDemand d({{500.0, 7.0}});
  for (double p : {0.0, 250.0, 499.0, 501.0, 12345.0}) {
    EXPECT_DOUBLE_EQ(d.rate(0, p), 7.0);
  }
}

TEST(TraceCsv, ParsesWithCommentsAndBlanks) {
  std::istringstream in(
      "# phase trace measured on host X\n"
      "1000,2.5\n"
      "\n"
      "2000,10.0   # sweep phase\n");
  const auto segs = parse_trace_csv(in);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_DOUBLE_EQ(segs[0].duration_us, 1000.0);
  EXPECT_DOUBLE_EQ(segs[0].rate_tps, 2.5);
  EXPECT_DOUBLE_EQ(segs[1].rate_tps, 10.0);
}

TEST(TraceCsv, RejectsMalformedLines) {
  std::istringstream missing("1000\n");
  EXPECT_THROW(parse_trace_csv(missing), std::runtime_error);

  std::istringstream garbage("abc,def\n");
  EXPECT_THROW(parse_trace_csv(garbage), std::runtime_error);

  std::istringstream negative("1000,-3\n");
  EXPECT_THROW(parse_trace_csv(negative), std::runtime_error);

  std::istringstream empty("# only a comment\n");
  EXPECT_THROW(parse_trace_csv(empty), std::runtime_error);
}

/// parse_trace_csv(text) must throw a runtime_error naming `line`.
void expect_rejected(const std::string& text, int line) {
  std::istringstream in(text);
  try {
    (void)parse_trace_csv(in);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const std::runtime_error& e) {
    const std::string want = "trace line " + std::to_string(line) + ":";
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what();
  }
}

TEST(TraceCsv, RejectsTrailingCharacters) {
  expect_rejected("12abc,5\n", 1);
  expect_rejected("1000,2\n1000,3x\n", 2);
  expect_rejected("1000,2,7\n", 1);  // a third field
}

TEST(TraceCsv, RejectsNonFiniteValues) {
  expect_rejected("1000,nan\n", 1);
  expect_rejected("inf,5\n", 1);
  expect_rejected("# header\n1000,inf\n", 2);
  expect_rejected("nan,5\n", 1);
  expect_rejected("1e999,5\n", 1);  // out of double range
}

TEST(TraceCsv, AcceptsSurroundingWhitespace) {
  std::istringstream in(" 1000 , 2.5 \r\n\t2000,\t10\n");
  const auto segs = parse_trace_csv(in);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_DOUBLE_EQ(segs[0].duration_us, 1000.0);
  EXPECT_DOUBLE_EQ(segs[0].rate_tps, 2.5);
  EXPECT_DOUBLE_EQ(segs[1].duration_us, 2000.0);
  EXPECT_DOUBLE_EQ(segs[1].rate_tps, 10.0);
}

TEST(TraceCsv, MissingFileThrows) {
  EXPECT_THROW(load_trace_csv("/nonexistent/trace.csv"), std::runtime_error);
}

TEST(TraceJob, BuildsRunnableSpec) {
  auto spec = make_trace_job("traced", {{1000.0, 3.0}, {1000.0, 9.0}}, 2,
                             50'000.0);
  EXPECT_EQ(spec.nthreads, 2);
  EXPECT_DOUBLE_EQ(spec.work_us, 50'000.0);
  ASSERT_NE(spec.demand, nullptr);
  EXPECT_DOUBLE_EQ(spec.demand->rate(0, 0.0), 3.0);
}

}  // namespace
}  // namespace bbsched::workload
