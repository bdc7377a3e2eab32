// Tests for the schedule trace: interval merging, window queries and the
// oversubscription checker.
#include <gtest/gtest.h>

#include "trace/schedule_trace.h"

namespace bbsched::trace {
namespace {

TEST(ScheduleTrace, DisabledRecordsNothing) {
  ScheduleTrace t(false);
  t.occupy(0, 1000, 0, 0, 0);
  EXPECT_TRUE(t.intervals().empty());
}

TEST(ScheduleTrace, ConsecutiveTicksMerge) {
  ScheduleTrace t(true);
  t.occupy(0, 1000, 0, 0, 0);
  t.occupy(1000, 2000, 0, 0, 0);
  t.occupy(2000, 3000, 0, 0, 0);
  ASSERT_EQ(t.intervals().size(), 1u);
  EXPECT_EQ(t.intervals()[0].start_us, 0u);
  EXPECT_EQ(t.intervals()[0].end_us, 3000u);
}

TEST(ScheduleTrace, InterleavedCpusStillMerge) {
  ScheduleTrace t(true);
  // Two CPUs reported alternately each tick, as the engine does.
  for (int tick = 0; tick < 5; ++tick) {
    const auto s = static_cast<std::uint64_t>(tick) * 1000;
    t.occupy(s, s + 1000, 0, 0, 0);
    t.occupy(s, s + 1000, 1, 1, 1);
  }
  EXPECT_EQ(t.intervals().size(), 2u);
}

TEST(ScheduleTrace, SwitchCreatesNewInterval) {
  ScheduleTrace t(true);
  t.occupy(0, 1000, 0, 0, 0);
  t.occupy(1000, 2000, 1, 5, 0);  // different thread on the same CPU
  EXPECT_EQ(t.intervals().size(), 2u);
}

TEST(ScheduleTrace, GapCreatesNewInterval) {
  ScheduleTrace t(true);
  t.occupy(0, 1000, 0, 0, 0);
  t.occupy(5000, 6000, 0, 0, 0);  // idle gap
  EXPECT_EQ(t.intervals().size(), 2u);
}

TEST(ScheduleTrace, IntervalsInWindow) {
  ScheduleTrace t(true);
  t.occupy(0, 1000, 0, 0, 0);
  t.occupy(5000, 9000, 0, 1, 1);
  const auto hits = t.intervals_in(4000, 6000);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].thread_id, 1);
  EXPECT_TRUE(t.intervals_in(2000, 3000).empty());
}

TEST(ScheduleTrace, OversubscriptionDetected) {
  ScheduleTrace good(true);
  good.occupy(0, 1000, 0, 0, 0);
  good.occupy(1000, 2000, 0, 1, 0);
  EXPECT_TRUE(good.no_oversubscription());

  ScheduleTrace bad(true);
  bad.occupy(0, 1000, 0, 0, 0);
  bad.occupy(500, 1500, 0, 1, 0);  // overlap on CPU 0
  EXPECT_FALSE(bad.no_oversubscription());
}

}  // namespace
}  // namespace bbsched::trace
