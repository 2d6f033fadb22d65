// Tests for the benchmark's measurement rules: the percentile rule and
// open-loop lateness accounting.

#include <gtest/gtest.h>

#include <vector>

#include "measure.h"

namespace nepalbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileTest, P99NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(MinSamplesFor(0.99), 1000u);
  EXPECT_EQ(MinSamplesFor(0.5), 20u);
  EXPECT_FALSE(Percentile(Ramp(999), 0.99).has_value());
  // 1000 samples: rank 990, so exactly ten samples (991..1000) lie above.
  std::optional<double> p99 = Percentile(Ramp(1000), 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(*p99, 990.0);
}

TEST(PercentileTest, EveryReportedPercentileLeavesTenAbove) {
  for (double q : {0.5, 0.9, 0.99}) {
    for (size_t n = 1; n <= 1500; n += 37) {
      std::vector<double> v = Ramp(n);
      std::optional<double> p = Percentile(v, q);
      if (!p.has_value()) {
        EXPECT_LT(n, MinSamplesFor(q));
        continue;
      }
      EXPECT_GE(n, MinSamplesFor(q));
      size_t above = 0;
      for (double x : v) above += x > *p ? 1 : 0;
      EXPECT_GE(above, kMinSamplesBeyond) << "q=" << q << " n=" << n;
    }
  }
}

TEST(PercentileTest, OrderOfSamplesDoesNotMatter) {
  std::vector<double> v = Ramp(2000);
  std::vector<double> reversed(v.rbegin(), v.rend());
  EXPECT_EQ(Percentile(v, 0.99), Percentile(reversed, 0.99));
  EXPECT_EQ(Percentile(v, 0.5), Percentile(reversed, 0.5));
}

// A fake clock: sleeping jumps to the wake-up time, sending costs 1 ms,
// except that operation 3 stalls for 100 ms.
TEST(OpenLoopTest, StallChargesLaterOperationsFromTheirDueTime) {
  Clock::time_point now{};
  const Clock::time_point start = now;
  auto clock = [&] { return now; };
  auto sleep_until = [&](Clock::time_point t) { now = t; };
  auto send = [&](size_t i) {
    now += std::chrono::milliseconds(i == 3 ? 100 : 1);
  };
  // 100 operations per second: one due every 10 ms.
  std::vector<OpenLoopOp> ops = RunOpenLoop(
      100.0, start, [](size_t i) { return i < 20; }, send, clock, sleep_until);
  ASSERT_EQ(ops.size(), 20u);
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(ops[i].due, start + std::chrono::milliseconds(10 * i));
  }
  // Before the stall every operation is sent on time and takes 1 ms.
  for (size_t i = 0; i <= 3; ++i) EXPECT_DOUBLE_EQ(ops[i].late_ms(), 0);
  EXPECT_DOUBLE_EQ(ops[2].latency_ms(), 1);
  EXPECT_DOUBLE_EQ(ops[3].latency_ms(), 100);
  // Operation 3 ends at 130 ms. Operation 4 (due 40) is sent at 130, 90 ms
  // late; the backlog drains 1 ms per send until the generator is back on
  // schedule at operation 13 (due 130, sent at 139 = 9 ms late), and
  // operation 14 (due 140) is on time again.
  EXPECT_DOUBLE_EQ(ops[4].late_ms(), 90);
  EXPECT_DOUBLE_EQ(ops[4].latency_ms(), 91);
  EXPECT_DOUBLE_EQ(ops[5].late_ms(), 81);
  EXPECT_DOUBLE_EQ(ops[13].late_ms(), 9);
  EXPECT_DOUBLE_EQ(ops[14].late_ms(), 0);
  EXPECT_DOUBLE_EQ(ops[14].latency_ms(), 1);
  // Latency counted from the send time would hide the stall entirely.
  EXPECT_DOUBLE_EQ(MsBetween(ops[4].sent, ops[4].done), 1);
}

TEST(OpenLoopTest, KeepGoingStopsBeforeTheNextOperation) {
  Clock::time_point now{};
  std::vector<OpenLoopOp> ops = RunOpenLoop(
      1000.0, now, [](size_t i) { return i < 7; },
      [&](size_t) { now += std::chrono::microseconds(10); },
      [&] { return now; }, [&](Clock::time_point t) { now = t; });
  EXPECT_EQ(ops.size(), 7u);
}

}  // namespace
}  // namespace nepalbench
