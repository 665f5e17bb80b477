// Tests of the benchmark's decision rules: the percentile rule, the
// capacity-ladder walk and the rescaled open-loop arrival schedule.

#include "bench_logic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 0.5), 50.0);
  EXPECT_EQ(Percentile(v, 0.99), 99.0);
  EXPECT_EQ(Percentile(v, 1.0), 100.0);
  EXPECT_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_EQ(Percentile(std::vector<double>{}, 0.5), 0.0);
  EXPECT_EQ(Percentile(std::vector<double>{7.0}, 0.99), 7.0);
}

TEST(PercentileTest, HighestPercentileWithTenSamplesBeyond) {
  // p99 needs 1000 samples (10 beyond rank 990), p99.9 needs 10000.
  EXPECT_EQ(HighestSupportedPercentile(999), 0.9);
  EXPECT_EQ(HighestSupportedPercentile(1000), 0.99);
  EXPECT_EQ(HighestSupportedPercentile(9999), 0.99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 0.999);
  EXPECT_EQ(HighestSupportedPercentile(100000), 0.9999);
  EXPECT_EQ(HighestSupportedPercentile(100), 0.9);
  EXPECT_EQ(HighestSupportedPercentile(99), 0.5);
  EXPECT_EQ(HighestSupportedPercentile(20), 0.5);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(0), 0.0);
  EXPECT_TRUE(SupportsPercentile(1000, 0.99));
  EXPECT_FALSE(SupportsPercentile(999, 0.99));
  EXPECT_EQ(HighestSupportedPercentile(200, 100), 0.5);
}

TEST(PercentileTest, SummarizeSortsAndReportsTheSupportedTail) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  const LatencySummary s = Summarize(&v);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.p99, 990.0);
  EXPECT_EQ(s.tail_q, 0.99);
  EXPECT_EQ(s.tail, 990.0);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST(LadderTest, RatesAreGeometric) {
  const std::vector<double> rates = LadderRates(500.0, 1.06, 4);
  ASSERT_EQ(rates.size(), 4u);
  EXPECT_DOUBLE_EQ(rates[0], 500.0);
  EXPECT_DOUBLE_EQ(rates[3], 500.0 * 1.06 * 1.06 * 1.06);
}

TEST(LadderTest, FindsTheHighestPassingRungFromAnyStart) {
  constexpr int kRungs = 66;
  for (int threshold = 0; threshold <= kRungs; ++threshold) {
    for (int start : {0, 7, 36, kRungs - 1}) {
      std::vector<int> probed;
      const int best = WalkLadder(
          kRungs, start, [&](int rung) { return rung < threshold; }, &probed);
      EXPECT_EQ(best, threshold - 1) << threshold << " from " << start;
      // Each rung at most once, and logarithmically many probes.
      std::vector<int> sorted = probed;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
                sorted.end());
      EXPECT_LE(probed.size(), 16u);
      EXPECT_EQ(probed.front(), start);
    }
  }
}

TEST(LadderTest, GallopsUpThenBisects) {
  std::vector<int> probed;
  const int best =
      WalkLadder(64, 10, [](int rung) { return rung <= 20; }, &probed);
  EXPECT_EQ(best, 20);
  // 10 passes, 11, 13, 17 pass, 25 fails; then bisect 17..25.
  const std::vector<int> expected = {10, 11, 13, 17, 25, 21, 19, 20};
  EXPECT_EQ(probed, expected);
}

TEST(LadderTest, EmptyLadderAndFailingBottom) {
  EXPECT_EQ(WalkLadder(0, 0, [](int) { return true; }), -1);
  EXPECT_EQ(WalkLadder(10, 5, [](int) { return false; }), -1);
  EXPECT_EQ(WalkLadder(10, 5, [](int) { return true; }), 9);
}

TEST(ArrivalTest, RescalesToTheOfferedRate) {
  // Arrivals at 0, 1, 3, 6 minutes: span 6, period 8 (one mean gap of 2
  // after the last), so 4 requests per period.
  const std::vector<double> times = {0.0, 1.0, 3.0, 6.0};
  const std::vector<double> due = RescaledArrivals(times, 100.0, 8);
  ASSERT_EQ(due.size(), 8u);
  // 100 q/s: one cycle of 4 requests lasts 0.04 s, gaps keep their ratios.
  const double s = 0.04 / 8.0;
  const std::vector<double> expected = {0.0,     1.0 * s,  3.0 * s,
                                        6.0 * s, 8.0 * s,  9.0 * s,
                                        11.0 * s, 14.0 * s};
  for (size_t i = 0; i < due.size(); ++i) {
    EXPECT_NEAR(due[i], expected[i], 1e-12) << i;
  }
}

TEST(ArrivalTest, WholeCyclesOfferExactlyTheRate) {
  std::vector<double> times;
  double t = 3.5;
  for (int i = 0; i < 1000; ++i) {
    times.push_back(t);
    t += 0.001 * ((i * 7919) % 13 + 1);
  }
  for (const double rate : {500.0, 4000.0, 12345.0}) {
    const std::vector<double> due = RescaledArrivals(times, rate, 3001);
    EXPECT_EQ(due.front(), 0.0);
    EXPECT_TRUE(std::is_sorted(due.begin(), due.end()));
    // Request 3000 opens the fourth cycle: exactly 3000 / rate seconds in.
    EXPECT_NEAR(due[3000], 3000.0 / rate, 1e-9);
  }
}

TEST(ArrivalTest, DegenerateInputsSpaceEvenly) {
  EXPECT_TRUE(RescaledArrivals({}, 100.0, 5).empty());
  const std::vector<double> one = {2.0};
  const std::vector<double> due = RescaledArrivals(one, 100.0, 3);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_NEAR(due[2], 0.02, 1e-12);
}

}  // namespace
}  // namespace perfbench
