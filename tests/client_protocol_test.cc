#include "broadcast/client_protocol.h"

#include <gtest/gtest.h>

#include "broadcast/schedule.h"

namespace lbsq::broadcast {
namespace {

TEST(ClientProtocolTest, EmptyRequestStillPaysProbeAndIndex) {
  BroadcastSchedule s(50, 4, 2);
  const AccessStats stats = RetrieveBuckets(s, 0, {});
  EXPECT_EQ(stats.buckets_read, 0);
  EXPECT_EQ(stats.tuning_time, 1 + 4);
  // Latency: probe (1) + wait to index + read index. At t=0 the next index
  // segment starts at slot 1's search... it starts at the next segment
  // boundary after slot 1.
  EXPECT_GE(stats.access_latency, 5);
}

TEST(ClientProtocolTest, SingleBucketCosts) {
  BroadcastSchedule s(10, 1, 1);  // cycle: [I][0][1]...[9], length 11
  // Query at t=0: probe slot 0, index starts at 11 (slot 0 is the index but
  // the probe consumes it), ends 12; bucket 0 airs at slot 12.
  const AccessStats stats = RetrieveBuckets(s, 0, {0});
  EXPECT_EQ(stats.buckets_read, 1);
  EXPECT_EQ(stats.tuning_time, 1 + 1 + 1);
  EXPECT_EQ(stats.access_latency, 13 - 0);
}

TEST(ClientProtocolTest, DuplicatesAreDeduplicated) {
  BroadcastSchedule s(20, 2, 2);
  const AccessStats once = RetrieveBuckets(s, 5, {7});
  const AccessStats twice = RetrieveBuckets(s, 5, {7, 7, 7});
  EXPECT_EQ(once.access_latency, twice.access_latency);
  EXPECT_EQ(once.tuning_time, twice.tuning_time);
  EXPECT_EQ(twice.buckets_read, 1);
}

TEST(ClientProtocolTest, LatencyIsLastNeededBucket) {
  BroadcastSchedule s(30, 1, 1);
  const AccessStats first = RetrieveBuckets(s, 0, {0});
  const AccessStats last = RetrieveBuckets(s, 0, {29});
  const AccessStats both = RetrieveBuckets(s, 0, {0, 29});
  EXPECT_LT(first.access_latency, last.access_latency);
  EXPECT_EQ(both.access_latency, last.access_latency);
  EXPECT_EQ(both.tuning_time, 1 + 1 + 2);
}

TEST(ClientProtocolTest, LatencyBoundedByTwoCycles) {
  BroadcastSchedule s(40, 3, 4);
  for (int64_t t = 0; t < 2 * s.cycle_length(); t += 5) {
    std::vector<int64_t> all;
    for (int64_t b = 0; b < 40; ++b) all.push_back(b);
    const AccessStats stats = RetrieveBuckets(s, t, all);
    EXPECT_LE(stats.access_latency, 2 * s.cycle_length() + 1);
    EXPECT_EQ(stats.buckets_read, 40);
  }
}

TEST(ClientProtocolTest, TuningNeverExceedsLatency) {
  BroadcastSchedule s(60, 4, 3);
  for (int64_t t = 0; t < s.cycle_length(); t += 11) {
    const AccessStats stats = RetrieveBuckets(s, t, {3, 17, 42, 55});
    EXPECT_LE(stats.tuning_time, stats.access_latency);
  }
}

TEST(ClientProtocolTest, MoreIndexReplicasReduceProbeWait) {
  // Average latency to reach the index falls as m grows (the classic (1,m)
  // trade-off; the cycle itself grows, so data latency rises).
  const int64_t data = 120;
  const int64_t index_len = 6;
  auto average_index_wait = [&](int m) {
    BroadcastSchedule s(data, index_len, m);
    double total = 0.0;
    const int64_t cycle = s.cycle_length();
    for (int64_t t = 0; t < cycle; ++t) {
      total += static_cast<double>(s.NextIndexSegmentStart(t + 1) - t);
    }
    return total / static_cast<double>(cycle);
  };
  EXPECT_GT(average_index_wait(1), average_index_wait(4));
  EXPECT_GT(average_index_wait(4), average_index_wait(12));
}

TEST(ClientProtocolTest, AccumulateAddsFields) {
  AccessStats a{10, 5, 2};
  const AccessStats b{7, 3, 1};
  a.Accumulate(b);
  EXPECT_EQ(a.access_latency, 17);
  EXPECT_EQ(a.tuning_time, 8);
  EXPECT_EQ(a.buckets_read, 3);
}

TEST(ClientProtocolTest, IndexReadModeBucketsToRead) {
  BroadcastSchedule s(50, 4, 2);
  EXPECT_EQ(IndexReadMode::FlatDirectory().BucketsToRead(s),
            s.index_buckets());
  EXPECT_EQ(IndexReadMode::TreePaths(3).BucketsToRead(s), 3);
}

}  // namespace
}  // namespace lbsq::broadcast
