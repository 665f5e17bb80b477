#include "broadcast/client_protocol.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "broadcast/schedule.h"
#include "common/observability.h"
#include "common/rng.h"

namespace lbsq::broadcast {
namespace {

TEST(ClientProtocolTest, EmptyRequestStillPaysProbeAndIndex) {
  BroadcastSchedule s(50, 4, 2);
  const AccessStats stats = RetrieveBuckets(s, 0, std::vector<int64_t>{});
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

// A receiver that knows nothing of the closed forms: it steps through
// BroadcastSchedule::SlotAt one slot at a time from the query slot, probing,
// waiting for the start of an index segment, reading it, and then taking
// every needed data bucket as it goes by.
AccessStats SteppingReceiver(const BroadcastSchedule& s, int64_t t,
                             const std::vector<int64_t>& needed,
                             int64_t index_read_buckets) {
  AccessStats stats;
  stats.tuning_time = 1;  // the probe of slot t
  int64_t slot = t + 1;
  while (true) {
    const BroadcastSchedule::Slot on_air = s.SlotAt(slot);
    if (on_air.kind == BroadcastSchedule::Slot::Kind::kIndex &&
        on_air.value == 0) {
      break;
    }
    ++slot;
  }
  for (int64_t i = 0; i < s.index_buckets(); ++i, ++slot) {
    EXPECT_EQ(s.SlotAt(slot).kind, BroadcastSchedule::Slot::Kind::kIndex);
  }
  stats.tuning_time += index_read_buckets;
  int64_t completion = slot;
  std::vector<int64_t> pending = needed;
  while (!pending.empty()) {
    const BroadcastSchedule::Slot on_air = s.SlotAt(slot);
    if (on_air.kind == BroadcastSchedule::Slot::Kind::kData) {
      const auto it = std::find(pending.begin(), pending.end(), on_air.value);
      if (it != pending.end()) {
        pending.erase(it);
        stats.tuning_time += 1;
        stats.buckets_read += 1;
        completion = slot + 1;
      }
    }
    ++slot;
  }
  stats.access_latency = completion - t;
  return stats;
}

TEST(ClientProtocolTest, ClosedFormMatchesSteppingReceiver) {
  Rng rng(31);
  int with_skips = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const int64_t data = static_cast<int64_t>(rng.UniformInt(1, 160));
    const int64_t index_len = static_cast<int64_t>(rng.UniformInt(1, 7));
    const int m = static_cast<int>(
        rng.UniformInt(1, static_cast<int64_t>(std::min<int64_t>(data, 9))));
    const BroadcastSchedule s(data, index_len, m);

    // Ascending, disjoint intervals, and skips drawn inside them at a
    // per-trial rate (none, some, or all of a run).
    BucketRetrieval retrieval;
    const double skip_rate = std::vector<double>{0.0, 0.1, 0.5, 0.9,
                                                 1.0}[trial % 5];
    int64_t at = static_cast<int64_t>(rng.UniformInt(0, 3));
    while (at < data && rng.Uniform(0.0, 1.0) < 0.8) {
      const int64_t end = std::min<int64_t>(
          data, at + static_cast<int64_t>(rng.UniformInt(1, 20)));
      retrieval.intervals.push_back(BucketInterval{at, end});
      for (int64_t id = at; id < end; ++id) {
        if (rng.Uniform(0.0, 1.0) < skip_rate) retrieval.skipped.push_back(id);
      }
      at = end + static_cast<int64_t>(rng.UniformInt(1, 25));
    }
    if (!retrieval.skipped.empty()) ++with_skips;
    std::vector<int64_t> ids;
    retrieval.AppendIds(&ids);
    ASSERT_EQ(retrieval.Count(), static_cast<int64_t>(ids.size()));

    const bool tree = trial % 2 == 1;
    const IndexReadMode mode =
        tree ? IndexReadMode::TreePaths(
                   static_cast<int64_t>(rng.UniformInt(1, index_len)))
             : IndexReadMode::FlatDirectory();
    const int64_t t = static_cast<int64_t>(
        rng.UniformInt(0, 3 * s.cycle_length()));

    obs::TraceRecorder closed_trace;
    obs::TraceRecorder per_bucket_trace;
    const AccessStats closed =
        RetrieveBuckets(s, t, retrieval, mode, &closed_trace);
    const AccessStats per_bucket =
        RetrieveBuckets(s, t, ids, mode, &per_bucket_trace);
    const AccessStats stepped =
        SteppingReceiver(s, t, ids, mode.BucketsToRead(s));
    for (const AccessStats& other : {per_bucket, stepped}) {
      EXPECT_EQ(closed.access_latency, other.access_latency)
          << "trial " << trial;
      EXPECT_EQ(closed.tuning_time, other.tuning_time) << "trial " << trial;
      EXPECT_EQ(closed.buckets_read, other.buckets_read) << "trial " << trial;
    }
    EXPECT_EQ(closed_trace.events(), per_bucket_trace.events());
  }
  EXPECT_GT(with_skips, 1000);
}

}  // namespace
}  // namespace lbsq::broadcast
