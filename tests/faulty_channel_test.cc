#include "fault/faulty_channel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "broadcast/client_protocol.h"
#include "broadcast/schedule.h"
#include "common/observability.h"

namespace lbsq::fault {
namespace {

using broadcast::AccessStats;
using broadcast::BroadcastSchedule;
using broadcast::IndexReadMode;
using broadcast::RetrieveBuckets;

ChannelFaultConfig IidLoss(double p) {
  ChannelFaultConfig config;
  config.model = LossModel::kIid;
  config.loss_prob = p;
  return config;
}

TEST(ChannelSessionTest, FaultFreeSessionMatchesRetrieveBuckets) {
  // A Gilbert-Elliott channel with zero loss in both states (and no
  // corruption) is "enabled" but can never perturb anything: its schedule,
  // stats, and trace spans must match the reliable protocol exactly, with
  // every fault counter at zero.
  ChannelFaultConfig config;
  config.model = LossModel::kGilbertElliott;
  config.p_good_to_bad = 0.5;
  config.p_bad_to_good = 0.5;
  config.loss_good = 0.0;
  config.loss_bad = 0.0;

  BroadcastSchedule s(40, 3, 4);
  for (int64_t t : {0L, 13L, 111L}) {
    ChannelSession session(config, FaultPolicy{}, 77);
    obs::TraceRecorder fault_trace;
    obs::TraceRecorder reliable_trace;
    const FaultyRetrievalResult r = session.Retrieve(
        s, t, {2, 15, 33}, IndexReadMode::FlatDirectory(), &fault_trace);
    const AccessStats reliable = RetrieveBuckets(s, t, {2, 15, 33},
                                                 IndexReadMode::FlatDirectory(),
                                                 &reliable_trace);
    EXPECT_TRUE(r.complete());
    EXPECT_EQ(r.received, (std::vector<int64_t>{2, 15, 33}));
    EXPECT_EQ(r.losses, 0);
    EXPECT_EQ(r.corruptions, 0);
    EXPECT_FALSE(r.deadline_hit);
    EXPECT_EQ(r.stats.access_latency, reliable.access_latency);
    EXPECT_EQ(r.stats.tuning_time, reliable.tuning_time);
    EXPECT_EQ(r.stats.buckets_read, reliable.buckets_read);
    // Spans identical; the session only adds (zero-valued) fault counters.
    std::vector<obs::TraceEvent> spans;
    for (const obs::TraceEvent& e : fault_trace.events()) {
      if (e.kind == obs::TraceEvent::Kind::kSpan) {
        spans.push_back(e);
      } else {
        EXPECT_EQ(e.value, 0.0) << e.name;
      }
    }
    ASSERT_EQ(spans.size(), reliable_trace.events().size());
    for (size_t i = 0; i < spans.size(); ++i) {
      EXPECT_EQ(spans[i], reliable_trace.events()[i]);
    }
  }
}

TEST(ChannelSessionTest, LossesOnlyDelayWithUnlimitedBudget) {
  // With a generous retry budget and no deadline every bucket is eventually
  // received; losses cost latency and tuning, never completeness.
  BroadcastSchedule s(60, 2, 3);
  FaultPolicy policy;
  policy.max_retries_per_bucket = 1000;
  const AccessStats reliable = RetrieveBuckets(s, 5, {7, 30, 55});
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    ChannelSession session(IidLoss(0.4), policy, seed);
    const FaultyRetrievalResult r =
        session.Retrieve(s, 5, {7, 30, 55}, IndexReadMode::FlatDirectory());
    ASSERT_TRUE(r.complete()) << "seed " << seed;
    EXPECT_EQ(r.received.size(), 3u);
    EXPECT_GE(r.stats.access_latency, reliable.access_latency);
    EXPECT_GE(r.stats.tuning_time, reliable.tuning_time);
    // Tuning grows by exactly one slot per lost/corrupted data reception
    // plus one whole index segment per failed segment read; at minimum each
    // loss cost one extra listening slot somewhere.
    EXPECT_GE(r.stats.tuning_time - reliable.tuning_time, 0);
  }
}

TEST(ChannelSessionTest, IidLossRateMatchesLossProbAcrossSeeds) {
  // Under iid loss with an unlimited retry budget every reception is an
  // independent Bernoulli(p) draw, so across many seeds the observed loss
  // rate matches loss_prob. With a one-bucket index, each retrieval needs
  // three good receptions (index + two data buckets), each retried until
  // received: the retries per retrieval follow 3 p / (1 - p).
  BroadcastSchedule s(50, 1, 1);
  FaultPolicy policy;
  policy.max_retries_per_bucket = 1000;
  const AccessStats reliable = RetrieveBuckets(s, 0, {10, 40});
  const int seeds = 3000;
  for (double p : {0.1, 0.25, 0.5}) {
    int64_t losses = 0;
    int64_t receptions = 0;
    int64_t retries = 0;
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
      ChannelSession session(IidLoss(p), policy, seed);
      const FaultyRetrievalResult r =
          session.Retrieve(s, 0, {10, 40}, IndexReadMode::FlatDirectory());
      ASSERT_TRUE(r.complete()) << "p=" << p << " seed " << seed;
      ASSERT_EQ(r.corruptions, 0);
      losses += r.losses;
      // Every listened slot but the probe samples one reception.
      receptions += r.stats.tuning_time - 1;
      retries += r.stats.tuning_time - reliable.tuning_time;
    }
    // Without corruption, every retry repeats a lost reception.
    EXPECT_EQ(retries, losses) << "p=" << p;
    // 5-sigma bands: binomial standard error for the rate; the variance of
    // one geometric retry count is p / (1 - p)^2, three per retrieval.
    const double rate =
        static_cast<double>(losses) / static_cast<double>(receptions);
    EXPECT_NEAR(rate, p,
                5.0 * std::sqrt(p * (1.0 - p) /
                                static_cast<double>(receptions)))
        << "p=" << p;
    const double mean_retries = static_cast<double>(retries) / seeds;
    EXPECT_NEAR(mean_retries, 3.0 * p / (1.0 - p),
                5.0 * std::sqrt(3.0 * p / ((1.0 - p) * (1.0 - p)) / seeds))
        << "p=" << p;
  }
}

TEST(ChannelSessionTest, DeterministicGivenStreamSeed) {
  BroadcastSchedule s(50, 2, 2);
  ChannelFaultConfig config = IidLoss(0.3);
  config.corruption_prob = 0.1;
  ChannelSession a(config, FaultPolicy{}, 999);
  ChannelSession b(config, FaultPolicy{}, 999);
  for (int64_t t : {0L, 20L, 40L}) {
    const FaultyRetrievalResult ra =
        a.Retrieve(s, t, {1, 25, 49}, IndexReadMode::FlatDirectory());
    const FaultyRetrievalResult rb =
        b.Retrieve(s, t, {1, 25, 49}, IndexReadMode::FlatDirectory());
    EXPECT_EQ(ra.stats.access_latency, rb.stats.access_latency);
    EXPECT_EQ(ra.stats.tuning_time, rb.stats.tuning_time);
    EXPECT_EQ(ra.received, rb.received);
    EXPECT_EQ(ra.failed, rb.failed);
    EXPECT_EQ(ra.losses, rb.losses);
    EXPECT_EQ(ra.corruptions, rb.corruptions);
  }
}

TEST(ChannelSessionTest, DeadlineProducesFailedBuckets) {
  // A deadline shorter than one index segment cannot even complete the
  // index search: everything fails, deadline_hit is set.
  BroadcastSchedule s(30, 2, 2);
  FaultPolicy policy;
  policy.deadline_slots = 2;  // probe alone costs 1 slot
  ChannelSession session(IidLoss(0.2), policy, 5);
  const FaultyRetrievalResult r =
      session.Retrieve(s, 0, {3, 20}, IndexReadMode::FlatDirectory());
  EXPECT_FALSE(r.complete());
  EXPECT_TRUE(r.deadline_hit);
  EXPECT_EQ(r.failed, (std::vector<int64_t>{3, 20}));
  EXPECT_TRUE(r.received.empty());
  EXPECT_EQ(r.stats.buckets_read, 0);
}

TEST(ChannelSessionTest, ExhaustedIndexRetriesFailEverything) {
  // Without the index the client cannot locate any bucket; when the retry
  // budget runs out during the index search every requested bucket fails.
  BroadcastSchedule s(30, 4, 1);
  FaultPolicy policy;
  policy.max_retries_per_bucket = 0;  // one shot at everything
  bool saw_index_failure = false;
  for (uint64_t seed = 1; seed <= 40 && !saw_index_failure; ++seed) {
    ChannelSession session(IidLoss(0.9), policy, seed);
    const FaultyRetrievalResult r =
        session.Retrieve(s, 0, {5, 17, 29}, IndexReadMode::FlatDirectory());
    // received + failed always partition the requested set.
    std::vector<int64_t> all = r.received;
    all.insert(all.end(), r.failed.begin(), r.failed.end());
    std::sort(all.begin(), all.end());
    ASSERT_EQ(all, (std::vector<int64_t>{5, 17, 29}));
    if (r.failed.size() == 3 && r.losses > 0 && r.stats.buckets_read == 0) {
      saw_index_failure = true;
    }
  }
  // At 90% loss per reception and a 4-bucket segment with zero retries,
  // index failure is near-certain within 40 seeds.
  EXPECT_TRUE(saw_index_failure);
}

TEST(ChannelSessionTest, RetryBudgetBoundsDataAttempts) {
  // Per-bucket data attempts never exceed 1 + max_retries_per_bucket: with
  // budget b and loss p, extra tuning is bounded even at high loss.
  BroadcastSchedule s(50, 1, 1);
  FaultPolicy policy;
  policy.max_retries_per_bucket = 3;
  const AccessStats reliable = RetrieveBuckets(s, 0, {10, 40});
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    ChannelSession session(IidLoss(0.8), policy, seed);
    const FaultyRetrievalResult r =
        session.Retrieve(s, 0, {10, 40}, IndexReadMode::FlatDirectory());
    // Index: at most 1 + 3 segment reads of 1 bucket; data: at most
    // 2 * (1 + 3) attempts.
    EXPECT_LE(r.stats.tuning_time,
              reliable.tuning_time + 3 + 2 * 3);
  }
}

}  // namespace
}  // namespace lbsq::fault
