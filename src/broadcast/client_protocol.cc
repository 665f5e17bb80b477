#include "broadcast/client_protocol.h"

#include <algorithm>

#include "common/check.h"
#include "kernels/kernels.h"

namespace lbsq::broadcast {

namespace {

// Steps 1-2 of the protocol, shared by both forms: the initial probe and the
// index search. Returns the slot at which the index segment ends, where data
// retrieval begins.
int64_t ProbeAndSearchIndex(const BroadcastSchedule& schedule, int64_t t,
                            IndexReadMode index_mode,
                            obs::TraceRecorder* trace, AccessStats* stats) {
  LBSQ_CHECK(t >= 0);
  const int64_t index_read_buckets = index_mode.BucketsToRead(schedule);
  LBSQ_CHECK(index_read_buckets >= 0);
  LBSQ_CHECK(index_read_buckets <= schedule.index_buckets());

  // Step 1: initial probe. The client listens to the slot in progress; every
  // bucket carries a pointer to the next index segment.
  stats->tuning_time += 1;
  const int64_t after_probe = t + 1;
  if (trace != nullptr) trace->Span("bcast.probe", t, after_probe);

  // Step 2: index search. Read the needed part of the next index segment
  // (dozing between tree-path buckets when a hierarchical index is in use).
  const int64_t index_start = schedule.NextIndexSegmentStart(after_probe);
  const int64_t index_end = index_start + schedule.index_buckets();
  stats->tuning_time += index_read_buckets;
  if (trace != nullptr) trace->Span("bcast.index", index_start, index_end);
  return index_end;
}

// The largest id `retrieval` downloads that is <= x, or -1 when there is
// none. Each step either returns or passes over one skipped id, so the walk
// is bounded by the intervals and skips at or below x.
int64_t LastKeptAtMost(const BucketRetrieval& retrieval, int64_t x) {
  const std::vector<BucketInterval>& runs = retrieval.intervals;
  const std::vector<int64_t>& skipped = retrieval.skipped;
  size_t run = static_cast<size_t>(
      std::upper_bound(runs.begin(), runs.end(), x,
                       [](int64_t v, const BucketInterval& r) {
                         return v < r.begin;
                       }) -
      runs.begin());
  size_t skip = static_cast<size_t>(
      std::upper_bound(skipped.begin(), skipped.end(), x) - skipped.begin());
  while (run > 0) {
    const BucketInterval& r = runs[--run];
    for (int64_t id = std::min(x, r.end - 1); id >= r.begin; --id) {
      while (skip > 0 && skipped[skip - 1] > id) --skip;
      if (skip == 0 || skipped[skip - 1] != id) return id;
    }
  }
  return -1;
}

}  // namespace

int64_t BucketRetrieval::Count() const {
  int64_t count = -static_cast<int64_t>(skipped.size());
  for (const BucketInterval& r : intervals) count += r.size();
  return count;
}

void BucketRetrieval::AppendIds(std::vector<int64_t>* out) const {
  size_t skip = 0;
  for (const BucketInterval& r : intervals) {
    for (int64_t id = r.begin; id < r.end; ++id) {
      if (skip < skipped.size() && skipped[skip] == id) {
        ++skip;
      } else {
        out->push_back(id);
      }
    }
  }
}

AccessStats RetrieveBuckets(const BroadcastSchedule& schedule, int64_t t,
                            const std::vector<int64_t>& buckets,
                            IndexReadMode index_mode,
                            obs::TraceRecorder* trace) {
  AccessStats stats;
  const int64_t index_end =
      ProbeAndSearchIndex(schedule, t, index_mode, trace, &stats);

  // Step 3: data retrieval. A sorted list with no duplicates is walked in
  // place; anything else is canonicalized first.
  std::vector<int64_t> canonical;
  const std::vector<int64_t>* needed = &buckets;
  if (!kernels::IsSortedUniqueI64(buckets.data(), buckets.size())) {
    canonical = buckets;
    std::sort(canonical.begin(), canonical.end());
    canonical.erase(std::unique(canonical.begin(), canonical.end()),
                    canonical.end());
    needed = &canonical;
  }
  int64_t completion = index_end;
  for (int64_t bucket : *needed) {
    completion =
        std::max(completion, schedule.NextBucketSlot(index_end, bucket) + 1);
  }
  stats.tuning_time += static_cast<int64_t>(needed->size());
  stats.buckets_read = static_cast<int64_t>(needed->size());
  stats.access_latency = completion - t;
  if (trace != nullptr) trace->Span("bcast.data", index_end, completion);
  return stats;
}

AccessStats RetrieveBuckets(const BroadcastSchedule& schedule, int64_t t,
                            const BucketRetrieval& retrieval,
                            IndexReadMode index_mode,
                            obs::TraceRecorder* trace) {
  // The representation contract: ascending, disjoint, non-empty intervals
  // of valid ids; skips ascending, distinct and inside the intervals.
  int64_t prev_end = 0;
  size_t skip = 0;
  for (const BucketInterval& r : retrieval.intervals) {
    LBSQ_CHECK(r.begin >= prev_end && r.begin < r.end);
    for (; skip < retrieval.skipped.size() &&
           retrieval.skipped[skip] < r.end;
         ++skip) {
      LBSQ_CHECK(retrieval.skipped[skip] >= r.begin);
      LBSQ_CHECK(skip == 0 ||
                 retrieval.skipped[skip - 1] < retrieval.skipped[skip]);
    }
    prev_end = r.end;
  }
  LBSQ_CHECK(skip == retrieval.skipped.size());
  LBSQ_CHECK(prev_end <= schedule.num_data_buckets());

  AccessStats stats;
  const int64_t index_end =
      ProbeAndSearchIndex(schedule, t, index_mode, trace, &stats);

  // Step 3: data retrieval. From index_end the data buckets go by in cyclic
  // id order starting at the first one on the air, so the last kept bucket
  // before it arrives last; without one, the last kept bucket overall does.
  const int64_t count = retrieval.Count();
  int64_t completion = index_end;
  if (count > 0) {
    const BroadcastSchedule::Slot first = schedule.SlotAt(index_end);
    LBSQ_CHECK(first.kind == BroadcastSchedule::Slot::Kind::kData);
    int64_t last = LastKeptAtMost(retrieval, first.value - 1);
    if (last < 0) last = LastKeptAtMost(retrieval, prev_end - 1);
    completion = schedule.NextBucketSlot(index_end, last) + 1;
  }
  stats.tuning_time += count;
  stats.buckets_read = count;
  stats.access_latency = completion - t;
  if (trace != nullptr) trace->Span("bcast.data", index_end, completion);
  return stats;
}

}  // namespace lbsq::broadcast
