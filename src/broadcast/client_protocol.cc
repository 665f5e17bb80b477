#include "broadcast/client_protocol.h"

#include <algorithm>

#include "common/check.h"
#include "kernels/kernels.h"

namespace lbsq::broadcast {

AccessStats RetrieveBuckets(const BroadcastSchedule& schedule, int64_t t,
                            const std::vector<int64_t>& buckets,
                            IndexReadMode index_mode,
                            obs::TraceRecorder* trace) {
  LBSQ_CHECK(t >= 0);
  const int64_t index_read_buckets = index_mode.BucketsToRead(schedule);
  LBSQ_CHECK(index_read_buckets >= 0);
  LBSQ_CHECK(index_read_buckets <= schedule.index_buckets());
  AccessStats stats;

  // Step 1: initial probe. The client listens to the slot in progress; every
  // bucket carries a pointer to the next index segment.
  stats.tuning_time += 1;
  const int64_t after_probe = t + 1;
  if (trace != nullptr) trace->Span("bcast.probe", t, after_probe);

  // Step 2: index search. Read the needed part of the next index segment
  // (dozing between tree-path buckets when a hierarchical index is in use).
  const int64_t index_start = schedule.NextIndexSegmentStart(after_probe);
  const int64_t index_end = index_start + schedule.index_buckets();
  stats.tuning_time += index_read_buckets;
  if (trace != nullptr) trace->Span("bcast.index", index_start, index_end);

  // Step 3: data retrieval. A sorted list with no duplicates is walked in
  // place; the query engine always passes one, so this vectorized scan is
  // the common case and the copy below is cold-path only.
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

}  // namespace lbsq::broadcast
