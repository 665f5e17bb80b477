#ifndef LBSQ_BROADCAST_CLIENT_PROTOCOL_H_
#define LBSQ_BROADCAST_CLIENT_PROTOCOL_H_

#include <cstdint>
#include <vector>

#include "broadcast/schedule.h"
#include "common/observability.h"

/// \file
/// The client side of the general broadcast access protocol (Imielinski et
/// al.): initial probe, index search, data retrieval. Produces the two
/// metrics that characterize the broadcast model: access latency (time from
/// query to last needed bucket) and tuning time (time spent listening, a
/// proxy for power consumption).

namespace lbsq::broadcast {

/// Outcome of one retrieval. All times in slots.
struct AccessStats {
  /// Slots from the query instant until the last needed bucket has been
  /// fully received (0 when nothing was retrieved).
  int64_t access_latency = 0;
  /// Slots spent with the receiver on: the initial probe, one full index
  /// segment, and one slot per retrieved data bucket.
  int64_t tuning_time = 0;
  /// Number of data buckets downloaded.
  int64_t buckets_read = 0;

  /// Accumulates another retrieval's cost (latencies add: retrievals in one
  /// query are sequential).
  void Accumulate(const AccessStats& other) {
    access_latency += other.access_latency;
    tuning_time += other.tuning_time;
    buckets_read += other.buckets_read;
  }
};

/// How much of an index segment the client must read during the index-search
/// step. Replaces the old `index_read_buckets` integer whose magic value -1
/// meant "the whole segment".
struct IndexReadMode {
  enum class Kind {
    /// Flat directory: the client reads the entire index segment.
    kFlatDirectory,
    /// Hierarchical air index: the client reads only the root-to-leaf path
    /// buckets (`buckets` of them), dozing in between.
    kTreePaths,
  };

  Kind kind = Kind::kFlatDirectory;
  /// Index buckets actually read (kTreePaths only).
  int64_t buckets = 0;

  static IndexReadMode FlatDirectory() { return IndexReadMode{}; }
  static IndexReadMode TreePaths(int64_t buckets) {
    return IndexReadMode{Kind::kTreePaths, buckets};
  }

  /// Index buckets read under this mode for the given schedule.
  int64_t BucketsToRead(const BroadcastSchedule& schedule) const {
    return kind == Kind::kFlatDirectory ? schedule.index_buckets() : buckets;
  }
};

/// Simulates retrieving `buckets` (data bucket ids, duplicates allowed)
/// starting at slot `t`:
///  1. initial probe: listen to the current slot to learn the offset of the
///     next index segment (1 slot of tuning);
///  2. index search: doze until the segment starts, then read the part of it
///     `index_mode` prescribes — the whole segment for a flat directory (the
///     default), or just the root-to-leaf paths for a tree index (the client
///     dozes between path buckets; data retrieval still begins at the end of
///     the segment);
///  3. data retrieval: doze between needed buckets, waking for each (1 slot
///     of tuning per distinct bucket).
/// With an empty bucket set the client still pays steps 1-2 (it cannot know
/// the set is empty without the index).
///
/// A non-null `trace` receives one span per protocol stage (`bcast.probe`,
/// `bcast.index`, `bcast.data`, in slots).
AccessStats RetrieveBuckets(const BroadcastSchedule& schedule, int64_t t,
                            const std::vector<int64_t>& buckets,
                            IndexReadMode index_mode = IndexReadMode{},
                            obs::TraceRecorder* trace = nullptr);

}  // namespace lbsq::broadcast

#endif  // LBSQ_BROADCAST_CLIENT_PROTOCOL_H_
