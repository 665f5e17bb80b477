#ifndef LBSQ_FAULT_FAULTY_CHANNEL_H_
#define LBSQ_FAULT_FAULTY_CHANNEL_H_

#include <cstdint>
#include <vector>

#include "broadcast/client_protocol.h"
#include "broadcast/schedule.h"
#include "common/observability.h"
#include "common/rng.h"
#include "fault/fault_model.h"

/// \file
/// The client access protocol over a faulty channel — the one model of
/// channel loss. A lost reception is retried at the bucket's next on-air
/// occurrence (wireless broadcast has no retransmission); losses are iid or
/// bursty (Gilbert–Elliott), CRC-detected corruption counts as a loss, and a
/// bounded retry/deadline policy lets the client give up on buckets whose
/// retry budget or slot deadline is exhausted and report them as *failed*,
/// so the query layer degrades gracefully (answer from what was received,
/// claim no verified knowledge it does not have).

namespace lbsq::fault {

/// Outcome of one faulty retrieval.
struct FaultyRetrievalResult {
  /// Latency/tuning/bucket accounting (failed attempts still cost tuning).
  broadcast::AccessStats stats;
  /// Bucket ids fully received (sorted, deduplicated).
  std::vector<int64_t> received;
  /// Bucket ids given up on (retry budget or deadline exhausted; sorted).
  std::vector<int64_t> failed;
  /// Receptions lost to the channel (index and data alike).
  int64_t losses = 0;
  /// Receptions received but discarded for failing the CRC32 frame check.
  int64_t corruptions = 0;
  /// True when the slot deadline cut the retrieval short.
  bool deadline_hit = false;

  /// True when every requested bucket (and the index) was received.
  bool complete() const { return failed.empty(); }
};

/// Per-query channel state: one fault RNG stream plus the burst-channel
/// Markov state, persisting across the retrievals a single query issues.
/// Construct one per query from `ChannelStreamSeed(seed, query_id)`; the
/// resulting fault schedule is then a pure function of (config, seed,
/// query id) — independent of engine, thread count, and other queries.
class ChannelSession {
 public:
  ChannelSession(const ChannelFaultConfig& channel, const FaultPolicy& policy,
                 uint64_t stream_seed);

  /// True when the session can perturb retrievals at all. When false,
  /// callers should use the fault-free RetrieveBuckets path (bit-identical
  /// behavior and trace output).
  bool channel_enabled() const { return channel_.enabled(); }

  /// RetrieveBuckets over this session's faulty channel:
  ///  1. initial probe (1 slot; assumed received — every bucket carries the
  ///     next-index pointer, so a single good slot suffices);
  ///  2. index search with whole-segment retries: the read fails if any of
  ///     its `index_mode` buckets is lost or corrupted, and the client dozes
  ///     to the next replica. An index that cannot be read within the retry
  ///     budget / deadline fails the entire retrieval (every bucket failed).
  ///  3. per-bucket data retrieval with retries at later occurrences, each
  ///     bucket bounded by `policy.max_retries_per_bucket` and all of them
  ///     by the `policy.deadline_slots` cutoff.
  ///
  /// A non-null `trace` receives the protocol-stage spans (`bcast.probe`,
  /// `bcast.index`, `bcast.data`) plus the fault counters `fault.losses`,
  /// `fault.corruptions`, `fault.failed_buckets`, and `fault.deadline_hit`.
  FaultyRetrievalResult Retrieve(const broadcast::BroadcastSchedule& schedule,
                                 int64_t t,
                                 const std::vector<int64_t>& buckets,
                                 broadcast::IndexReadMode index_mode,
                                 obs::TraceRecorder* trace = nullptr);

 private:
  /// Samples one reception: advances the loss process and the corruption
  /// draw. Returns 0 = received, 1 = lost, 2 = corrupted.
  int SampleReception();

  ChannelFaultConfig channel_;
  FaultPolicy policy_;
  Rng rng_;
  GilbertElliottChannel burst_;
};

}  // namespace lbsq::fault

#endif  // LBSQ_FAULT_FAULTY_CHANNEL_H_
