#ifndef LBSQ_SERVER_SESSION_H_
#define LBSQ_SERVER_SESSION_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/metrics_registry.h"
#include "core/sharded_query_engine.h"
#include "server/protocol.h"

/// \file
/// The per-session protocol state machine, socket-free: it consumes decoded
/// frames and appends reply bytes to a caller-provided buffer, so the exact
/// logic the server runs is drivable byte-for-byte from unit tests (and
/// from an in-process transport) without a network.
///
/// State machine:
///
///   kAwaitHello --HELLO(version ok)--> kReady --BYE/error--> kClosed
///        |                               |
///        +--- anything else: ERROR ------+--- INDEX_PROBE -> INDEX_DATA
///             frame, then kClosed        +--- BUCKET_GET  -> BUCKET_DATA
///                                        +--- QUERY       -> (dispatched)
///
/// Index probes and bucket gets are answered inline — they are pure reads
/// of the immutable broadcast systems. QUERY frames are *not* executed
/// here: the session decodes and hands them up via `FrameResult::queries`,
/// and the owner (the server, or the test harness) executes and
/// encodes the ANSWER. Every protocol violation emits one ERROR frame and
/// closes the session; the server never aborts on client bytes.

namespace lbsq::server {

/// Monotonic server-wide counters. Workers and the network thread bump
/// them lock-free; `ExportTo` snapshots them into a MetricsRegistry (which
/// is single-threaded by design, so the export runs on one thread).
struct ServerCounters {
  std::atomic<int64_t> sessions_opened{0};
  std::atomic<int64_t> sessions_closed{0};
  std::atomic<int64_t> frames_received{0};
  std::atomic<int64_t> frames_sent{0};
  std::atomic<int64_t> bytes_received{0};
  std::atomic<int64_t> bytes_sent{0};
  /// Every query answered, on a worker or on the network thread.
  std::atomic<int64_t> queries_executed{0};
  /// The share of `queries_executed` the network thread answered itself
  /// (a poll round's lone query; see server.h).
  std::atomic<int64_t> queries_inline{0};
  std::atomic<int64_t> index_probes{0};
  std::atomic<int64_t> buckets_served{0};
  std::atomic<int64_t> retry_after_sent{0};
  std::atomic<int64_t> protocol_errors{0};

  void ExportTo(MetricsRegistry* registry) const;
};

/// Immutable facts a session needs, shared across all sessions.
struct SessionContext {
  const core::ShardedQueryEngine* engine = nullptr;
  /// Epoch advertised in HELLO_ACK (the engine's pinned epoch).
  uint64_t epoch = 0;
  ServerCounters* counters = nullptr;
};

/// What one inbound frame produced (besides reply bytes).
struct FrameResult {
  /// The session must be closed (BYE, or a protocol error after the ERROR
  /// frame was appended).
  bool close = false;
  /// Decoded queries to dispatch (at most one per frame today; a vector so
  /// batching extensions don't change the signature).
  std::vector<QueryCall> queries;
};

class Session {
 public:
  enum class State { kAwaitHello, kReady, kClosed };

  explicit Session(const SessionContext& context) : context_(context) {}

  State state() const { return state_; }
  /// Negotiated protocol version (0 before a successful HELLO).
  uint32_t version() const { return version_; }

  /// Handles one inbound frame; appends any reply frames (wire bytes) to
  /// `*out`. Counters for frames/errors are bumped here; the transport owns
  /// byte counters.
  FrameResult OnFrame(const Frame& frame, std::vector<uint8_t>* out);

 private:
  /// Appends an ERROR frame and moves to kClosed.
  void Fail(ErrorCode code, const char* message, std::vector<uint8_t>* out,
            FrameResult* result);

  SessionContext context_;
  State state_ = State::kAwaitHello;
  uint32_t version_ = 0;
};

}  // namespace lbsq::server

#endif  // LBSQ_SERVER_SESSION_H_
