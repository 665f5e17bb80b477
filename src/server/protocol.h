#ifndef LBSQ_SERVER_PROTOCOL_H_
#define LBSQ_SERVER_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "broadcast/air_index.h"
#include "broadcast/packet.h"
#include "core/query_engine.h"
#include "geom/point.h"
#include "geom/rect.h"

/// \file
/// The lbsq_server wire protocol: length-prefixed binary frames carrying
/// the three-step broadcast access vocabulary (hello/version negotiation →
/// index probe → bucket retrieval → query answer) over a byte stream.
///
/// Frame layout (little-endian):
///   frame := u32le length | u8 type | payload
/// where `length` counts the type byte plus the payload (so a frame is
/// `4 + length` bytes on the wire) and is bounded by kMaxFrameBytes — a
/// prefix above the bound is a protocol error, not a large allocation.
///
/// Payloads reuse the broadcast wire primitives (`broadcast::ByteWriter` /
/// `ByteReader`: LEB128 varints, little-endian binary64) and, for the bulk
/// types, the broadcast wire format itself: INDEX_DATA and BUCKET_DATA
/// carry `EncodeIndexSegmentFramed` / `EncodeBucketFramed` bytes verbatim
/// (CRC-32 trailer included), so a client downloads exactly what the
/// broadcast channel would transmit.
///
/// Version negotiation mirrors the broadcast wire's versioning: protocol
/// v1 serves epoch-free (wire v1) frames and suits static-world clients;
/// v2 adds the epoch tags (wire v2 frames when the epoch is nonzero). The
/// client's HELLO carries its [min, max] supported range; the server picks
/// the highest version both sides support, or rejects the session.
///
/// Every decoder here is bounds-checked and total: malformed client input
/// yields a `false` return (and an ERROR frame + close at the session
/// layer), never an LBSQ_CHECK abort — the server must survive arbitrary
/// bytes from the network.

namespace lbsq::server {

/// 'LBSQ' — leads every HELLO payload.
inline constexpr uint32_t kProtocolMagic = 0x5153424Cu;
/// Supported protocol versions (see the versioning note above).
inline constexpr uint32_t kProtocolVersionMin = 1;
inline constexpr uint32_t kProtocolVersionMax = 2;
/// Upper bound on `length` (type byte + payload). Frames are query answers
/// and single broadcast buckets/segments — 1 MiB is generous; anything
/// larger is a corrupt or hostile prefix.
inline constexpr uint32_t kMaxFrameBytes = 1u << 20;
/// Bytes of the length prefix.
inline constexpr size_t kFramePrefixBytes = 4;

/// Frame types. Client-initiated types have the high bit clear, server
/// replies have it set.
enum class FrameType : uint8_t {
  kHello = 0x01,
  kIndexProbe = 0x02,
  kBucketGet = 0x03,
  kQuery = 0x04,
  kBye = 0x05,

  kHelloAck = 0x81,
  kIndexData = 0x82,
  kBucketData = 0x83,
  kAnswer = 0x84,
  kRetryAfter = 0x85,
  kError = 0x8F,
};

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kError;
  std::vector<uint8_t> payload;
};

/// Appends the wire encoding of one frame to `*out`.
void AppendFrame(FrameType type, std::span<const uint8_t> payload,
                 std::vector<uint8_t>* out);

/// Incremental frame parser: feed stream bytes in arbitrary chunks,
/// extract complete frames. A malformed prefix (length of 0 — no type
/// byte — or above kMaxFrameBytes) latches the error state; the stream
/// cannot be resynchronized after that.
class FrameAssembler {
 public:
  enum class Result {
    kFrame,     ///< *frame was filled with the next complete frame.
    kNeedMore,  ///< No complete frame buffered; feed more bytes.
    kError,     ///< Malformed prefix; the error state is latched.
  };

  /// Appends `size` stream bytes.
  void Feed(const uint8_t* data, size_t size);
  /// Extracts the next complete frame.
  Result Next(Frame* frame);
  /// Human-readable reason after kError.
  const std::string& error() const { return error_; }

 private:
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;
  bool failed_ = false;
  std::string error_;
};

/// HELLO: magic, then the client's supported version range.
struct HelloRequest {
  uint32_t min_version = kProtocolVersionMin;
  uint32_t max_version = kProtocolVersionMax;
};

/// HELLO_ACK: the negotiated version plus the deployment facts a client
/// needs before its first probe.
struct HelloAck {
  uint32_t version = 0;
  uint32_t num_shards = 0;
  uint64_t epoch = 0;
  uint64_t poi_count = 0;
  geom::Rect world;
};

/// INDEX_PROBE: which shard's air-index directory to fetch.
struct IndexProbe {
  uint32_t shard = 0;
};

/// BUCKET_GET: one data bucket of one shard's broadcast cycle.
struct BucketGet {
  uint32_t shard = 0;
  uint64_t bucket = 0;
};

/// QUERY: one location-based query. `request_id` is echoed on the answer
/// (and on RETRY_AFTER) so a pipelining client can match replies that
/// arrive out of order across workers. DecodeQueryCall rejects a position
/// or window with a coordinate that is not finite.
struct QueryCall {
  uint64_t request_id = 0;
  core::QueryKind kind = core::QueryKind::kKnn;
  geom::Point position;
  int k = 0;
  geom::Rect window;
  int64_t slot = 0;
};

/// ANSWER: the answer plane of one query (ids + distance bit patterns for
/// kNN, ids in canonical order for windows — exactly what the simulator's
/// answer digest folds), the epoch stamp, and the broadcast cost.
struct QueryAnswer {
  uint64_t request_id = 0;
  core::QueryKind kind = core::QueryKind::kKnn;
  uint64_t epoch = 0;
  /// kNN answer in canonical (distance, id) order.
  std::vector<int64_t> neighbor_ids;
  std::vector<double> neighbor_distances;
  /// Window answer in canonical id order.
  std::vector<int64_t> poi_ids;
  /// Broadcast cost of the answer (multi-shard conventions).
  int64_t access_latency = 0;
  int64_t tuning_time = 0;
  int64_t buckets_read = 0;
};

/// RETRY_AFTER: the server shed this request (worker queue or per-session
/// in-flight budget full); retry after the suggested delay.
struct RetryAfter {
  uint64_t request_id = 0;
  uint32_t delay_ms = 0;
};

/// ERROR reply codes. Every ERROR closes the session.
enum class ErrorCode : uint32_t {
  kBadMagic = 1,
  kVersionMismatch = 2,
  kBadState = 3,
  kMalformedPayload = 4,
  kBadShard = 5,
  kBadBucket = 6,
  kShuttingDown = 7,
};

struct ErrorReply {
  ErrorCode code = ErrorCode::kMalformedPayload;
  std::string message;
};

/// Payload encoders (frame payload only — wrap with AppendFrame). Each
/// decoder returns false on any malformed payload (truncation, trailing
/// bytes, out-of-range values) without touching process state.
std::vector<uint8_t> EncodeHello(const HelloRequest& hello);
bool DecodeHello(std::span<const uint8_t> payload, HelloRequest* out);

std::vector<uint8_t> EncodeHelloAck(const HelloAck& ack);
bool DecodeHelloAck(std::span<const uint8_t> payload, HelloAck* out);

std::vector<uint8_t> EncodeIndexProbe(const IndexProbe& probe);
bool DecodeIndexProbe(std::span<const uint8_t> payload, IndexProbe* out);

std::vector<uint8_t> EncodeBucketGet(const BucketGet& get);
bool DecodeBucketGet(std::span<const uint8_t> payload, BucketGet* out);

std::vector<uint8_t> EncodeQueryCall(const QueryCall& call);
bool DecodeQueryCall(std::span<const uint8_t> payload, QueryCall* out);

std::vector<uint8_t> EncodeQueryAnswer(const QueryAnswer& answer);
bool DecodeQueryAnswer(std::span<const uint8_t> payload, QueryAnswer* out);

std::vector<uint8_t> EncodeRetryAfter(const RetryAfter& retry);
bool DecodeRetryAfter(std::span<const uint8_t> payload, RetryAfter* out);

std::vector<uint8_t> EncodeErrorReply(const ErrorReply& error);
bool DecodeErrorReply(std::span<const uint8_t> payload, ErrorReply* out);

/// INDEX_DATA payload: varint shard, then the framed broadcast-wire index
/// segment verbatim. `entries` + `epoch` come from the shard's system; a
/// v1 session always serves epoch-free (wire v1) segments.
std::vector<uint8_t> EncodeIndexData(
    uint32_t shard, const std::vector<broadcast::AirIndex::Entry>& entries,
    uint64_t epoch);
bool DecodeIndexData(std::span<const uint8_t> payload, uint32_t* shard,
                     std::vector<broadcast::AirIndex::Entry>* entries,
                     uint64_t* epoch);

/// BUCKET_DATA payload: varint shard, then the framed broadcast-wire
/// bucket verbatim.
std::vector<uint8_t> EncodeBucketData(uint32_t shard,
                                      const broadcast::DataBucket& bucket);
bool DecodeBucketData(std::span<const uint8_t> payload, uint32_t* shard,
                      broadcast::DataBucket* bucket);

/// Builds the ANSWER for one executed query: copies the outcome's answer
/// plane (in its canonical order) and cost stats. Shared by the server
/// workers and the in-process tests.
QueryAnswer BuildAnswer(const QueryCall& call,
                        const core::QueryOutcome& outcome);

}  // namespace lbsq::server

#endif  // LBSQ_SERVER_PROTOCOL_H_
