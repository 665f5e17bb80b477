#include "server/protocol.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "broadcast/wire.h"
#include "common/check.h"

namespace lbsq::server {

namespace {

/// Longest ERROR message accepted on decode — a hostile peer must not make
/// the client allocate unboundedly.
constexpr uint64_t kMaxErrorMessageBytes = 1024;

void PutRect(broadcast::ByteWriter* writer, const geom::Rect& rect) {
  writer->PutDouble(rect.x1);
  writer->PutDouble(rect.y1);
  writer->PutDouble(rect.x2);
  writer->PutDouble(rect.y2);
}

geom::Rect GetRect(broadcast::ByteReader* reader) {
  geom::Rect rect;
  rect.x1 = reader->GetDouble();
  rect.y1 = reader->GetDouble();
  rect.x2 = reader->GetDouble();
  rect.y2 = reader->GetDouble();
  return rect;
}

/// True when every coordinate of `rect` is finite: positions and windows
/// come from outside the program, and the engine's geometry assumes finite
/// coordinates.
bool Finite(const geom::Rect& rect) {
  return std::isfinite(rect.x1) && std::isfinite(rect.y1) &&
         std::isfinite(rect.x2) && std::isfinite(rect.y2);
}

/// True when the reader consumed the whole payload without error — every
/// decoder's success condition (trailing bytes are malformed input).
bool Consumed(const broadcast::ByteReader& reader) {
  return reader.ok() && reader.remaining() == 0;
}

}  // namespace

void AppendFrame(FrameType type, std::span<const uint8_t> payload,
                 std::vector<uint8_t>* out) {
  const uint64_t length = 1 + payload.size();
  LBSQ_CHECK(length <= kMaxFrameBytes);
  const uint32_t prefix = static_cast<uint32_t>(length);
  out->push_back(static_cast<uint8_t>(prefix & 0xFF));
  out->push_back(static_cast<uint8_t>((prefix >> 8) & 0xFF));
  out->push_back(static_cast<uint8_t>((prefix >> 16) & 0xFF));
  out->push_back(static_cast<uint8_t>((prefix >> 24) & 0xFF));
  out->push_back(static_cast<uint8_t>(type));
  out->insert(out->end(), payload.begin(), payload.end());
}

void FrameAssembler::Feed(const uint8_t* data, size_t size) {
  if (failed_) return;
  buffer_.insert(buffer_.end(), data, data + size);
}

FrameAssembler::Result FrameAssembler::Next(Frame* frame) {
  if (failed_) return Result::kError;
  const size_t available = buffer_.size() - consumed_;
  if (available < kFramePrefixBytes) return Result::kNeedMore;
  const uint8_t* p = buffer_.data() + consumed_;
  const uint32_t length = static_cast<uint32_t>(p[0]) |
                          (static_cast<uint32_t>(p[1]) << 8) |
                          (static_cast<uint32_t>(p[2]) << 16) |
                          (static_cast<uint32_t>(p[3]) << 24);
  if (length == 0) {
    failed_ = true;
    error_ = "frame length 0 (no type byte)";
    return Result::kError;
  }
  if (length > kMaxFrameBytes) {
    failed_ = true;
    error_ = "frame length exceeds limit";
    return Result::kError;
  }
  if (available < kFramePrefixBytes + length) return Result::kNeedMore;
  frame->type = static_cast<FrameType>(p[kFramePrefixBytes]);
  frame->payload.assign(p + kFramePrefixBytes + 1,
                        p + kFramePrefixBytes + length);
  consumed_ += kFramePrefixBytes + length;
  // Compact once the dead prefix dominates, so a long-lived session's
  // buffer stays proportional to its unparsed tail.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  return Result::kFrame;
}

std::vector<uint8_t> EncodeHello(const HelloRequest& hello) {
  broadcast::ByteWriter writer;
  writer.PutVarint(kProtocolMagic);
  writer.PutVarint(hello.min_version);
  writer.PutVarint(hello.max_version);
  return writer.bytes();
}

bool DecodeHello(std::span<const uint8_t> payload, HelloRequest* out) {
  broadcast::ByteReader reader(payload.data(), payload.size());
  if (reader.GetVarint() != kProtocolMagic) return false;
  const uint64_t min_version = reader.GetVarint();
  const uint64_t max_version = reader.GetVarint();
  if (!Consumed(reader)) return false;
  if (min_version == 0 || min_version > max_version) return false;
  if (max_version > UINT32_MAX) return false;
  out->min_version = static_cast<uint32_t>(min_version);
  out->max_version = static_cast<uint32_t>(max_version);
  return true;
}

std::vector<uint8_t> EncodeHelloAck(const HelloAck& ack) {
  broadcast::ByteWriter writer;
  writer.PutVarint(ack.version);
  writer.PutVarint(ack.num_shards);
  writer.PutVarint(ack.epoch);
  writer.PutVarint(ack.poi_count);
  PutRect(&writer, ack.world);
  return writer.bytes();
}

bool DecodeHelloAck(std::span<const uint8_t> payload, HelloAck* out) {
  broadcast::ByteReader reader(payload.data(), payload.size());
  const uint64_t version = reader.GetVarint();
  const uint64_t num_shards = reader.GetVarint();
  out->epoch = reader.GetVarint();
  out->poi_count = reader.GetVarint();
  out->world = GetRect(&reader);
  if (!Consumed(reader)) return false;
  if (version == 0 || version > UINT32_MAX) return false;
  if (num_shards == 0 || num_shards > UINT32_MAX) return false;
  out->version = static_cast<uint32_t>(version);
  out->num_shards = static_cast<uint32_t>(num_shards);
  return true;
}

std::vector<uint8_t> EncodeIndexProbe(const IndexProbe& probe) {
  broadcast::ByteWriter writer;
  writer.PutVarint(probe.shard);
  return writer.bytes();
}

bool DecodeIndexProbe(std::span<const uint8_t> payload, IndexProbe* out) {
  broadcast::ByteReader reader(payload.data(), payload.size());
  const uint64_t shard = reader.GetVarint();
  if (!Consumed(reader) || shard > UINT32_MAX) return false;
  out->shard = static_cast<uint32_t>(shard);
  return true;
}

std::vector<uint8_t> EncodeBucketGet(const BucketGet& get) {
  broadcast::ByteWriter writer;
  writer.PutVarint(get.shard);
  writer.PutVarint(get.bucket);
  return writer.bytes();
}

bool DecodeBucketGet(std::span<const uint8_t> payload, BucketGet* out) {
  broadcast::ByteReader reader(payload.data(), payload.size());
  const uint64_t shard = reader.GetVarint();
  out->bucket = reader.GetVarint();
  if (!Consumed(reader) || shard > UINT32_MAX) return false;
  out->shard = static_cast<uint32_t>(shard);
  return true;
}

std::vector<uint8_t> EncodeQueryCall(const QueryCall& call) {
  broadcast::ByteWriter writer;
  writer.PutVarint(call.request_id);
  writer.PutU8(call.kind == core::QueryKind::kKnn ? 0 : 1);
  writer.PutVarint(static_cast<uint64_t>(call.slot));
  if (call.kind == core::QueryKind::kKnn) {
    writer.PutDouble(call.position.x);
    writer.PutDouble(call.position.y);
    writer.PutVarint(static_cast<uint64_t>(call.k));
  } else {
    PutRect(&writer, call.window);
  }
  return writer.bytes();
}

bool DecodeQueryCall(std::span<const uint8_t> payload, QueryCall* out) {
  broadcast::ByteReader reader(payload.data(), payload.size());
  out->request_id = reader.GetVarint();
  const uint8_t kind = reader.GetU8();
  const uint64_t slot = reader.GetVarint();
  if (kind > 1 || slot > INT64_MAX) return false;
  out->slot = static_cast<int64_t>(slot);
  if (kind == 0) {
    // The encoding is kind-safe by construction: a kNN call cannot carry a
    // window nor a window call a k, so a decoded QueryCall always maps to a
    // well-formed core::QueryRequest.
    out->kind = core::QueryKind::kKnn;
    out->position.x = reader.GetDouble();
    out->position.y = reader.GetDouble();
    const uint64_t k = reader.GetVarint();
    if (k > INT32_MAX) return false;
    if (!std::isfinite(out->position.x) || !std::isfinite(out->position.y)) {
      return false;
    }
    out->k = static_cast<int>(k);
    out->window = geom::Rect();
  } else {
    out->kind = core::QueryKind::kWindow;
    out->window = GetRect(&reader);
    if (out->window.empty() || !Finite(out->window)) return false;
    out->position = geom::Point();
    out->k = 0;
  }
  return Consumed(reader);
}

std::vector<uint8_t> EncodeQueryAnswer(const QueryAnswer& answer) {
  broadcast::ByteWriter writer;
  writer.PutVarint(answer.request_id);
  writer.PutU8(answer.kind == core::QueryKind::kKnn ? 0 : 1);
  writer.PutVarint(answer.epoch);
  if (answer.kind == core::QueryKind::kKnn) {
    LBSQ_CHECK(answer.neighbor_ids.size() == answer.neighbor_distances.size());
    writer.PutVarint(answer.neighbor_ids.size());
    for (size_t i = 0; i < answer.neighbor_ids.size(); ++i) {
      writer.PutVarint(static_cast<uint64_t>(answer.neighbor_ids[i]));
      writer.PutDouble(answer.neighbor_distances[i]);
    }
  } else {
    writer.PutVarint(answer.poi_ids.size());
    for (const int64_t id : answer.poi_ids) {
      writer.PutVarint(static_cast<uint64_t>(id));
    }
  }
  writer.PutVarint(static_cast<uint64_t>(answer.access_latency));
  writer.PutVarint(static_cast<uint64_t>(answer.tuning_time));
  writer.PutVarint(static_cast<uint64_t>(answer.buckets_read));
  return writer.bytes();
}

bool DecodeQueryAnswer(std::span<const uint8_t> payload, QueryAnswer* out) {
  broadcast::ByteReader reader(payload.data(), payload.size());
  out->request_id = reader.GetVarint();
  const uint8_t kind = reader.GetU8();
  out->epoch = reader.GetVarint();
  if (kind > 1) return false;
  out->kind = kind == 0 ? core::QueryKind::kKnn : core::QueryKind::kWindow;
  out->neighbor_ids.clear();
  out->neighbor_distances.clear();
  out->poi_ids.clear();
  const uint64_t count = reader.GetVarint();
  // Each entry needs at least one encoded byte, so `remaining` bounds the
  // plausible count — rejecting hostile counts before reserving.
  if (!reader.ok() || count > reader.remaining()) return false;
  if (out->kind == core::QueryKind::kKnn) {
    out->neighbor_ids.reserve(count);
    out->neighbor_distances.reserve(count);
    for (uint64_t i = 0; i < count && reader.ok(); ++i) {
      const uint64_t id = reader.GetVarint();
      if (id > INT64_MAX) return false;
      out->neighbor_ids.push_back(static_cast<int64_t>(id));
      out->neighbor_distances.push_back(reader.GetDouble());
    }
  } else {
    out->poi_ids.reserve(count);
    for (uint64_t i = 0; i < count && reader.ok(); ++i) {
      const uint64_t id = reader.GetVarint();
      if (id > INT64_MAX) return false;
      out->poi_ids.push_back(static_cast<int64_t>(id));
    }
  }
  const uint64_t latency = reader.GetVarint();
  const uint64_t tuning = reader.GetVarint();
  const uint64_t buckets = reader.GetVarint();
  if (!Consumed(reader)) return false;
  if (latency > INT64_MAX || tuning > INT64_MAX || buckets > INT64_MAX) {
    return false;
  }
  out->access_latency = static_cast<int64_t>(latency);
  out->tuning_time = static_cast<int64_t>(tuning);
  out->buckets_read = static_cast<int64_t>(buckets);
  return true;
}

std::vector<uint8_t> EncodeRetryAfter(const RetryAfter& retry) {
  broadcast::ByteWriter writer;
  writer.PutVarint(retry.request_id);
  writer.PutVarint(retry.delay_ms);
  return writer.bytes();
}

bool DecodeRetryAfter(std::span<const uint8_t> payload, RetryAfter* out) {
  broadcast::ByteReader reader(payload.data(), payload.size());
  out->request_id = reader.GetVarint();
  const uint64_t delay = reader.GetVarint();
  if (!Consumed(reader) || delay > UINT32_MAX) return false;
  out->delay_ms = static_cast<uint32_t>(delay);
  return true;
}

std::vector<uint8_t> EncodeErrorReply(const ErrorReply& error) {
  broadcast::ByteWriter writer;
  writer.PutVarint(static_cast<uint64_t>(error.code));
  writer.PutVarint(error.message.size());
  writer.PutBytes(reinterpret_cast<const uint8_t*>(error.message.data()),
                  error.message.size());
  return writer.bytes();
}

bool DecodeErrorReply(std::span<const uint8_t> payload, ErrorReply* out) {
  broadcast::ByteReader reader(payload.data(), payload.size());
  const uint64_t code = reader.GetVarint();
  const uint64_t length = reader.GetVarint();
  if (!reader.ok() || code > UINT32_MAX) return false;
  if (length > kMaxErrorMessageBytes || length > reader.remaining()) {
    return false;
  }
  out->code = static_cast<ErrorCode>(code);
  out->message.clear();
  out->message.reserve(length);
  for (uint64_t i = 0; i < length; ++i) {
    out->message.push_back(static_cast<char>(reader.GetU8()));
  }
  return Consumed(reader);
}

std::vector<uint8_t> EncodeIndexData(
    uint32_t shard, const std::vector<broadcast::AirIndex::Entry>& entries,
    uint64_t epoch) {
  broadcast::ByteWriter writer;
  writer.PutVarint(shard);
  const std::vector<uint8_t> segment =
      broadcast::EncodeIndexSegmentFramed(entries, epoch);
  writer.PutBytes(segment.data(), segment.size());
  return writer.bytes();
}

bool DecodeIndexData(std::span<const uint8_t> payload, uint32_t* shard,
                     std::vector<broadcast::AirIndex::Entry>* entries,
                     uint64_t* epoch) {
  broadcast::ByteReader reader(payload.data(), payload.size());
  const uint64_t shard_value = reader.GetVarint();
  if (!reader.ok() || shard_value > UINT32_MAX) return false;
  *shard = static_cast<uint32_t>(shard_value);
  const size_t offset = payload.size() - reader.remaining();
  return broadcast::DecodeIndexSegmentFramed(payload.data() + offset,
                                             payload.size() - offset, entries,
                                             epoch);
}

std::vector<uint8_t> EncodeBucketData(uint32_t shard,
                                      const broadcast::DataBucket& bucket) {
  broadcast::ByteWriter writer;
  writer.PutVarint(shard);
  const std::vector<uint8_t> framed = broadcast::EncodeBucketFramed(bucket);
  writer.PutBytes(framed.data(), framed.size());
  return writer.bytes();
}

bool DecodeBucketData(std::span<const uint8_t> payload, uint32_t* shard,
                      broadcast::DataBucket* bucket) {
  broadcast::ByteReader reader(payload.data(), payload.size());
  const uint64_t shard_value = reader.GetVarint();
  if (!reader.ok() || shard_value > UINT32_MAX) return false;
  *shard = static_cast<uint32_t>(shard_value);
  const size_t offset = payload.size() - reader.remaining();
  return broadcast::DecodeBucketFramed(payload.data() + offset,
                                       payload.size() - offset, bucket);
}

QueryAnswer BuildAnswer(const QueryCall& call,
                        const core::QueryOutcome& outcome) {
  QueryAnswer answer;
  answer.request_id = call.request_id;
  answer.kind = call.kind;
  answer.epoch = outcome.Cacheable().epoch;
  if (call.kind == core::QueryKind::kKnn) {
    answer.neighbor_ids.reserve(outcome.knn->neighbors.size());
    answer.neighbor_distances.reserve(outcome.knn->neighbors.size());
    for (const spatial::PoiDistance& n : outcome.knn->neighbors) {
      answer.neighbor_ids.push_back(n.poi.id);
      answer.neighbor_distances.push_back(n.distance);
    }
  } else {
    answer.poi_ids.reserve(outcome.window->pois.size());
    for (const spatial::Poi& p : outcome.window->pois) {
      answer.poi_ids.push_back(p.id);
    }
  }
  const broadcast::AccessStats& stats = outcome.Stats();
  answer.access_latency = stats.access_latency;
  answer.tuning_time = stats.tuning_time;
  answer.buckets_read = stats.buckets_read;
  return answer;
}

}  // namespace lbsq::server
