#include "server/session.h"

#include <algorithm>

#include "broadcast/system.h"

namespace lbsq::server {

void ServerCounters::ExportTo(MetricsRegistry* registry) const {
  registry->IncrementCounter("server.sessions_opened",
                             sessions_opened.load(std::memory_order_relaxed));
  registry->IncrementCounter("server.sessions_closed",
                             sessions_closed.load(std::memory_order_relaxed));
  registry->IncrementCounter("server.frames_received",
                             frames_received.load(std::memory_order_relaxed));
  registry->IncrementCounter("server.frames_sent",
                             frames_sent.load(std::memory_order_relaxed));
  registry->IncrementCounter("server.bytes_received",
                             bytes_received.load(std::memory_order_relaxed));
  registry->IncrementCounter("server.bytes_sent",
                             bytes_sent.load(std::memory_order_relaxed));
  registry->IncrementCounter("server.queries_executed",
                             queries_executed.load(std::memory_order_relaxed));
  registry->IncrementCounter("server.queries_inline",
                             queries_inline.load(std::memory_order_relaxed));
  registry->IncrementCounter("server.index_probes",
                             index_probes.load(std::memory_order_relaxed));
  registry->IncrementCounter("server.buckets_served",
                             buckets_served.load(std::memory_order_relaxed));
  registry->IncrementCounter("server.retry_after_sent",
                             retry_after_sent.load(std::memory_order_relaxed));
  registry->IncrementCounter("server.protocol_errors",
                             protocol_errors.load(std::memory_order_relaxed));
}

void Session::Fail(ErrorCode code, const char* message,
                   std::vector<uint8_t>* out, FrameResult* result) {
  ErrorReply error;
  error.code = code;
  error.message = message;
  AppendFrame(FrameType::kError, EncodeErrorReply(error), out);
  context_.counters->frames_sent.fetch_add(1, std::memory_order_relaxed);
  context_.counters->protocol_errors.fetch_add(1, std::memory_order_relaxed);
  state_ = State::kClosed;
  result->close = true;
}

FrameResult Session::OnFrame(const Frame& frame, std::vector<uint8_t>* out) {
  FrameResult result;
  context_.counters->frames_received.fetch_add(1, std::memory_order_relaxed);
  if (state_ == State::kClosed) {
    result.close = true;
    return result;
  }

  if (state_ == State::kAwaitHello) {
    if (frame.type != FrameType::kHello) {
      Fail(ErrorCode::kBadState, "expected HELLO", out, &result);
      return result;
    }
    HelloRequest hello;
    if (!DecodeHello(frame.payload, &hello)) {
      Fail(ErrorCode::kBadMagic, "malformed HELLO", out, &result);
      return result;
    }
    const uint32_t lo = std::max(hello.min_version, kProtocolVersionMin);
    const uint32_t hi = std::min(hello.max_version, kProtocolVersionMax);
    if (lo > hi) {
      Fail(ErrorCode::kVersionMismatch, "no common protocol version", out,
           &result);
      return result;
    }
    version_ = hi;
    HelloAck ack;
    ack.version = version_;
    ack.num_shards = static_cast<uint32_t>(context_.engine->num_shards());
    // v1 predates epochs: it serves epoch-free wire frames, so advertise
    // epoch 0 rather than a value the session cannot express.
    ack.epoch = version_ >= 2 ? context_.epoch : 0;
    ack.poi_count = context_.engine->total_pois();
    ack.world = context_.engine->world();
    AppendFrame(FrameType::kHelloAck, EncodeHelloAck(ack), out);
    context_.counters->frames_sent.fetch_add(1, std::memory_order_relaxed);
    state_ = State::kReady;
    return result;
  }

  // kReady.
  switch (frame.type) {
    case FrameType::kHello:
      Fail(ErrorCode::kBadState, "duplicate HELLO", out, &result);
      return result;

    case FrameType::kIndexProbe: {
      IndexProbe probe;
      if (!DecodeIndexProbe(frame.payload, &probe)) {
        Fail(ErrorCode::kMalformedPayload, "malformed INDEX_PROBE", out,
             &result);
        return result;
      }
      if (probe.shard >= static_cast<uint32_t>(context_.engine->num_shards())) {
        Fail(ErrorCode::kBadShard, "shard out of range", out, &result);
        return result;
      }
      const broadcast::BroadcastSystem* system =
          context_.engine->shard_system(static_cast<int>(probe.shard));
      static const std::vector<broadcast::AirIndex::Entry> kEmptyDirectory;
      const std::vector<broadcast::AirIndex::Entry>& entries =
          system != nullptr ? system->index().entries() : kEmptyDirectory;
      const uint64_t epoch =
          version_ >= 2 && system != nullptr ? system->epoch() : 0;
      AppendFrame(FrameType::kIndexData,
                  EncodeIndexData(probe.shard, entries, epoch), out);
      context_.counters->frames_sent.fetch_add(1, std::memory_order_relaxed);
      context_.counters->index_probes.fetch_add(1, std::memory_order_relaxed);
      return result;
    }

    case FrameType::kBucketGet: {
      BucketGet get;
      if (!DecodeBucketGet(frame.payload, &get)) {
        Fail(ErrorCode::kMalformedPayload, "malformed BUCKET_GET", out,
             &result);
        return result;
      }
      if (get.shard >= static_cast<uint32_t>(context_.engine->num_shards())) {
        Fail(ErrorCode::kBadShard, "shard out of range", out, &result);
        return result;
      }
      const broadcast::BroadcastSystem* system =
          context_.engine->shard_system(static_cast<int>(get.shard));
      if (system == nullptr || get.bucket >= system->buckets().size()) {
        Fail(ErrorCode::kBadBucket, "bucket out of range", out, &result);
        return result;
      }
      broadcast::DataBucket bucket =
          system->buckets()[static_cast<size_t>(get.bucket)];
      // v1 sessions get epoch-free (wire v1) frames regardless of the
      // channel's stamp, mirroring the broadcast wire's legacy format.
      if (version_ < 2) bucket.epoch = 0;
      AppendFrame(FrameType::kBucketData, EncodeBucketData(get.shard, bucket),
                  out);
      context_.counters->frames_sent.fetch_add(1, std::memory_order_relaxed);
      context_.counters->buckets_served.fetch_add(1,
                                                  std::memory_order_relaxed);
      return result;
    }

    case FrameType::kQuery: {
      QueryCall call;
      if (!DecodeQueryCall(frame.payload, &call)) {
        Fail(ErrorCode::kMalformedPayload, "malformed QUERY", out, &result);
        return result;
      }
      result.queries.push_back(call);
      return result;
    }

    case FrameType::kBye:
      state_ = State::kClosed;
      result.close = true;
      return result;

    default:
      Fail(ErrorCode::kBadState, "unexpected frame type", out, &result);
      return result;
  }
}

}  // namespace lbsq::server
