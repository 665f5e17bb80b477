// wire_la: an in-process lbsq server over the full-scale Table-3 LA world,
// driven open-loop over loopback.
//
// The server runs the default deployment (1 network thread, 2 workers) over
// one shard built from the simulator's POI stream. One load thread replays
// the simulator's peerless mixed kNN/window workload on 2 connections, each
// re-handshaking every 256 queries, at the Poisson arrival times rescaled to
// a fixed offered rate. Every request is timed from its due time, so a
// stalled server or generator shows up in the latency of the requests
// behind it. Every answer is compared with an in-process replay of the same
// calls through Session::OnFrame -> ShardedQueryEngine::Execute ->
// BuildAnswer/EncodeQueryAnswer/AppendFrame. Closed-loop bursts between the
// open-loop segments measure the saturated rate.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_logic.h"
#include "broadcast/wire.h"
#include "common/rng.h"
#include "core/query_workspace.h"
#include "core/sharded_query_engine.h"
#include "server/load_gen.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/session.h"
#include "sim/config.h"
#include "sim/query_exec.h"
#include "sim/workload.h"
#include "spatial/generators.h"
#include "storage/system_builder.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace lbsq;

constexpr double kWorldSide = 20.0;  // Table 3 at full scale
constexpr int kWorkers = 2;          // lbsq_server's default deployment
constexpr int kConnections = 2;
constexpr size_t kQueriesPerSession = 256;
/// Distinct queries; longer runs replay them cyclically.
constexpr size_t kEvents = 8192;
/// The fixed reporting rung, about a third of the capacity measured on a
/// 4-core x86-64 host when the benchmark was defined.
constexpr double kReportRateQps = 4000.0;
/// Capacity ladder: 2000 q/s in 6% steps up to ~20k q/s.
constexpr double kLadderBaseQps = 2000.0;
constexpr double kLadderStep = 1.06;
constexpr int kLadderRungs = 40;
/// A rung passes when its p99 round trip stays within this limit...
constexpr double kP99LimitUs = 2000.0;
/// ...and is valid only while the generator kept to its schedule.
constexpr double kMaxSendLagP99Us = 200.0;
/// A rung's p99 is the median of the p99s of its windows of 1000
/// consecutive requests (the fewest with 10 samples beyond p99), so one
/// scheduling stall on the host moves one window, not the rung.
constexpr size_t kWindowRequests = 1000;
constexpr size_t kMinRungWindows = 3;
/// Answers later than this after the last due time mean a growing backlog.
constexpr int64_t kDrainNs = 50'000'000;
/// Set-up is timed this many times at the start and again after every
/// reporting segment, so its median spans the whole run.
constexpr int kSetupRepeats = 5;

sim::SimConfig WireConfig(uint64_t seed) {
  sim::SimConfig config;
  config.params = sim::LosAngelesCity();
  config.world_side_mi = kWorldSide;
  config.query_type = sim::QueryType::kMixed;
  config.warmup_min = 0.0;
  // ~6.2k queries/min at full scale: 2 minutes hold more than kEvents.
  config.duration_min = 2.0;
  config.seed = seed;
  return config;
}

geom::Rect World() { return geom::Rect{0.0, 0.0, kWorldSide, kWorldSide}; }

std::unique_ptr<core::ShardedQueryEngine> BuildEngine(
    const sim::SimConfig& config) {
  Rng poi_rng(DeriveStreamSeed(config.seed, sim::kStreamPois));
  std::vector<spatial::Poi> pois = spatial::GenerateUniformPois(
      &poi_rng, World(), config.ScaledPoiCount());
  storage::SystemBuilder builder(World(), config.broadcast);
  builder.SetOptions(sim::EngineOptionsFromConfig(config));
  return builder.BuildFromPois(std::move(pois));
}

/// The peerless query stream: one QUERY per measured event of the
/// simulator's workload, with the querying host's position at that time.
struct Workload {
  std::vector<double> arrival_min;
  std::vector<std::vector<uint8_t>> payloads;  // QUERY payloads
  std::vector<std::vector<uint8_t>> frames;    // the same, framed
};

Workload MakeWorkload(const sim::SimConfig& config) {
  const std::vector<sim::QueryEvent> events =
      sim::GenerateWorkload(config, World());
  const std::unique_ptr<sim::MobilityModel> mobility =
      sim::MakeMobilityModel(config, World());
  Workload w;
  for (const sim::QueryEvent& event : events) {
    if (w.payloads.size() == kEvents) break;
    server::QueryCall call;
    call.request_id = w.payloads.size();
    call.slot =
        static_cast<int64_t>(event.time_min * config.slots_per_second * 60.0);
    if (event.type == sim::QueryType::kKnn) {
      call.kind = core::QueryKind::kKnn;
      call.position = mobility->Position(event.host, event.time_min);
      call.k = event.k;
    } else {
      call.kind = core::QueryKind::kWindow;
      call.window = event.window;
    }
    w.arrival_min.push_back(event.time_min);
    w.payloads.push_back(server::EncodeQueryCall(call));
    std::vector<uint8_t> frame;
    server::AppendFrame(server::FrameType::kQuery, w.payloads.back(), &frame);
    w.frames.push_back(std::move(frame));
  }
  return w;
}

/// What the in-process replay answered, per event.
struct Expected {
  std::vector<uint64_t> hash;  // FNV-1a of the ANSWER payload
  std::vector<int64_t> access;
  std::vector<int64_t> tuning;
  std::vector<uint8_t> broadcast;
  uint64_t digest = kFnvOffset;
};

/// Replays every event through the calls the server makes, with no socket,
/// queue or thread: Session::OnFrame decodes the QUERY, the engine executes
/// it, and the ANSWER is built, encoded and framed.
Expected ReplayInProcess(const core::ShardedQueryEngine& engine,
                         const Workload& w, SpanRecorder* spans) {
  server::ServerCounters counters;
  server::SessionContext context;
  context.engine = &engine;
  context.counters = &counters;
  server::Session session(context);
  std::vector<uint8_t> replies;
  server::Frame frame;
  frame.type = server::FrameType::kHello;
  frame.payload = server::EncodeHello(server::HelloRequest{});
  session.OnFrame(frame, &replies);

  core::ShardedQueryWorkspace workspace;
  core::QueryOutcome outcome;
  std::vector<uint8_t> framed;
  Expected e;
  const size_t n = w.payloads.size();
  e.hash.resize(n);
  e.access.resize(n);
  e.tuning.resize(n);
  e.broadcast.resize(n);
  frame.type = server::FrameType::kQuery;
  for (size_t i = 0; i < n; ++i) {
    frame.payload = w.payloads[i];
    const uint32_t root = spans->Begin("server.service", i);
    server::FrameResult result;
    {
      ScopedSpan span(spans, "server.session", i, root);
      result = session.OnFrame(frame, &replies);
    }
    if (result.queries.size() != 1) {
      e.hash[i] = 0;  // never matches a wire answer
      spans->End(root);
      continue;
    }
    const server::QueryCall& call = result.queries[0];
    core::QueryRequest request;
    request.kind = call.kind;
    request.position = call.position;
    // The server's clamp: k beyond the database answers with all of it.
    request.k = static_cast<int>(std::min<uint64_t>(
        static_cast<uint64_t>(std::max(call.k, 0)), engine.total_pois()));
    request.window = call.window;
    request.slot = call.slot;
    {
      ScopedSpan span(spans, "core.execute", i, root);
      engine.Execute(request, workspace, &outcome);
    }
    server::QueryAnswer answer;
    {
      ScopedSpan span(spans, "protocol.build_answer", i, root);
      answer = server::BuildAnswer(call, outcome);
      if (session.version() < 2) answer.epoch = 0;
    }
    std::vector<uint8_t> payload;
    {
      ScopedSpan span(spans, "protocol.encode_answer", i, root);
      payload = server::EncodeQueryAnswer(answer);
      framed.clear();
      server::AppendFrame(server::FrameType::kAnswer, payload, &framed);
    }
    spans->End(root);
    e.hash[i] = Fnv1a(kFnvOffset, payload.data(), payload.size());
    e.access[i] = answer.access_latency;
    e.tuning[i] = answer.tuning_time;
    e.broadcast[i] = outcome.ResolvedByPeers() ? 0 : 1;
  }
  for (const uint64_t h : e.hash) {
    e.digest = Fnv1a(e.digest, reinterpret_cast<const uint8_t*>(&h),
                     sizeof(h));
  }
  return e;
}

struct RungResult {
  double rate = 0.0;
  size_t answered = 0;
  size_t refused = 0;
  size_t wrong = 0;
  size_t errors = 0;
  bool drained = true;
  /// The generator had to stop: the backlog outgrew the distinct request
  /// ids or the session slots. The rung fails; nothing was answered wrong.
  bool overloaded = false;
  LatencySummary latency;
  /// p99 of each window of kWindowRequests requests, and their median.
  std::vector<double> window_p99s;
  double window_p99 = 0.0;
  LatencySummary lag;
  double achieved_qps = 0.0;
  bool valid = false;
  bool passed = false;
  std::string error;
};

/// The open-loop generator: one thread, kConnections logical connections,
/// nonblocking receives, ppoll until the next due time. Allocation-free per
/// request once a rung has started.
class LoadGenerator {
 public:
  LoadGenerator(uint16_t port, const Workload& w, const Expected& expected)
      : port_(port), w_(w), expected_(expected), pending_(w.frames.size()),
        wire_hash_(w.frames.size()) {
    for (Sock& s : socks_) s.buf.resize(1 << 16);
    std::vector<uint8_t> bytes;
    server::AppendFrame(server::FrameType::kHello,
                        server::EncodeHello(server::HelloRequest{}), &bytes);
    hello_ = bytes;
    bytes.clear();
    server::AppendFrame(server::FrameType::kBye, {}, &bytes);
    bye_ = bytes;
    for (size_t i = 0; i < w.arrival_min.size(); ++i) {
      arrival_s_.push_back(w.arrival_min[i] * 60.0);
    }
  }

  /// Offers `count` requests at `rate`, starting with the schedule's
  /// request `first` (request i carries event i mod the event count).
  RungResult Run(double rate, size_t count, size_t first,
                 SpanRecorder* spans) {
    RungResult r;
    r.rate = rate;
    first_ = first;
    const std::vector<double> due_s =
        RescaledArrivals(arrival_s_, rate, first + count);
    due_ns_.resize(count);
    for (size_t i = 0; i < count; ++i) {
      due_ns_[i] = static_cast<int64_t>((due_s[first + i] - due_s[first]) * 1e9);
    }
    latencies_.assign(count, std::numeric_limits<double>::infinity());
    lags_.clear();
    lags_.reserve(count);
    for (Pending& p : pending_) p = Pending{};
    for (int c = 0; c < kConnections; ++c) {
      active_[c] = OpenSession(&r);
      if (active_[c] < 0) return r;
    }

    const int64_t start = NowNs() + 2'000'000;
    const int64_t deadline = start + due_ns_.back() + kDrainNs;
    size_t next = 0;
    resolved_ = 0;
    last_answer_ns_ = start;
    pollfd pfds[kSocks];
    while (resolved_ < count && r.error.empty() && !r.overloaded) {
      int64_t now = NowNs();
      while (next < count && start + due_ns_[next] <= now &&
             r.error.empty() && !r.overloaded) {
        Send(next, start + due_ns_[next], &r, spans);
        ++next;
        now = NowNs();
      }
      for (Sock& s : socks_) {
        if (s.fd >= 0) Receive(&s, &r, spans);
      }
      now = NowNs();
      if (next == count && now > deadline) {
        r.drained = false;
        break;
      }
      const int64_t wake = next < count ? start + due_ns_[next] : deadline;
      const int64_t wait = std::max<int64_t>(0, wake - now);
      nfds_t nfds = 0;
      for (const Sock& s : socks_) {
        if (s.fd >= 0) pfds[nfds++] = pollfd{s.fd, POLLIN, 0};
      }
      if (wait > 0) {
        const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                          static_cast<long>(wait % 1'000'000'000)};
        ppoll(pfds, nfds, &ts, nullptr);
      }
    }
    for (Sock& s : socks_) {
      if (s.fd >= 0) Close(&s, s.outstanding == 0);
    }
    if (!r.drained || r.overloaded || !r.error.empty()) {
      // Let the server work off what the closed sessions left queued, so
      // the next rung starts from an idle server.
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }

    for (size_t w = 0; w + kWindowRequests <= count; w += kWindowRequests) {
      window_.assign(latencies_.begin() + w,
                     latencies_.begin() + w + kWindowRequests);
      r.window_p99s.push_back(Summarize(&window_).p99);
    }
    r.window_p99 = Median(r.window_p99s);
    r.latency = Summarize(&latencies_);
    r.lag = Summarize(&lags_);
    const double elapsed = SecondsBetween(start, last_answer_ns_);
    r.achieved_qps =
        elapsed > 0.0 ? static_cast<double>(r.answered) / elapsed : 0.0;
    r.valid = r.lag.p99 <= kMaxSendLagP99Us;
    r.passed = r.valid && r.drained && !r.overloaded && r.error.empty() &&
               r.refused == 0 &&
               r.wrong == 0 && r.errors == 0 &&
               count >= kMinRungWindows * kWindowRequests &&
               r.window_p99 <= kP99LimitUs;
    return r;
  }

  /// The first wire answer to each event, folded in event order (an event
  /// never answered folds a zero).
  uint64_t Digest() const {
    uint64_t digest = kFnvOffset;
    for (const uint64_t h : wire_hash_) {
      digest = Fnv1a(digest, reinterpret_cast<const uint8_t*>(&h), sizeof(h));
    }
    return digest;
  }

 private:
  static constexpr int kSocks = 8;

  struct Sock {
    int fd = -1;
    size_t sent = 0;
    size_t outstanding = 0;
    bool draining = false;
    std::vector<uint8_t> buf;
    size_t len = 0;
  };

  struct Pending {
    int64_t due_ns = 0;
    int64_t send_index = -1;
    Sock* sock = nullptr;
  };

  int OpenSession(RungResult* r) {
    int slot = -1;
    for (int i = 0; i < kSocks; ++i) {
      if (socks_[i].fd < 0) {
        slot = i;
        break;
      }
    }
    if (slot < 0) {
      r->overloaded = true;
      return -1;
    }
    Sock& s = socks_[slot];
    s = Sock{-1, 0, 0, false, std::move(s.buf), 0};
    s.fd = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port_);
    const int one = 1;
    if (s.fd < 0 ||
        setsockopt(s.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0 ||
        connect(s.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        !WriteAll(s.fd, hello_.data(), hello_.size())) {
      r->error = std::string("connect failed: ") + std::strerror(errno);
      if (s.fd >= 0) close(s.fd);
      s.fd = -1;
      return -1;
    }
    return slot;
  }

  void Close(Sock* s, bool bye) {
    if (bye) WriteAll(s->fd, bye_.data(), bye_.size());
    close(s->fd);
    s->fd = -1;
  }

  static bool WriteAll(int fd, const uint8_t* data, size_t size) {
    while (size > 0) {
      const ssize_t n = send(fd, data, size, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      data += n;
      size -= static_cast<size_t>(n);
    }
    return true;
  }

  void Send(size_t index, int64_t due, RungResult* r, SpanRecorder* spans) {
    const int c = static_cast<int>(index % kConnections);
    if (socks_[active_[c]].sent == kQueriesPerSession) {
      socks_[active_[c]].draining = true;
      const int fresh = OpenSession(r);
      if (fresh < 0) return;
      active_[c] = fresh;
    }
    Sock& s = socks_[active_[c]];
    const size_t event = (first_ + index) % w_.frames.size();
    if (pending_[event].send_index >= 0) {
      r->overloaded = true;
      return;
    }
    const int64_t sent = NowNs();
    const uint32_t span = spans->Begin("load.send", index);
    const std::vector<uint8_t>& frame = w_.frames[event];
    if (!WriteAll(s.fd, frame.data(), frame.size())) {
      r->error = "send failed";
      return;
    }
    spans->End(span);
    lags_.push_back(static_cast<double>(sent - due) * 1e-3);
    pending_[event] = Pending{due, static_cast<int64_t>(index), &s};
    ++s.sent;
    ++s.outstanding;
  }

  void Receive(Sock* s, RungResult* r, SpanRecorder* spans) {
    for (;;) {
      const ssize_t n =
          recv(s->fd, s->buf.data() + s->len, s->buf.size() - s->len,
               MSG_DONTWAIT);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) break;  // EAGAIN: nothing more buffered
      if (n == 0) {
        if (s->outstanding > 0) r->error = "server closed a busy session";
        close(s->fd);
        s->fd = -1;
        return;
      }
      s->len += static_cast<size_t>(n);
      const int64_t now = NowNs();
      size_t at = 0;
      while (s->len - at >= server::kFramePrefixBytes) {
        const uint8_t* p = s->buf.data() + at;
        const uint32_t length = static_cast<uint32_t>(p[0]) |
                                static_cast<uint32_t>(p[1]) << 8 |
                                static_cast<uint32_t>(p[2]) << 16 |
                                static_cast<uint32_t>(p[3]) << 24;
        if (length == 0 || length > s->buf.size() - server::kFramePrefixBytes) {
          r->error = "malformed frame from server";
          return;
        }
        if (s->len - at < server::kFramePrefixBytes + length) break;
        HandleFrame(static_cast<server::FrameType>(p[4]), p + 5, length - 1,
                    now, s, r, spans);
        at += server::kFramePrefixBytes + length;
      }
      std::memmove(s->buf.data(), s->buf.data() + at, s->len - at);
      s->len -= at;
    }
    if (s->draining && s->outstanding == 0) Close(s, true);
  }

  void HandleFrame(server::FrameType type, const uint8_t* payload,
                   size_t size, int64_t now, Sock* s, RungResult* r,
                   SpanRecorder* spans) {
    if (type == server::FrameType::kHelloAck) return;
    if (type != server::FrameType::kAnswer &&
        type != server::FrameType::kRetryAfter) {
      ++r->errors;
      r->error = "unexpected frame from server";
      return;
    }
    // ANSWER and RETRY_AFTER payloads both lead with the request id.
    broadcast::ByteReader reader(payload, size);
    const uint64_t id = reader.GetVarint();
    if (!reader.ok() || id >= pending_.size() ||
        pending_[id].send_index < 0 || pending_[id].sock != s) {
      ++r->errors;
      r->error = "reply matches no outstanding request";
      return;
    }
    Pending& p = pending_[id];
    if (type == server::FrameType::kAnswer) {
      const uint64_t hash = Fnv1a(kFnvOffset, payload, size);
      if (hash != expected_.hash[id]) ++r->wrong;
      if (wire_hash_[id] == 0) wire_hash_[id] = hash;
      ++r->answered;
      latencies_[p.send_index] = static_cast<double>(now - p.due_ns) * 1e-3;
      spans->Add("wire.roundtrip", static_cast<uint64_t>(p.send_index),
                 p.due_ns, now);
      last_answer_ns_ = now;
    } else {
      // A refused request misses any latency limit (its slot stays
      // infinite).
      ++r->refused;
    }
    p.send_index = -1;
    --s->outstanding;
    ++resolved_;
  }

  uint16_t port_;
  const Workload& w_;
  const Expected& expected_;
  std::vector<double> arrival_s_;
  std::vector<uint8_t> hello_;
  std::vector<uint8_t> bye_;
  Sock socks_[kSocks];
  int active_[kConnections] = {-1, -1};
  std::vector<Pending> pending_;
  std::vector<uint64_t> wire_hash_;
  size_t first_ = 0;
  std::vector<int64_t> due_ns_;
  /// Round trip of request i (infinite until answered).
  std::vector<double> latencies_;
  std::vector<double> window_;
  std::vector<double> lags_;
  size_t resolved_ = 0;
  int64_t last_answer_ns_ = 0;
};

std::string DescribeRung(const RungResult& r) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "rung %8.1f q/s: n=%zu p50=%.1f p%g=%.1f "
                "window_p99=%.1f lag_p99=%.1f (us) refused=%zu drained=%d "
                "overloaded=%d valid=%d -> %s",
                r.rate, r.latency.n, r.latency.p50, r.latency.tail_q * 100.0,
                r.latency.tail, r.window_p99,
                r.lag.p99, r.refused, r.drained ? 1 : 0, r.overloaded ? 1 : 0,
                r.valid ? 1 : 0, r.passed ? "pass" : "fail");
  return line;
}

/// Counts one rung's answers into the report. Refusals are expected on the
/// ladder's overloaded rungs; wrong answers and protocol errors never are.
void CheckRung(const RungResult& r, Report* report) {
  report->Check(static_cast<int64_t>(r.answered),
                static_cast<int64_t>(r.wrong + r.errors));
  if (!r.error.empty() && r.errors == 0) report->Fail(r.error);
}

struct Deployment {
  std::unique_ptr<core::ShardedQueryEngine> engine;
  std::unique_ptr<server::Server> server;
};

Deployment Deploy(const sim::SimConfig& config, std::string* error) {
  Deployment d;
  d.engine = BuildEngine(config);
  server::ServerOptions options;
  options.num_workers = kWorkers;
  d.server = std::make_unique<server::Server>(*d.engine, /*epoch=*/0, options);
  if (!d.server->Start(error)) d.server.reset();
  return d;
}

/// The reporting rung runs as segments spread over the run, so a slow
/// spell on the host sinks only some of them.
constexpr int kReportSegments = 5;
/// Throughput is measured by closed-loop bursts, one after each segment:
/// `server::ReplayWorkload` on one connection keeping the session's whole
/// in-flight budget outstanding, so the server never waits for the client.
/// The latency-bounded capacity of the ladder moves by tens of percent from
/// one second to the next on a shared host; the saturated rate does not.
constexpr int kSaturationPipeline = 64;

/// Whole windows, together covering every event at least once.
size_t SegmentRequests(double seconds, size_t events) {
  const size_t wanted =
      std::max((events + kReportSegments - 1) / kReportSegments,
               static_cast<size_t>(kReportRateQps * 0.075 * seconds));
  return (wanted + kWindowRequests - 1) / kWindowRequests * kWindowRequests;
}

/// Walks the capacity ladder once from the reporting rung; returns the
/// answered rate at the highest passing rung (0 when none passes).
double WalkCapacity(LoadGenerator* load, double seconds, Report* report) {
  const std::vector<double> rates =
      LadderRates(kLadderBaseQps, kLadderStep, kLadderRungs);
  const int start = static_cast<int>(
      std::lower_bound(rates.begin(), rates.end(), kReportRateQps) -
      rates.begin());
  std::vector<RungResult> probes(rates.size());
  SpanRecorder off(false, 0);
  const int best = WalkLadder(kLadderRungs, start, [&](int i) {
    const size_t count =
        std::max(kMinRungWindows * kWindowRequests,
                 static_cast<size_t>(rates[i] * 0.04 * seconds));
    probes[i] = load->Run(rates[i], count, 0, &off);
    report->Note(DescribeRung(probes[i]));
    CheckRung(probes[i], report);
    return probes[i].passed;
  });
  return best < 0 ? 0.0 : probes[best].achieved_qps;
}

}  // namespace

void RunWireLa(const RunArgs& args, Report* report) {
  // Sub-50us timer slack so ppoll wakes the generator on schedule.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const sim::SimConfig config = WireConfig(args.seed);

  // Set-up: build the engine and start the server.
  std::vector<double> setup_s;
  std::string error;
  const auto time_setup = [&] {
    for (int i = 0; i < kSetupRepeats; ++i) {
      const int64_t start = NowNs();
      const Deployment spare = Deploy(config, &error);
      setup_s.push_back(SecondsBetween(start, NowNs()));
      if (spare.server == nullptr) return false;
    }
    return true;
  };
  Deployment d = Deploy(config, &error);
  if (d.server == nullptr || !time_setup()) {
    report->Fail("server start: " + error);
    return;
  }
  const Workload w = MakeWorkload(config);
  if (w.frames.size() < kWindowRequests) {
    report->Fail("workload too small");
    return;
  }

  SpanRecorder spans(args.trace, 1'000'000);
  SpanRecorder off(false, 0);
  const Expected expected =
      ReplayInProcess(*d.engine, w, args.trace ? &spans : &off);
  report->set_digest(expected.digest);
  LoadGenerator load(d.server->port(), w, expected);
  const size_t segment = SegmentRequests(args.seconds, w.frames.size());

  // The reporting rung, segment by segment; the untraced run times set-up
  // and runs a closed-loop burst between segments.
  std::vector<RungResult> segments;
  std::vector<double> saturated_qps;
  uint64_t burst_digest = 0;
  server::LoadOptions closed;
  closed.port = d.server->port();
  closed.connections = 1;
  closed.pipeline = kSaturationPipeline;
  closed.queries_per_session = static_cast<int>(kQueriesPerSession);
  const ProcSample proc0 = ProcSample::Now();
  const server::ServerCounters& counters = d.server->counters();
  const int64_t frames0 =
      counters.frames_received.load() + counters.frames_sent.load();
  const int64_t bytes0 =
      counters.bytes_received.load() + counters.bytes_sent.load();
  const int64_t executed0 = counters.queries_executed.load();
  const int64_t retries0 = counters.retry_after_sent.load();
  for (int j = 0; j < kReportSegments; ++j) {
    segments.push_back(load.Run(kReportRateQps, segment, j * segment, &off));
    report->Note("reporting " + DescribeRung(segments.back()));
    CheckRung(segments.back(), report);
    if (!args.trace) {
      if (!time_setup()) report->Fail("server start: " + error);
      const server::LoadResult burst = server::ReplayWorkload(config, closed);
      if (!burst.ok) {
        report->Fail("closed-loop burst: " + burst.error);
        continue;
      }
      // Every burst replays the same queries: the same answers.
      report->Check(burst.queries,
                    j > 0 && burst.digest != burst_digest ? 1 : 0);
      burst_digest = burst.digest;
      saturated_qps.push_back(burst.queries_per_sec);
    }
  }
  const ProcSample proc1 = ProcSample::Now();

  std::vector<double> p50s, window_p99s, lag_p99s;
  size_t answered = 0;
  for (const RungResult& r : segments) {
    if (r.refused > 0 || !r.drained || r.overloaded) {
      report->Fail("requests refused or left unanswered at the reporting rung");
    }
    p50s.push_back(r.latency.p50);
    window_p99s.insert(window_p99s.end(), r.window_p99s.begin(),
                       r.window_p99s.end());
    lag_p99s.push_back(r.lag.p99);
    answered += r.answered;
  }
  if (load.Digest() != expected.digest) {
    report->Fail("wire digest differs from the in-process replay");
  }
  const double p50 = Median(p50s);

  if (!args.trace) {
    double access = 0.0, tuning = 0.0, broadcast = 0.0;
    const size_t sent = kReportSegments * segment;
    for (size_t i = 0; i < sent; ++i) {
      const size_t e = i % w.frames.size();
      access += static_cast<double>(expected.access[e]);
      tuning += static_cast<double>(expected.tuning[e]);
      broadcast += expected.broadcast[e];
    }
    const double n = static_cast<double>(sent);
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("throughput_qps", Median(saturated_qps), "q/s");
    report->Metric("latency_p50_us", p50, "us");
    report->Metric("latency_p99_us", Median(window_p99s), "us");
    report->Metric("access_latency_slots", access / n, "slots");
    report->Metric("tuning_slots", tuning / n, "slots");
    report->Metric("broadcast_frac", broadcast / n, "ratio");
    report->Metric("peak_rss_mib", PeakRssMib(), "MiB");
    return;
  }

  // Traced run: the per-layer breakdown of the reporting rung.
  const int64_t executed = counters.queries_executed.load() - executed0;
  const int64_t retries = counters.retry_after_sent.load() - retries0;
  const double per_query = static_cast<double>(std::max<int64_t>(executed, 1));
  report->Metric("server.frames_per_query",
                 static_cast<double>(counters.frames_received.load() +
                                     counters.frames_sent.load() - frames0) /
                     per_query,
                 "count");
  report->Metric("server.bytes_per_query",
                 static_cast<double>(counters.bytes_received.load() +
                                     counters.bytes_sent.load() - bytes0) /
                     per_query,
                 "B");
  report->Metric("server.retry_after_frac",
                 static_cast<double>(retries) /
                     static_cast<double>(std::max<int64_t>(executed + retries, 1)),
                 "ratio");
  report->ProcMetrics(proc0, proc1, static_cast<double>(answered));
  report->Metric("load.send_lag_p99_us", Median(lag_p99s), "us");

  std::vector<double> service = spans.DurationsUs("server.service");
  const LatencySummary service_summary = Summarize(&service);
  std::vector<double> execute = spans.DurationsUs("core.execute");
  report->Metric("server.service_p50_us", service_summary.p50, "us");
  report->Metric("server.service_p99_us", service_summary.p99, "us");
  report->Metric("server.wire_overhead_p50_us", p50 - service_summary.p50,
                 "us");
  report->Metric("core.execute_p50_us", Summarize(&execute).p50, "us");
  report->Metric("protocol.encode_answer_ns",
                 Median(spans.DurationsUs("protocol.encode_answer")) * 1e3,
                 "ns");

  // Decoding a QUERY payload, alone.
  {
    server::QueryCall call;
    int64_t ok = 0;
    const int64_t start = NowNs();
    for (int pass = 0; pass < 4; ++pass) {
      for (const std::vector<uint8_t>& payload : w.payloads) {
        ok += server::DecodeQueryCall(payload, &call) ? 1 : 0;
      }
    }
    const double calls = 4.0 * static_cast<double>(w.payloads.size());
    report->Metric("protocol.decode_query_ns",
                   static_cast<double>(NowNs() - start) / calls, "ns");
    if (ok != static_cast<int64_t>(calls)) report->Fail("QUERY decode failed");
  }

  // The 1-shard wrapper over its own shard engine, on the same requests,
  // in interleaved blocks.
  {
    std::vector<core::QueryRequest> requests;
    server::QueryCall call;
    for (const std::vector<uint8_t>& payload : w.payloads) {
      server::DecodeQueryCall(payload, &call);
      core::QueryRequest request;
      request.kind = call.kind;
      if (call.kind == core::QueryKind::kKnn) {
        request.position = call.position;
        request.k = call.k;
      } else {
        request.window = call.window;
      }
      request.slot = call.slot;
      requests.push_back(request);
    }
    const core::QueryEngine& direct = *d.engine->shard_engine(0);
    core::ShardedQueryWorkspace sharded_ws;
    core::QueryWorkspace direct_ws;
    core::QueryOutcome outcome;
    std::vector<double> sharded_s, direct_s;
    // Blocks alternate which side runs first.
    for (int block = 0; block < 8; ++block) {
      for (int side = 0; side < 2; ++side) {
        const bool sharded = (block + side) % 2 == 0;
        const int64_t t0 = NowNs();
        for (const core::QueryRequest& r : requests) {
          if (sharded) {
            d.engine->Execute(r, sharded_ws, &outcome);
          } else {
            direct.Execute(r, direct_ws, &outcome);
          }
        }
        (sharded ? sharded_s : direct_s).push_back(SecondsBetween(t0, NowNs()));
      }
    }
    report->Metric("core.shard1_wrapper_ratio",
                   Median(sharded_s) / Median(direct_s), "ratio");
  }

  // The latency-bounded capacity: one walk up the ladder.
  report->Metric("server.capacity_qps",
                 WalkCapacity(&load, args.seconds, report), "q/s");

  // The reporting rung again with the load side traced: the tracing
  // overhead.
  std::vector<double> traced_p50s;
  for (int j = 0; j < kReportSegments; ++j) {
    const RungResult traced =
        load.Run(kReportRateQps, segment, j * segment, &spans);
    CheckRung(traced, report);
    traced_p50s.push_back(traced.latency.p50);
  }
  report->Metric("trace.overhead_frac", Median(traced_p50s) / p50 - 1.0,
                 "ratio");

  report->Spans({&spans}, args.trace_out);
}

}  // namespace perfbench
