#ifndef LBSQ_SERVER_SERVER_H_
#define LBSQ_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics_registry.h"
#include "core/sharded_query_engine.h"
#include "server/session.h"

/// \file
/// The lbsq_server runtime: a TCP acceptor event loop plus N query worker
/// threads over one immutable `ShardedQueryEngine`.
///
/// Threading model (one network thread, N workers):
///  - The network thread owns every socket and every `Session`: it accepts
///    connections, reads stream bytes into per-session `FrameAssembler`s,
///    runs the protocol state machine, answers index probes and bucket
///    gets inline (pure reads of the immutable broadcast systems), and
///    flushes per-session outboxes. QUERY frames are routed to a worker by
///    the query's home shard (`shard % num_workers`), so a given shard's
///    working set stays hot on one thread.
///  - Each worker owns one `ShardedQueryWorkspace` and one reusable
///    `QueryOutcome` — the query path performs no steady-state heap
///    allocation — executes jobs from its bounded queue, encodes the
///    ANSWER, and appends it to the session's outbox (a mutex-guarded byte
///    buffer, the only state shared between the two sides), then wakes the
///    network thread through a self-pipe.
///
/// Backpressure is explicit, never unbounded buffering: a QUERY that finds
/// its worker's queue at capacity — or its session over the in-flight
/// budget — is answered immediately with RETRY_AFTER (echoing the request
/// id and a suggested delay) and counted in
/// `ServerCounters::retry_after_sent`. The client retries; the server's
/// memory stays bounded by `num_workers * queue_capacity` outstanding
/// queries.
///
/// Shutdown drains: `Stop()` stops accepting, lets workers finish every
/// queued job, flushes session outboxes, then joins all threads.
/// Disconnects are safe at any point: outstanding jobs hold the connection
/// alive through a shared_ptr and discard their answer when the connection
/// is gone.

namespace lbsq::server {

struct ServerOptions {
  /// TCP port to bind on 127.0.0.1 (0 = ephemeral; read it back with
  /// `port()` after Start).
  uint16_t port = 0;
  /// Query worker threads.
  int num_workers = 1;
  /// Bounded per-worker queue: queries queued beyond this are shed with
  /// RETRY_AFTER.
  size_t worker_queue_capacity = 256;
  /// Per-session outstanding-query budget; exceeding it is shed likewise.
  size_t session_inflight_limit = 64;
  /// Suggested client delay carried in RETRY_AFTER frames.
  uint32_t retry_after_ms = 10;

  /// The first rule these options break (at least one worker, queue slot
  /// and in-flight query), or null when they are valid. The Server
  /// constructor aborts on it; lbsq_server reports it as a flag error.
  const char* FirstViolation() const;
};

class Server {
 public:
  /// Serves `engine` (not owned; must outlive the server). `epoch` is the
  /// pinned world epoch advertised to v2 clients.
  Server(const core::ShardedQueryEngine& engine, uint64_t epoch,
         const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and spawns the threads. False (with `*error` set) on bind
  /// failure.
  bool Start(std::string* error);
  /// Drains and joins; idempotent.
  void Stop();

  /// The bound port (after a successful Start).
  uint16_t port() const { return port_; }
  const ServerCounters& counters() const { return counters_; }
  /// Snapshots the counters into `registry` (single-threaded export).
  void ExportMetrics(MetricsRegistry* registry) const {
    counters_.ExportTo(registry);
  }

 private:
  /// One connection. The network thread owns fd/session/assembler; workers
  /// touch only `out_mu`-guarded and atomic members.
  struct Conn {
    explicit Conn(const SessionContext& context) : session(context) {}

    int fd = -1;
    Session session;
    FrameAssembler assembler;
    /// Reply bytes pending write, appended by both sides under `out_mu`.
    std::mutex out_mu;
    std::vector<uint8_t> outbox;
    size_t out_consumed = 0;
    /// Queries dispatched but not yet answered.
    std::atomic<int64_t> in_flight{0};
    /// Set (under out_mu) when the network thread discards the connection;
    /// workers drop their answers instead of appending.
    bool gone = false;
    /// Network-thread only: close once the outbox drains.
    bool close_after_flush = false;
  };

  struct Job {
    std::shared_ptr<Conn> conn;
    QueryCall call;
  };

  struct Worker {
    std::thread thread;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Job> queue;
  };

  void NetworkLoop();
  void WorkerLoop(Worker* worker);
  /// Reads all available bytes; parses and handles frames. False when the
  /// connection must be discarded (EOF, read error, framing error).
  bool HandleReadable(const std::shared_ptr<Conn>& conn);
  /// Routes one decoded query: enqueue, or shed with RETRY_AFTER.
  void DispatchQuery(const std::shared_ptr<Conn>& conn, const QueryCall& call);
  /// Writes as much outbox as the socket accepts. False on write error.
  bool FlushConn(Conn* conn);
  /// Marks the connection gone, closes the fd, and forgets it.
  void DiscardConn(int fd);
  /// The worker index serving `call`'s home shard.
  size_t RouteWorker(const QueryCall& call) const;
  /// Nudges the network thread's poll.
  void Wake();

  const core::ShardedQueryEngine& engine_;
  ServerOptions options_;
  SessionContext session_context_;
  ServerCounters counters_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::thread network_thread_;
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Live connections by fd. Network-thread only.
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
};

}  // namespace lbsq::server

#endif  // LBSQ_SERVER_SERVER_H_
