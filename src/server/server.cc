#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace lbsq::server {

namespace {

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

const char* ServerOptions::FirstViolation() const {
  LBSQ_RULE(num_workers >= 1);
  LBSQ_RULE(worker_queue_capacity >= 1);
  LBSQ_RULE(session_inflight_limit >= 1);
  return nullptr;
}

Server::Server(const core::ShardedQueryEngine& engine, uint64_t epoch,
               const ServerOptions& options)
    : engine_(engine), options_(options) {
  LBSQ_CHECK_RULES(options_.FirstViolation());
  session_context_.engine = &engine_;
  session_context_.epoch = epoch;
  session_context_.counters = &counters_;
}

Server::~Server() { Stop(); }

bool Server::Start(std::string* error) {
  LBSQ_CHECK(!started_);
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = "socket() failed";
    return false;
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(listen_fd_, 128) != 0 || !SetNonBlocking(listen_fd_)) {
    if (error != nullptr) *error = "bind/listen failed";
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len) != 0) {
    if (error != nullptr) *error = "getsockname failed";
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  port_ = ntohs(bound.sin_port);
  if (pipe(wake_pipe_) != 0 || !SetNonBlocking(wake_pipe_[0]) ||
      !SetNonBlocking(wake_pipe_[1])) {
    if (error != nullptr) *error = "pipe failed";
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  stopping_.store(false, std::memory_order_relaxed);
  workers_.clear();
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([this, w] { WorkerLoop(w); });
  }
  network_thread_ = std::thread([this] { NetworkLoop(); });
  started_ = true;
  return true;
}

void Server::Stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  Wake();
  network_thread_.join();
  for (auto& worker : workers_) {
    {
      std::lock_guard<std::mutex> lock(worker->mu);
    }
    worker->cv.notify_all();
    worker->thread.join();
  }
  workers_.clear();
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_pipe_[0] >= 0) close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) close(wake_pipe_[1]);
  listen_fd_ = -1;
  wake_pipe_[0] = wake_pipe_[1] = -1;
  started_ = false;
}

void Server::Wake() {
  const uint8_t byte = 0;
  // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
  [[maybe_unused]] const ssize_t n = write(wake_pipe_[1], &byte, 1);
}

size_t Server::RouteWorker(const QueryCall& call) const {
  const geom::Point anchor = call.kind == core::QueryKind::kKnn
                                 ? call.position
                                 : call.window.center();
  const int shard =
      engine_.map().ShardOfIndex(engine_.routing_grid().IndexOf(anchor));
  return static_cast<size_t>(shard) % workers_.size();
}

void Server::DispatchQuery(const std::shared_ptr<Conn>& conn,
                           const QueryCall& call) {
  Worker& worker = *workers_[RouteWorker(call)];
  bool shed =
      conn->in_flight.load(std::memory_order_relaxed) >=
      static_cast<int64_t>(options_.session_inflight_limit);
  if (!shed) {
    std::lock_guard<std::mutex> lock(worker.mu);
    if (worker.queue.size() >= options_.worker_queue_capacity) {
      shed = true;
    } else {
      conn->in_flight.fetch_add(1, std::memory_order_relaxed);
      worker.queue.push_back(Job{conn, call});
    }
  }
  if (shed) {
    RetryAfter retry;
    retry.request_id = call.request_id;
    retry.delay_ms = options_.retry_after_ms;
    std::lock_guard<std::mutex> lock(conn->out_mu);
    AppendFrame(FrameType::kRetryAfter, EncodeRetryAfter(retry),
                &conn->outbox);
    counters_.frames_sent.fetch_add(1, std::memory_order_relaxed);
    counters_.retry_after_sent.fetch_add(1, std::memory_order_relaxed);
  } else {
    worker.cv.notify_one();
  }
}

void Server::WorkerLoop(Worker* worker) {
  core::ShardedQueryWorkspace workspace;
  core::QueryOutcome outcome;
  std::vector<uint8_t> frame_bytes;
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(worker->mu);
      worker->cv.wait(lock, [&] {
        return !worker->queue.empty() ||
               stopping_.load(std::memory_order_acquire);
      });
      if (worker->queue.empty()) return;  // stopping, fully drained
      job = std::move(worker->queue.front());
      worker->queue.pop_front();
    }

    // A disconnected session's jobs are skipped (nobody reads the answer),
    // but the in-flight count still resolves below.
    bool gone;
    {
      std::lock_guard<std::mutex> lock(job.conn->out_mu);
      gone = job.conn->gone;
    }
    if (!gone) {
      core::QueryRequest request;
      request.kind = job.call.kind;
      request.position = job.call.position;
      // Clamp k to the database size: k > n answers with all n POIs either
      // way, and the clamp keeps a hostile k from sizing the answer heap.
      request.k = static_cast<int>(std::min<uint64_t>(
          static_cast<uint64_t>(std::max(job.call.k, 0)),
          engine_.total_pois()));
      request.window = job.call.window;
      request.slot = job.call.slot;
      engine_.Execute(request, workspace, &outcome);
      counters_.queries_executed.fetch_add(1, std::memory_order_relaxed);

      QueryAnswer answer = BuildAnswer(job.call, outcome);
      // v1 sessions are epoch-free end to end (see Session::OnFrame).
      if (job.conn->session.version() < 2) answer.epoch = 0;
      frame_bytes.clear();
      AppendFrame(FrameType::kAnswer, EncodeQueryAnswer(answer),
                  &frame_bytes);
      {
        std::lock_guard<std::mutex> lock(job.conn->out_mu);
        if (!job.conn->gone) {
          job.conn->outbox.insert(job.conn->outbox.end(), frame_bytes.begin(),
                                  frame_bytes.end());
          counters_.frames_sent.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    job.conn->in_flight.fetch_sub(1, std::memory_order_release);
    Wake();
  }
}

bool Server::HandleReadable(const std::shared_ptr<Conn>& conn) {
  uint8_t buffer[65536];
  for (;;) {
    const ssize_t n = read(conn->fd, buffer, sizeof(buffer));
    if (n > 0) {
      counters_.bytes_received.fetch_add(n, std::memory_order_relaxed);
      conn->assembler.Feed(buffer, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buffer)) break;
      continue;
    }
    if (n == 0) return false;  // peer closed (mid-session disconnect is fine)
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }

  Frame frame;
  for (;;) {
    const FrameAssembler::Result result = conn->assembler.Next(&frame);
    if (result == FrameAssembler::Result::kNeedMore) break;
    if (result == FrameAssembler::Result::kError) {
      // Unframeable stream: send a best-effort ERROR and drop.
      ErrorReply error;
      error.code = ErrorCode::kMalformedPayload;
      error.message = conn->assembler.error();
      std::lock_guard<std::mutex> lock(conn->out_mu);
      AppendFrame(FrameType::kError, EncodeErrorReply(error), &conn->outbox);
      counters_.frames_sent.fetch_add(1, std::memory_order_relaxed);
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      conn->close_after_flush = true;
      return true;
    }
    FrameResult handled;
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      handled = conn->session.OnFrame(frame, &conn->outbox);
    }
    for (const QueryCall& call : handled.queries) DispatchQuery(conn, call);
    if (handled.close) {
      conn->close_after_flush = true;
      return true;
    }
  }
  return true;
}

bool Server::FlushConn(Conn* conn) {
  std::lock_guard<std::mutex> lock(conn->out_mu);
  while (conn->out_consumed < conn->outbox.size()) {
    const ssize_t n =
        write(conn->fd, conn->outbox.data() + conn->out_consumed,
              conn->outbox.size() - conn->out_consumed);
    if (n > 0) {
      counters_.bytes_sent.fetch_add(n, std::memory_order_relaxed);
      conn->out_consumed += static_cast<size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  if (conn->out_consumed == conn->outbox.size()) {
    conn->outbox.clear();
    conn->out_consumed = 0;
  } else if (conn->out_consumed > 65536) {
    conn->outbox.erase(
        conn->outbox.begin(),
        conn->outbox.begin() + static_cast<ptrdiff_t>(conn->out_consumed));
    conn->out_consumed = 0;
  }
  return true;
}

void Server::DiscardConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  {
    std::lock_guard<std::mutex> lock(it->second->out_mu);
    it->second->gone = true;
  }
  close(fd);
  it->second->fd = -1;
  conns_.erase(it);
  counters_.sessions_closed.fetch_add(1, std::memory_order_relaxed);
}

void Server::NetworkLoop() {
  std::vector<pollfd> pollfds;
  std::vector<int> fds;
  for (;;) {
    const bool stopping = stopping_.load(std::memory_order_acquire);

    pollfds.clear();
    fds.clear();
    pollfds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    fds.push_back(wake_pipe_[0]);
    if (!stopping) {
      pollfds.push_back(pollfd{listen_fd_, POLLIN, 0});
      fds.push_back(listen_fd_);
    }
    for (auto& [fd, conn] : conns_) {
      short events = POLLIN;
      {
        std::lock_guard<std::mutex> lock(conn->out_mu);
        if (conn->out_consumed < conn->outbox.size()) events |= POLLOUT;
      }
      pollfds.push_back(pollfd{fd, events, 0});
      fds.push_back(fd);
    }

    // During shutdown the loop exits once every session has drained: no
    // queued answers outstanding and no bytes left to flush.
    if (stopping) {
      bool drained = true;
      for (auto& [fd, conn] : conns_) {
        if (conn->in_flight.load(std::memory_order_acquire) > 0) {
          drained = false;
          break;
        }
        std::lock_guard<std::mutex> lock(conn->out_mu);
        if (conn->out_consumed < conn->outbox.size()) {
          drained = false;
          break;
        }
      }
      if (drained) break;
    }

    const int ready = poll(pollfds.data(), pollfds.size(), 100);
    if (ready < 0 && errno != EINTR) break;

    // Drain the wake pipe.
    if (pollfds[0].revents & POLLIN) {
      uint8_t sink[256];
      while (read(wake_pipe_[0], sink, sizeof(sink)) > 0) {
      }
    }

    // Accept.
    if (!stopping) {
      const pollfd& listen_poll = pollfds[1];
      if (listen_poll.revents & POLLIN) {
        for (;;) {
          const int fd = accept(listen_fd_, nullptr, nullptr);
          if (fd < 0) break;
          if (!SetNonBlocking(fd)) {
            close(fd);
            continue;
          }
          const int one = 1;
          setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          auto conn = std::make_shared<Conn>(session_context_);
          conn->fd = fd;
          conns_.emplace(fd, std::move(conn));
          counters_.sessions_opened.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }

    // Service connections. Collect removals first: DiscardConn mutates the
    // map we're indexing into through `fds`.
    std::vector<int> discard;
    for (size_t i = stopping ? 1 : 2; i < pollfds.size(); ++i) {
      const pollfd& entry = pollfds[i];
      auto it = conns_.find(fds[i]);
      if (it == conns_.end()) continue;
      const std::shared_ptr<Conn>& conn = it->second;
      if (entry.revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // Flush nothing; the peer is gone.
        discard.push_back(entry.fd);
        continue;
      }
      if ((entry.revents & POLLIN) && !HandleReadable(conn)) {
        discard.push_back(entry.fd);
        continue;
      }
      if (!FlushConn(conn.get())) {
        discard.push_back(entry.fd);
        continue;
      }
      bool flushed;
      {
        std::lock_guard<std::mutex> lock(conn->out_mu);
        flushed = conn->out_consumed >= conn->outbox.size();
      }
      if (conn->close_after_flush && flushed &&
          conn->in_flight.load(std::memory_order_acquire) == 0) {
        discard.push_back(entry.fd);
      }
    }
    for (const int fd : discard) DiscardConn(fd);
  }

  // Shutdown: every remaining session is drained; close them all.
  std::vector<int> remaining;
  remaining.reserve(conns_.size());
  for (auto& [fd, conn] : conns_) remaining.push_back(fd);
  for (const int fd : remaining) DiscardConn(fd);
}

}  // namespace lbsq::server
