// server.hpp — the PowerPlay HTTP daemon.
//
// "since PowerPlay is local to one server, it can be accessed by any
// machine on the web.  There is no need to port, recompile and install
// the tool."  This is an HTTP/1.1 keep-alive server over POSIX sockets,
// split into an event-driven front end and a worker pool:
//
//   - One reactor thread owns every connection: it accepts, runs a
//     poll() loop over all idle keep-alive sockets, and feeds bytes into
//     each connection's incremental RequestParser.  Parked connections
//     cost one pollfd, never a worker thread.
//   - A fixed pool of workers drains a bounded queue of *parsed
//     requests* (not raw fds): a worker only ever runs handler logic and
//     writes the response, then hands the connection back to the
//     reactor for the next request.
//
// When the request queue is full the reactor sheds load immediately with
// 503 + Retry-After instead of letting backlog grow without bound, and
// every connection carries a Deadline: a peer that never completes a
// request is reaped (and counted as a timeout), an idle keep-alive
// connection is quietly closed after keepalive_idle_timeout.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "web/http.hpp"

namespace powerplay::web {

using Handler = std::function<Response(const Request&)>;

/// Capacity and patience knobs.  Defaults suit tests and small sites;
/// a production deployment raises worker_count/queue_capacity (all four
/// are reachable from the powerplay_server binary's flags).
struct ServerOptions {
  std::size_t worker_count = 4;     ///< fixed worker pool size
  std::size_t queue_capacity = 64;  ///< parsed requests awaiting a worker
  std::chrono::milliseconds io_timeout{15000};  ///< per-request exchange
  int retry_after_seconds = 1;      ///< advertised in shed responses
  /// Requests served on one connection before the server closes it
  /// (bounds how long one client can pin per-connection state).
  std::size_t max_keepalive_requests = 100;
  /// How long a connection may sit idle *between* requests before the
  /// reactor closes it.  Distinct from io_timeout: expiring here is
  /// normal keep-alive hygiene, not a counted timeout.
  std::chrono::milliseconds keepalive_idle_timeout{5000};
};

/// Counters a health endpoint or operator can poll.
struct ServerStats {
  std::uint64_t requests_served = 0;
  std::uint64_t requests_shed = 0;  ///< 503s sent because the queue was full
  std::uint64_t timeouts = 0;       ///< connections dropped mid-request
  std::uint64_t connections_reused = 0;  ///< served a 2nd request
  std::uint64_t parser_resumes = 0;  ///< reads that left a partial request
};

class HttpServer {
 public:
  /// Bind and listen on 127.0.0.1:`port`; port 0 picks a free port
  /// (query with port()).  Throws HttpError on bind failure.
  HttpServer(std::uint16_t port, Handler handler, ServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Start the reactor and worker pool (idempotent).
  void start();

  /// Stop accepting, drain queued requests, join all threads.
  void stop();

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_served_.load();
  }
  [[nodiscard]] std::uint64_t requests_shed() const {
    return requests_shed_.load();
  }
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_.load(); }
  [[nodiscard]] std::uint64_t connections_reused() const {
    return connections_reused_.load();
  }
  [[nodiscard]] std::uint64_t parser_resumes() const {
    return parser_resumes_.load();
  }
  [[nodiscard]] ServerStats stats() const {
    return {requests_served_.load(), requests_shed_.load(), timeouts_.load(),
            connections_reused_.load(), parser_resumes_.load()};
  }
  /// Parsed requests waiting for a worker (tests, health checks).
  [[nodiscard]] std::size_t queue_depth() const;

 private:
  /// One keep-alive connection, owned by the reactor thread.  While a
  /// request is in flight with a worker the fd is not polled; the
  /// worker's completion message returns ownership.
  struct Connection {
    RequestParser parser;
    Deadline deadline;            ///< read (first request) or idle budget
    std::uint64_t served = 0;     ///< responses written on this connection
    bool in_flight = false;       ///< a request is queued or being handled
    bool peer_closed = false;     ///< read EOF (half-close)
  };

  /// A parsed request travelling to the worker pool.
  struct Dispatch {
    int fd = -1;
    Request request;
    bool close_after = false;  ///< server-side keep-alive limit reached
  };

  void reactor_loop();
  void worker_loop();
  void accept_ready();
  void read_ready(int fd, Connection& conn);
  void process_resumed();
  /// Parser produced a request: queue it or shed with 503.
  void dispatch_or_shed(int fd, Connection& conn);
  /// Best-effort write (shed/parse-error responses) then close.
  void reply_and_close(int fd, const Response& response);
  void close_connection(int fd);
  void wake();

  Handler handler_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> requests_shed_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> connections_reused_{0};
  std::atomic<std::uint64_t> parser_resumes_{0};
  std::thread reactor_thread_;
  std::vector<std::thread> workers_;
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Dispatch> queue_;  ///< parsed requests awaiting a worker

  /// Connections handed back by workers: (fd, still reusable).
  std::mutex resume_mutex_;
  std::vector<std::pair<int, bool>> resumed_;

  /// Reactor-thread state (no lock: only reactor_loop touches it).
  std::unordered_map<int, Connection> connections_;
};

/// Read one complete HTTP message from a connected socket (uses
/// message_size() framing; `head` reads a response to a HEAD).  Returns
/// empty string on EOF before any data.  Throws HttpTimeout once
/// `deadline` expires; the default deadline never does.
std::string read_http_message(int fd,
                              const Deadline& deadline = Deadline::never(),
                              bool head = false);

/// Write all bytes; throws HttpError on failure, HttpTimeout on
/// deadline expiry.
void write_all(int fd, const std::string& data,
               const Deadline& deadline = Deadline::never());

/// Ignore SIGPIPE process-wide, once.  write_all already passes
/// MSG_NOSIGNAL, but a peer that resets between poll() and a write on
/// any other path (TLS libraries, stdio to a dead pipe) would still
/// kill the process with the default disposition — and a replication
/// follower whose primary died mid-response is exactly that peer.
/// Called from every socket entry point (server construction, client
/// connect); safe to call from multiple threads.
void ignore_sigpipe();

}  // namespace powerplay::web
