#include "web/server.hpp"

#include <arpa/inet.h>
#include <csignal>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>

namespace powerplay::web {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw HttpError(what + ": " + std::strerror(errno));
}

/// Block until `fd` is ready for `events` or the deadline expires.
/// Works for both blocking and non-blocking sockets: after a positive
/// poll() the following recv/send cannot block indefinitely.
void wait_io(int fd, short events, const Deadline& deadline,
             const char* what) {
  for (;;) {
    if (deadline.expired()) {
      throw HttpTimeout(std::string(what) + ": deadline exceeded");
    }
    pollfd p{};
    p.fd = fd;
    p.events = events;
    const int rc = ::poll(&p, 1, deadline.poll_timeout_ms());
    if (rc < 0) {
      if (errno == EINTR) continue;
      fail_errno("poll");
    }
    // rc == 0 is a timeout slice; loop so an unbounded deadline with
    // the 60 s poll clamp just waits again.  Readiness (including
    // POLLERR/POLLHUP) returns: the recv/send surfaces the error.
    if (rc > 0) return;
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

std::string read_http_message(int fd, const Deadline& deadline, bool head) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    // Framing first: stop as soon as we hold one complete message.
    try {
      if (auto size = message_size(buffer, head)) {
        return buffer.substr(0, *size);
      }
    } catch (const HttpError&) {
      // Malformed headers; let the caller's parse produce the error.
      return buffer;
    }
    wait_io(fd, POLLIN, deadline, "recv");
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      fail_errno("recv");
    }
    if (n == 0) return buffer;  // peer closed
    buffer.append(chunk, static_cast<std::size_t>(n));
    if (buffer.size() > kMaxMessageBytes) {
      throw HttpError("message exceeds 16 MiB limit");
    }
  }
}

void ignore_sigpipe() {
  // SIG_IGN (not a handler) is inherited across fork/exec and is the
  // one disposition signal-safe to set from any thread.
  static std::once_flag once;
  std::call_once(once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

void write_all(int fd, const std::string& data, const Deadline& deadline) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    wait_io(fd, POLLOUT, deadline, "send");
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      fail_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

HttpServer::HttpServer(std::uint16_t port, Handler handler,
                       ServerOptions options)
    : handler_(std::move(handler)), options_(options) {
  ignore_sigpipe();
  if (options_.worker_count == 0) options_.worker_count = 1;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  if (options_.max_keepalive_requests == 0) options_.max_keepalive_requests = 1;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) fail_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = err;
    fail_errno("bind");
  }
  if (::listen(listen_fd_, 64) < 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = err;
    fail_errno("listen");
  }
  set_nonblocking(listen_fd_);  // accept runs inside the reactor's poll loop
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    fail_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  if (::pipe(wake_pipe_) < 0) {
    running_.store(false);
    fail_errno("pipe");
  }
  set_nonblocking(wake_pipe_[0]);
  set_nonblocking(wake_pipe_[1]);
  reactor_thread_ = std::thread([this] { reactor_loop(); });
  workers_.reserve(options_.worker_count);
  for (std::size_t i = 0; i < options_.worker_count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void HttpServer::wake() {
  const char byte = 1;
  // Best effort: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void HttpServer::stop() {
  if (running_.exchange(false)) {
    // The reactor notices running_ on its next wakeup, closes every
    // idle connection and exits; in-flight fds stay open for their
    // workers to finish writing.
    wake();
    if (reactor_thread_.joinable()) reactor_thread_.join();
    ::close(listen_fd_);
    listen_fd_ = -1;
    // Workers drain whatever is already queued, then exit.
    queue_cv_.notify_all();
    for (std::thread& t : workers_) {
      if (t.joinable()) t.join();
    }
    workers_.clear();
    // Connections workers handed back after the reactor died, plus any
    // dispatches nobody served: never leak an fd.
    {
      std::lock_guard lock(resume_mutex_);
      for (auto& [fd, reusable] : resumed_) ::close(fd);
      resumed_.clear();
    }
    {
      std::lock_guard lock(queue_mutex_);
      for (Dispatch& d : queue_) ::close(d.fd);
      queue_.clear();
    }
    ::close(wake_pipe_[0]);
    ::close(wake_pipe_[1]);
    wake_pipe_[0] = wake_pipe_[1] = -1;
  } else if (listen_fd_ >= 0 && !reactor_thread_.joinable()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

std::size_t HttpServer::queue_depth() const {
  std::lock_guard lock(queue_mutex_);
  return queue_.size();
}

// ---------------------------------------------------------------------------
// Reactor: accept + poll + parse, all on one thread
// ---------------------------------------------------------------------------

void HttpServer::reactor_loop() {
  std::vector<pollfd> pfds;
  std::vector<int> ready;
  while (running_.load()) {
    process_resumed();

    pfds.clear();
    pfds.push_back({wake_pipe_[0], POLLIN, 0});
    pfds.push_back({listen_fd_, POLLIN, 0});
    int timeout_ms = -1;
    for (const auto& [fd, conn] : connections_) {
      if (conn.in_flight) continue;
      pfds.push_back({fd, POLLIN, 0});
      const int left = conn.deadline.poll_timeout_ms();
      if (left >= 0 && (timeout_ms < 0 || left < timeout_ms)) {
        timeout_ms = left;
      }
    }

    const int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) break;

    if (rc > 0) {
      if (pfds[0].revents != 0) {
        char drain[256];
        while (::read(wake_pipe_[0], drain, sizeof drain) > 0) {
        }
      }
      if (pfds[1].revents != 0) accept_ready();
      // Collect fds first: read_ready mutates connections_ (closing
      // erases entries), which would invalidate a map walk.
      ready.clear();
      for (std::size_t i = 2; i < pfds.size(); ++i) {
        if (pfds[i].revents != 0) ready.push_back(pfds[i].fd);
      }
      for (int fd : ready) {
        auto it = connections_.find(fd);
        if (it != connections_.end() && !it->second.in_flight) {
          read_ready(fd, it->second);
        }
      }
    }

    // Deadline sweep.  Dying mid-request (or before the first request)
    // is a counted timeout; expiring idle between requests is routine
    // keep-alive hygiene.
    ready.clear();
    for (const auto& [fd, conn] : connections_) {
      if (!conn.in_flight && conn.deadline.expired()) ready.push_back(fd);
    }
    for (int fd : ready) {
      const Connection& conn = connections_.at(fd);
      if (conn.served == 0 || conn.parser.partial()) {
        timeouts_.fetch_add(1);
      }
      close_connection(fd);
    }
  }
  // Shutting down: close everything not currently owned by a worker.
  std::vector<int> idle;
  for (const auto& [fd, conn] : connections_) {
    if (!conn.in_flight) idle.push_back(fd);
  }
  for (int fd : idle) close_connection(fd);
  connections_.clear();
}

void HttpServer::accept_ready() {
  for (;;) {
    sockaddr_in peer{};
    socklen_t len = sizeof peer;
    const int fd =
        ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd < 0) return;  // EAGAIN (drained) or listener closing
    set_nonblocking(fd);
    Connection conn;
    conn.deadline = Deadline::after(options_.io_timeout);
    connections_.emplace(fd, std::move(conn));
  }
}

void HttpServer::read_ready(int fd, Connection& conn) {
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_connection(fd);  // reset or similar: nothing to answer
      return;
    }
    if (n == 0) {
      conn.peer_closed = true;
      break;
    }
    const auto state = conn.parser.feed(chunk, static_cast<std::size_t>(n));
    if (state == RequestParser::State::kError) {
      // The bytes never formed a valid request: answer 400 and drop the
      // connection (there is no trustworthy resync point).
      requests_served_.fetch_add(1);
      reply_and_close(fd, Response::bad_request(conn.parser.error()));
      return;
    }
    // Stop reading once a request is ready: backpressure for pipelining
    // (the surplus stays in the kernel buffer until we resume polling).
    if (state == RequestParser::State::kReady) break;
  }

  if (conn.parser.state() == RequestParser::State::kReady) {
    dispatch_or_shed(fd, conn);
    return;
  }
  if (conn.peer_closed) {
    if (conn.parser.partial()) {
      // EOF mid-request: the old read-whole-message path answered 400
      // for a truncated body; keep that contract.
      requests_served_.fetch_add(1);
      reply_and_close(fd, Response::bad_request("truncated request"));
    } else {
      close_connection(fd);  // clean close (or connect-then-close probe)
    }
    return;
  }
  if (conn.parser.partial()) parser_resumes_.fetch_add(1);
}

void HttpServer::dispatch_or_shed(int fd, Connection& conn) {
  Request request = conn.parser.take();
  Dispatch d;
  d.fd = fd;
  d.close_after = conn.served + 1 >= options_.max_keepalive_requests;
  d.request = std::move(request);
  bool queued = false;
  {
    std::lock_guard lock(queue_mutex_);
    if (queue_.size() < options_.queue_capacity) {
      queue_.push_back(std::move(d));
      queued = true;
    }
  }
  if (!queued) {
    requests_shed_.fetch_add(1);
    Response r;
    r.status = 503;
    r.content_type = "text/plain";
    r.headers["retry-after"] = std::to_string(options_.retry_after_seconds);
    r.headers["connection"] = "close";
    r.body = "server overloaded; retry later\n";
    reply_and_close(fd, r);
    return;
  }
  if (conn.served == 1) connections_reused_.fetch_add(1);
  conn.in_flight = true;
  queue_cv_.notify_one();
}

void HttpServer::reply_and_close(int fd, const Response& response) {
  try {
    // Short, independent deadline: shedding and parse errors must never
    // stall the reactor behind a slow client.
    write_all(fd, to_wire(response), Deadline::after(std::chrono::seconds(1)));
  } catch (const std::exception&) {
    // Best effort; the close below is the real answer.
  }
  close_connection(fd);
}

void HttpServer::close_connection(int fd) {
  ::close(fd);
  connections_.erase(fd);
}

void HttpServer::process_resumed() {
  std::vector<std::pair<int, bool>> batch;
  {
    std::lock_guard lock(resume_mutex_);
    batch.swap(resumed_);
  }
  for (const auto& [fd, reusable] : batch) {
    auto it = connections_.find(fd);
    if (it == connections_.end()) continue;  // defensive; should not happen
    Connection& conn = it->second;
    conn.in_flight = false;
    conn.served += 1;
    if (!reusable) {
      close_connection(fd);
      continue;
    }
    if (conn.parser.state() == RequestParser::State::kReady) {
      // Pipelined: the next request is already buffered — serve it now,
      // even after a half-close.
      dispatch_or_shed(fd, conn);
      continue;
    }
    if (conn.peer_closed) {
      close_connection(fd);
      continue;
    }
    conn.deadline = Deadline::after(options_.keepalive_idle_timeout);
  }
}

// ---------------------------------------------------------------------------
// Workers: handler logic + response write only
// ---------------------------------------------------------------------------

void HttpServer::worker_loop() {
  for (;;) {
    Dispatch d;
    {
      std::unique_lock lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return !queue_.empty() || !running_.load(); });
      if (queue_.empty()) return;  // stopping and fully drained
      d = std::move(queue_.front());
      queue_.pop_front();
    }
    // One deadline for handling + writing this response.
    const Deadline deadline = Deadline::after(options_.io_timeout);
    Response response;
    try {
      response = handler_(d.request);
    } catch (const std::exception& e) {
      response = Response::server_error(e.what());
    }
    const bool reuse = d.request.keep_alive() && !d.close_after;
    response.headers["connection"] = reuse ? "keep-alive" : "close";
    // Count before writing: a client that has the full response in hand
    // must observe the counter already bumped.
    requests_served_.fetch_add(1);
    bool written = true;
    try {
      write_all(d.fd, to_wire(response), deadline);
    } catch (const HttpTimeout&) {
      timeouts_.fetch_add(1);
      written = false;
    } catch (const std::exception&) {
      written = false;
    }
    {
      std::lock_guard lock(resume_mutex_);
      resumed_.emplace_back(d.fd, written && reuse);
    }
    wake();
  }
}

}  // namespace powerplay::web
