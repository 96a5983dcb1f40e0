#include "web/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "web/server.hpp"

namespace powerplay::web {

namespace {

/// Non-blocking connect with a poll-based deadline.  Returns a socket
/// left in non-blocking mode (the poll-guarded read/write helpers in
/// server.cpp handle EAGAIN), owned by the caller.
int connect_with_deadline(std::uint16_t port, const Deadline& deadline) {
  ignore_sigpipe();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw HttpError(std::string("socket: ") + std::strerror(errno));
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    return fd;  // loopback can complete immediately
  }
  if (errno != EINPROGRESS) {
    const int err = errno;
    ::close(fd);
    throw HttpError(std::string("connect: ") + std::strerror(err));
  }

  for (;;) {
    pollfd p{};
    p.fd = fd;
    p.events = POLLOUT;
    const int rc = ::poll(&p, 1, deadline.poll_timeout_ms());
    if (rc < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      throw HttpError(std::string("poll: ") + std::strerror(err));
    }
    if (rc == 0) {
      ::close(fd);
      throw HttpTimeout("connect: deadline exceeded");
    }
    break;
  }
  int soerr = 0;
  socklen_t len = sizeof soerr;
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) < 0 ||
      soerr != 0) {
    const int err = soerr != 0 ? soerr : errno;
    ::close(fd);
    throw HttpError(std::string("connect: ") + std::strerror(err));
  }
  return fd;
}

int connect_with_timeout(std::uint16_t port,
                         std::chrono::milliseconds timeout) {
  return connect_with_deadline(port, Deadline::after(timeout));
}

}  // namespace

Response http_request(std::uint16_t port, const Request& request,
                      const SocketOptions& options) {
  return http_request(port, request, options, Deadline::never());
}

Response http_request(std::uint16_t port, const Request& request,
                      const SocketOptions& options, const Deadline& caller) {
  if (caller.expired()) {
    throw HttpTimeout("caller deadline already expired before connect");
  }
  // Every budget is the earlier of our own knob and the caller's
  // remaining time: the caller's I/O timeout is a hard ceiling.
  const Deadline connect_deadline =
      Deadline::earlier(caller, Deadline::after(options.connect_timeout));
  const int fd = connect_with_deadline(port, connect_deadline);
  const Deadline deadline =
      Deadline::earlier(caller, Deadline::after(options.io_timeout));
  const bool head = request.method == "HEAD";
  std::string wire;
  try {
    // One-shot: tell the server not to hold the connection open.
    if (request.headers.contains("connection")) {
      write_all(fd, to_wire(request), deadline);
    } else {
      Request oneshot = request;
      oneshot.headers["connection"] = "close";
      write_all(fd, to_wire(oneshot), deadline);
    }
    ::shutdown(fd, SHUT_WR);
    wire = read_http_message(fd, deadline, head);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  if (wire.empty()) throw HttpError("empty response");
  return parse_response(wire, head);
}

HttpConnection::HttpConnection(std::uint16_t port, SocketOptions options)
    : port_(port), options_(options) {}

HttpConnection::~HttpConnection() { close(); }

HttpConnection::HttpConnection(HttpConnection&& other) noexcept
    : port_(other.port_), options_(other.options_), fd_(other.fd_) {
  other.fd_ = -1;
}

HttpConnection& HttpConnection::operator=(HttpConnection&& other) noexcept {
  if (this != &other) {
    close();
    port_ = other.port_;
    options_ = other.options_;
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void HttpConnection::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Response HttpConnection::roundtrip(const Request& request) {
  if (fd_ < 0) fd_ = connect_with_timeout(port_, options_.connect_timeout);
  const Deadline deadline = Deadline::after(options_.io_timeout);
  const bool head = request.method == "HEAD";
  std::string wire;
  try {
    write_all(fd_, to_wire(request), deadline);
    wire = read_http_message(fd_, deadline, head);
  } catch (...) {
    close();
    throw;
  }
  if (wire.empty()) {
    // The server closed between requests (keep-alive limit or idle
    // timeout).  Surface it; the caller decides whether to reconnect.
    close();
    throw HttpError("connection closed by server");
  }
  const Response response = parse_response(wire, head);
  auto conn = response.headers.find("connection");
  if (conn != response.headers.end() && conn->second == "close") close();
  return response;
}

Response HttpConnection::get(const std::string& target) {
  Request req;
  req.method = "GET";
  req.target = target;
  return roundtrip(req);
}

Response http_get(std::uint16_t port, const std::string& target,
                  const SocketOptions& options) {
  Request req;
  req.method = "GET";
  req.target = target;
  return http_request(port, req, options);
}

Response http_post_form(std::uint16_t port, const std::string& path,
                        const Params& form, const SocketOptions& options) {
  Request req;
  req.method = "POST";
  req.target = path;
  req.headers["content-type"] = "application/x-www-form-urlencoded";
  req.body = to_query(form);
  return http_request(port, req, options);
}

}  // namespace powerplay::web
