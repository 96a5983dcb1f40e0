// http.hpp — HTTP/1.1 message types, codecs, and the incremental
// request parser.
//
// Figure 7 (bottom): "This method is modified for WWW using the HyperText
// Transfer Protocol ... using secure scripts at Universal Resource
// Locators to handle information transfer on demand."  The server and
// client in this directory speak this subset: request line + headers +
// optional Content-Length body.  Since the keep-alive rework the server
// speaks HTTP/1.1 with connection reuse: a RequestParser consumes
// partial reads and yields pipelined requests one at a time, so one
// connection can carry many exchanges.
#pragma once

#include <chrono>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "web/url.hpp"

namespace powerplay::web {

class HttpError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// An I/O deadline expired (connect, read or write).  Subclass of
/// HttpError so existing catch sites keep working; callers that care
/// (retry policies, the server's timeout counter) can catch it
/// specifically.
class HttpTimeout : public HttpError {
 public:
  using HttpError::HttpError;
};

/// Hard cap on one HTTP message (headers + body), enforced both while
/// reading from a socket and when parsing a Content-Length header, so a
/// hostile peer can neither stream unbounded data nor make us reserve
/// an absurd allocation up front.
inline constexpr std::size_t kMaxMessageBytes = 16u << 20;  // 16 MiB

/// Cap on the request line + headers alone.  A peer that streams this
/// much without ever sending the blank-line terminator is aborted long
/// before the 16 MiB message cap.
inline constexpr std::size_t kMaxHeaderBytes = 64u << 10;  // 64 KiB

/// Absolute point in time after which socket I/O gives up with
/// HttpTimeout.  Deadline::never() never expires (the pre-resilience
/// behavior); Deadline::after(budget) expires `budget` from now.  One
/// Deadline spans a whole request/response exchange, so a peer cannot
/// reset the clock by trickling one byte per poll interval.
class Deadline {
 public:
  static Deadline never() { return Deadline(); }
  static Deadline after(std::chrono::milliseconds budget) {
    Deadline d;
    d.bounded_ = true;
    d.at_ = std::chrono::steady_clock::now() + budget;
    return d;
  }

  /// The earlier of two deadlines — how a caller's budget propagates
  /// into nested I/O: an outbound connect/read under an inbound request
  /// runs under earlier(caller, own_timeout), so a federated call can
  /// never outlive the request that triggered it.
  static Deadline earlier(const Deadline& a, const Deadline& b) {
    if (!a.bounded_) return b;
    if (!b.bounded_) return a;
    return a.at_ <= b.at_ ? a : b;
  }

  [[nodiscard]] bool bounded() const { return bounded_; }
  [[nodiscard]] bool expired() const {
    return bounded_ && std::chrono::steady_clock::now() >= at_;
  }
  /// Milliseconds left before expiry; max() when unbounded, never
  /// negative.  For budgeting decisions, not for poll() (use
  /// poll_timeout_ms, which clamps to poll's int range).
  [[nodiscard]] std::chrono::milliseconds remaining() const {
    if (!bounded_) return std::chrono::milliseconds::max();
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        at_ - std::chrono::steady_clock::now());
    return left.count() > 0 ? left : std::chrono::milliseconds{0};
  }
  /// Timeout argument for poll(): -1 when unbounded, else remaining
  /// milliseconds clamped to >= 0.
  [[nodiscard]] int poll_timeout_ms() const {
    if (!bounded_) return -1;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        at_ - std::chrono::steady_clock::now());
    if (left.count() <= 0) return 0;
    if (left.count() > 60'000) return 60'000;
    return static_cast<int>(left.count());
  }

 private:
  std::chrono::steady_clock::time_point at_{};
  bool bounded_ = false;
};

/// Client-side socket budgets; a default-constructed value gives
/// generous production limits, tests dial them down to milliseconds.
struct SocketOptions {
  std::chrono::milliseconds connect_timeout{5000};
  std::chrono::milliseconds io_timeout{30000};  ///< whole exchange
};

/// Header names are case-insensitive; stored lower-cased.
using Headers = std::map<std::string, std::string>;

struct Request {
  std::string method = "GET";        ///< GET or POST
  std::string target = "/";          ///< raw path?query
  std::string version = "HTTP/1.1";  ///< protocol version from the wire
  Headers headers;
  std::string body;

  /// Parsed path + query; form bodies merge into `form()`.
  [[nodiscard]] Target parsed_target() const { return parse_target(target); }

  /// Query parameters plus (for POST with a urlencoded body) form fields;
  /// form fields win on collision.
  [[nodiscard]] Params all_params() const {
    return all_params(parsed_target().query);
  }
  /// The same over the query of a target the caller already parsed.
  [[nodiscard]] Params all_params(Params query) const;

  /// HTTP/1.1 defaults to persistent connections; HTTP/1.0 must opt in
  /// with `Connection: keep-alive`; `Connection: close` always wins.
  [[nodiscard]] bool keep_alive() const;
};

struct Response {
  int status = 200;
  std::string content_type = "text/html";
  Headers headers;
  std::string body;
  /// Answers a HEAD: to_wire sends the status and headers, with the
  /// Content-Length of `body`, but none of the body's bytes.
  bool head_only = false;

  static Response ok_html(std::string html);
  static Response ok_text(std::string text);
  static Response not_found(const std::string& what);
  static Response bad_request(const std::string& why);
  static Response server_error(const std::string& why);
  static Response redirect(const std::string& location);
  /// 405 for a known path asked with a method it does not take; `allow`
  /// lists the methods it does take ("GET, POST").
  static Response method_not_allowed(const std::string& allow);
  /// 304 with the matching strong ETag and an empty body.
  static Response not_modified(const std::string& etag);
};

std::string status_text(int status);

/// Current time as an IMF-fixdate ("Sun, 06 Nov 1994 08:49:37 GMT") for
/// the Date header.  Formatted once per second and cached, so the hot
/// serving path does not strftime per response.
std::string http_date_now();

/// Serialize a request/response to wire form.  Responses are emitted in
/// one contiguous buffer — status line, `Date`, `Content-Type` (with
/// charset for text/* types), `Content-Length`, custom headers, body —
/// so a single send() suffices.
std::string to_wire(const Request& request);
std::string to_wire(const Response& response);

/// Parse a complete request/response from wire text.
/// Throws HttpError on malformed input or truncated bodies.  A response
/// to a HEAD (`head`) has no body, whatever its Content-Length says.
Request parse_request(const std::string& wire);
Response parse_response(const std::string& wire, bool head = false);

/// How many bytes of `partial` constitute a complete message, or nullopt
/// if more data is needed.  Used by the socket readers; `head` frames a
/// response to a HEAD at the end of its headers.
std::optional<std::size_t> message_size(const std::string& partial,
                                        bool head = false);

/// Resumable request parser: feed it socket reads as they arrive; it
/// yields complete requests one at a time and keeps any pipelined
/// surplus buffered for the next take().  Header fields are parsed once,
/// at the moment the blank line arrives — the body phase just counts
/// bytes — so torn reads never re-scan what is already understood.
///
///   RequestParser p;
///   while (p.feed(buf, n) == RequestParser::State::kReady) {
///     Request r = p.take();   // take() re-frames any buffered surplus
///     ...
///   }
///   if (p.state() == RequestParser::State::kError) ... p.error() ...
class RequestParser {
 public:
  enum class State {
    kNeedMore,  ///< bytes so far form a prefix of a valid request
    kReady,     ///< one complete request is available via take()
    kError,     ///< the stream is unrecoverably malformed (see error())
  };

  /// Append bytes from the peer.  Cheap when a request is already ready
  /// (bytes are buffered for later framing).  Once kError, the state is
  /// terminal: a malformed stream has no trustworthy resync point.
  State feed(const char* data, std::size_t n);

  [[nodiscard]] State state() const { return state_; }
  /// Human-readable reason once state() == kError.
  [[nodiscard]] const std::string& error() const { return error_; }
  /// True when bytes are buffered but no complete request is ready —
  /// the "mid-request" signal the server's timeout accounting uses.
  [[nodiscard]] bool partial() const {
    return state_ == State::kNeedMore && !buffer_.empty();
  }
  /// Bytes currently buffered (ready request + surplus).
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

  /// Pop the completed request.  Precondition: state() == kReady.
  /// Afterwards the parser has re-framed any pipelined surplus, so
  /// state() may immediately be kReady again.
  Request take();

 private:
  enum class Phase { kHead, kBody };

  State advance();  ///< try to make progress on buffer_

  std::string buffer_;
  std::size_t scan_ = 0;  ///< resume point for the header-terminator scan
  Phase phase_ = Phase::kHead;
  std::size_t body_need_ = 0;   ///< bytes of body still missing
  std::size_t head_bytes_ = 0;  ///< size of the parsed head incl. blank line
  Request pending_;             ///< request under construction
  State state_ = State::kNeedMore;
  std::string error_;
};

}  // namespace powerplay::web
