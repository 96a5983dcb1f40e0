#include "web/http.hpp"

#include <algorithm>
#include <cctype>
#include <ctime>
#include <mutex>

namespace powerplay::web {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Parse "Header: value" lines between `begin` and the blank line.
Headers parse_headers(const std::string& wire, std::size_t begin,
                      std::size_t end) {
  Headers out;
  std::size_t pos = begin;
  while (pos < end) {
    std::size_t eol = wire.find("\r\n", pos);
    if (eol == std::string::npos || eol > end) eol = end;
    const std::string line = wire.substr(pos, eol - pos);
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) {
      throw HttpError("malformed header line: '" + line + "'");
    }
    out[lower(trim(line.substr(0, colon)))] = trim(line.substr(colon + 1));
    pos = eol + 2;
  }
  return out;
}

std::size_t content_length(const Headers& headers) {
  auto it = headers.find("content-length");
  if (it == headers.end()) return 0;
  std::size_t value = 0;
  try {
    std::size_t pos = 0;
    value = static_cast<std::size_t>(std::stoull(it->second, &pos));
    if (pos != it->second.size()) throw std::invalid_argument(it->second);
  } catch (const std::exception&) {
    throw HttpError("bad content-length: '" + it->second + "'");
  }
  // Reject absurd lengths here, before anyone tries to reserve or read
  // that many bytes.  Note stoull happily wraps "-1" to 2^64-1.
  if (value > kMaxMessageBytes) {
    throw HttpError("content-length " + it->second + " exceeds " +
                    std::to_string(kMaxMessageBytes) + " byte limit");
  }
  return value;
}

/// Split "METHOD target version" without istringstream allocations.
void parse_request_line(const std::string& line, Request& req) {
  req.method.clear();
  req.target.clear();
  req.version.clear();
  std::size_t pos = 0;
  auto next_token = [&](std::string& out) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    const std::size_t start = pos;
    while (pos < line.size() && line[pos] != ' ') ++pos;
    out = line.substr(start, pos - start);
  };
  next_token(req.method);
  next_token(req.target);
  next_token(req.version);
  if (req.method.empty() || req.target.empty()) {
    throw HttpError("malformed request line");
  }
}

/// Media types that get "; charset=utf-8" appended on the wire.
bool is_text_type(const std::string& content_type) {
  return content_type.rfind("text/", 0) == 0 &&
         content_type.find(';') == std::string::npos;
}

}  // namespace

Params Request::all_params(Params query) const {
  Params params = std::move(query);
  auto it = headers.find("content-type");
  const bool urlencoded =
      it != headers.end() &&
      it->second.find("application/x-www-form-urlencoded") !=
          std::string::npos;
  if (method == "POST" && (urlencoded || it == headers.end())) {
    for (auto& [k, v] : parse_query(body)) params[k] = v;
  }
  return params;
}

bool Request::keep_alive() const {
  auto it = headers.find("connection");
  if (it != headers.end()) {
    const std::string value = lower(it->second);
    if (value.find("close") != std::string::npos) return false;
    if (value.find("keep-alive") != std::string::npos) return true;
  }
  return version == "HTTP/1.1";
}

Response Response::ok_html(std::string html) {
  Response r;
  r.body = std::move(html);
  return r;
}

Response Response::ok_text(std::string text) {
  Response r;
  r.content_type = "text/plain";
  r.body = std::move(text);
  return r;
}

Response Response::not_found(const std::string& what) {
  Response r;
  r.status = 404;
  r.content_type = "text/plain";
  r.body = "not found: " + what + "\n";
  return r;
}

Response Response::bad_request(const std::string& why) {
  Response r;
  r.status = 400;
  r.content_type = "text/plain";
  r.body = "bad request: " + why + "\n";
  return r;
}

Response Response::server_error(const std::string& why) {
  Response r;
  r.status = 500;
  r.content_type = "text/plain";
  r.body = "error: " + why + "\n";
  return r;
}

Response Response::redirect(const std::string& location) {
  Response r;
  r.status = 302;
  r.content_type = "text/plain";
  r.headers["location"] = location;
  r.body = "see " + location + "\n";
  return r;
}

Response Response::method_not_allowed(const std::string& allow) {
  Response r;
  r.status = 405;
  r.content_type = "text/plain";
  r.headers["allow"] = allow;
  r.body = "method not allowed; use " + allow + "\n";
  return r;
}

Response Response::not_modified(const std::string& etag) {
  Response r;
  r.status = 304;
  r.content_type = "text/plain";
  r.headers["etag"] = etag;
  return r;
}

std::string status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 302: return "Found";
    case 304: return "Not Modified";
    case 400: return "Bad Request";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

std::string http_date_now() {
  static std::mutex mutex;
  static std::time_t last = -1;
  static std::string cached;
  const std::time_t now = std::time(nullptr);
  std::lock_guard lock(mutex);
  if (now != last) {
    std::tm parts{};
    ::gmtime_r(&now, &parts);
    char buf[64];
    const std::size_t n =
        std::strftime(buf, sizeof buf, "%a, %d %b %Y %H:%M:%S GMT", &parts);
    cached.assign(buf, n);
    last = now;
  }
  return cached;
}

std::string to_wire(const Request& request) {
  const std::string& version =
      request.version.empty() ? std::string("HTTP/1.1") : request.version;
  std::string wire;
  wire.reserve(64 + request.target.size() + request.body.size());
  wire += request.method;
  wire += ' ';
  wire += request.target;
  wire += ' ';
  wire += version;
  wire += "\r\n";
  for (const auto& [k, v] : request.headers) {
    wire += k;
    wire += ": ";
    wire += v;
    wire += "\r\n";
  }
  if (!request.body.empty() && !request.headers.contains("content-length")) {
    wire += "content-length: " + std::to_string(request.body.size()) + "\r\n";
  }
  wire += "\r\n";
  wire += request.body;
  return wire;
}

std::string to_wire(const Response& response) {
  // One contiguous buffer: the server sends the whole response with a
  // single write_all, never a syscall per header.
  std::string wire;
  wire.reserve(192 + (response.head_only ? 0 : response.body.size()));
  wire += "HTTP/1.1 ";
  wire += std::to_string(response.status);
  wire += ' ';
  wire += status_text(response.status);
  wire += "\r\n";
  wire += "content-type: ";
  wire += response.content_type;
  if (is_text_type(response.content_type)) wire += "; charset=utf-8";
  wire += "\r\n";
  wire += "content-length: " + std::to_string(response.body.size()) + "\r\n";
  if (!response.headers.contains("date")) {
    wire += "date: ";
    wire += http_date_now();
    wire += "\r\n";
  }
  for (const auto& [k, v] : response.headers) {
    wire += k;
    wire += ": ";
    wire += v;
    wire += "\r\n";
  }
  wire += "\r\n";
  if (!response.head_only) wire += response.body;
  return wire;
}

Request parse_request(const std::string& wire) {
  RequestParser parser;
  parser.feed(wire.data(), wire.size());
  switch (parser.state()) {
    case RequestParser::State::kReady:
      return parser.take();
    case RequestParser::State::kError:
      throw HttpError(parser.error());
    case RequestParser::State::kNeedMore:
      break;
  }
  throw HttpError(parser.partial() || wire.empty()
                      ? "truncated request (no header terminator)"
                      : "truncated request");
}

Response parse_response(const std::string& wire, bool head) {
  const std::size_t head_end = wire.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    throw HttpError("truncated response (no header terminator)");
  }
  const std::size_t line_end = wire.find("\r\n");
  const std::string line = wire.substr(0, line_end);
  Response resp;
  const std::size_t space = line.find(' ');
  if (space != std::string::npos) {
    try {
      std::size_t pos = 0;
      resp.status = std::stoi(line.substr(space + 1), &pos);
    } catch (const std::exception&) {
      resp.status = 0;
    }
  } else {
    resp.status = 0;
  }
  if (resp.status == 0) throw HttpError("malformed status line");
  resp.headers = parse_headers(wire, line_end + 2, head_end);
  auto ct = resp.headers.find("content-type");
  if (ct != resp.headers.end()) {
    // Strip parameters ("; charset=utf-8"): content_type holds the bare
    // media type, which is what routing and tests compare against.
    const std::size_t semi = ct->second.find(';');
    resp.content_type = trim(ct->second.substr(0, semi));
  }
  const std::size_t want = head ? 0 : content_length(resp.headers);
  const std::size_t have = wire.size() - (head_end + 4);
  if (have < want) throw HttpError("truncated response body");
  resp.body = wire.substr(head_end + 4, want);
  return resp;
}

std::optional<std::size_t> message_size(const std::string& partial,
                                        bool head) {
  const std::size_t head_end = partial.find("\r\n\r\n");
  if (head_end == std::string::npos) return std::nullopt;
  const std::size_t line_end = partial.find("\r\n");
  Headers headers = parse_headers(partial, line_end + 2, head_end);
  const std::size_t total =
      head_end + 4 + (head ? 0 : content_length(headers));
  if (partial.size() < total) return std::nullopt;
  return total;
}

// ---------------------------------------------------------------------------
// RequestParser
// ---------------------------------------------------------------------------

RequestParser::State RequestParser::feed(const char* data, std::size_t n) {
  if (state_ == State::kError) return state_;
  buffer_.append(data, n);
  if (state_ == State::kReady) return state_;  // surplus buffered for later
  return advance();
}

RequestParser::State RequestParser::advance() {
  for (;;) {
    if (phase_ == Phase::kHead) {
      // Scan for the blank line from where the last feed left off, so a
      // one-byte-at-a-time peer costs O(1) per byte, not O(n^2).
      const std::size_t from = scan_ > 3 ? scan_ - 3 : 0;
      const std::size_t head_end = buffer_.find("\r\n\r\n", from);
      if (head_end == std::string::npos) {
        scan_ = buffer_.size();
        if (buffer_.size() > kMaxHeaderBytes) {
          state_ = State::kError;
          error_ = "request head exceeds " + std::to_string(kMaxHeaderBytes) +
                   " byte limit";
        }
        // An oversized request *line* specifically: no CRLF at all yet.
        return state_;
      }
      const std::size_t line_end = buffer_.find("\r\n");
      try {
        if (head_end > kMaxHeaderBytes) {
          throw HttpError("request head exceeds " +
                          std::to_string(kMaxHeaderBytes) + " byte limit");
        }
        parse_request_line(buffer_.substr(0, line_end), pending_);
        pending_.headers = parse_headers(buffer_, line_end + 2, head_end);
        body_need_ = content_length(pending_.headers);
      } catch (const HttpError& e) {
        state_ = State::kError;
        error_ = e.what();
        return state_;
      }
      head_bytes_ = head_end + 4;
      phase_ = Phase::kBody;
      continue;
    }
    // Body phase: just wait for head_bytes_ + body_need_ buffered bytes.
    if (buffer_.size() < head_bytes_ + body_need_) return state_;
    pending_.body = buffer_.substr(head_bytes_, body_need_);
    state_ = State::kReady;
    return state_;
  }
}

Request RequestParser::take() {
  Request out = std::move(pending_);
  buffer_.erase(0, head_bytes_ + body_need_);
  pending_ = Request{};
  phase_ = Phase::kHead;
  body_need_ = 0;
  head_bytes_ = 0;
  scan_ = 0;
  state_ = State::kNeedMore;
  if (!buffer_.empty()) advance();  // re-frame pipelined surplus
  return out;
}

}  // namespace powerplay::web
