#include "server/http.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <limits>

namespace sqp {
namespace server {

namespace {

int HexVal(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Case-insensitive ASCII prefix match for header names.
bool HeaderIs(const std::string& line, const char* name) {
  size_t n = 0;
  while (name[n] != '\0') {
    if (n >= line.size()) return false;
    char a = line[n];
    char b = name[n];
    if (a >= 'A' && a <= 'Z') a = static_cast<char>(a - 'A' + 'a');
    if (b >= 'A' && b <= 'Z') b = static_cast<char>(b - 'A' + 'a');
    if (a != b) return false;
    ++n;
  }
  return true;
}

/// Parses a Content-Length value: optional whitespace around one or
/// more digits, nothing else, and no overflow. RFC 9112 §6.3 makes any
/// other value unrecoverable.
bool ParseContentLength(const char* v, size_t* out) {
  while (*v == ' ' || *v == '\t') ++v;
  if (*v < '0' || *v > '9') return false;
  size_t n = 0;
  for (; *v >= '0' && *v <= '9'; ++v) {
    const size_t digit = static_cast<size_t>(*v - '0');
    if (n > (std::numeric_limits<size_t>::max() - digit) / 10) return false;
    n = n * 10 + digit;
  }
  while (*v == ' ' || *v == '\t') ++v;
  if (*v != '\0') return false;
  *out = n;
  return true;
}

}  // namespace

const std::string* HttpRequest::Param(const std::string& key) const {
  for (const auto& [k, v] : params) {
    if (k == key) return &v;
  }
  return nullptr;
}

int64_t HttpRequest::ParamInt(const std::string& key, int64_t def) const {
  const std::string* v = Param(key);
  if (v == nullptr || v->empty()) return def;
  errno = 0;
  char* end = nullptr;
  long long n = std::strtoll(v->c_str(), &end, 10);
  if (errno != 0 || end == v->c_str() || *end != '\0') return def;
  return static_cast<int64_t>(n);
}

const char* HttpStatusText(int code) {
  switch (code) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 409:
      return "Conflict";
    case 429:
      return "Too Many Requests";
    case 503:
      return "Service Unavailable";
    default:
      return "Error";
  }
}

bool SendAll(int fd, const char* data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::string UrlDecode(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size() && HexVal(s[i + 1]) >= 0 &&
               HexVal(s[i + 2]) >= 0) {
      out.push_back(
          static_cast<char>(HexVal(s[i + 1]) * 16 + HexVal(s[i + 2])));
      i += 2;
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

bool ParseHttpHead(const std::string& head, HttpRequest* req,
                   size_t* content_length) {
  *req = HttpRequest();
  *content_length = 0;

  size_t line_end = head.find('\n');
  std::string line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  if (!line.empty() && line.back() == '\r') line.pop_back();

  size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos || sp1 == 0) return false;
  size_t sp2 = line.find(' ', sp1 + 1);
  req->method = line.substr(0, sp1);
  req->target = sp2 == std::string::npos
                    ? line.substr(sp1 + 1)
                    : line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (req->target.empty()) return false;

  size_t qmark = req->target.find('?');
  req->path = req->target.substr(0, qmark);
  if (qmark != std::string::npos) {
    const std::string qs = req->target.substr(qmark + 1);
    size_t pos = 0;
    while (pos <= qs.size()) {
      size_t amp = qs.find('&', pos);
      std::string pair = qs.substr(
          pos, amp == std::string::npos ? std::string::npos : amp - pos);
      if (!pair.empty()) {
        size_t eq = pair.find('=');
        if (eq == std::string::npos) {
          req->params.emplace_back(UrlDecode(pair), "");
        } else {
          req->params.emplace_back(UrlDecode(pair.substr(0, eq)),
                                   UrlDecode(pair.substr(eq + 1)));
        }
      }
      if (amp == std::string::npos) break;
      pos = amp + 1;
    }
  }

  // Scan headers for Content-Length (the only one the tree acts on).
  bool have_length = false;
  size_t pos = line_end == std::string::npos ? head.size() : line_end + 1;
  while (pos < head.size()) {
    size_t end = head.find('\n', pos);
    std::string hline = head.substr(
        pos, end == std::string::npos ? std::string::npos : end - pos);
    if (!hline.empty() && hline.back() == '\r') hline.pop_back();
    if (hline.empty()) break;
    if (HeaderIs(hline, "content-length:")) {
      size_t n = 0;
      if (!ParseContentLength(hline.c_str() + 15, &n)) return false;
      if (have_length && n != *content_length) return false;  // Conflict.
      *content_length = n;
      have_length = true;
    }
    if (end == std::string::npos) break;
    pos = end + 1;
  }
  return true;
}

bool ReadHttpRequest(int fd, HttpRequest* req, size_t max_head,
                     size_t max_body) {
  std::string buf;
  char chunk[1024];
  size_t head_end = std::string::npos;
  size_t body_start = 0;
  for (;;) {
    head_end = buf.find("\r\n\r\n");
    if (head_end != std::string::npos) {
      body_start = head_end + 4;
      break;
    }
    head_end = buf.find("\n\n");
    if (head_end != std::string::npos) {
      body_start = head_end + 2;
      break;
    }
    // The size cap applies only after a failed search: a head whose
    // terminator arrives in the recv that reaches the cap is complete
    // and within it.
    if (buf.size() >= max_head) return false;  // Head too large.
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // Timeout/EOF before a complete head.
    }
    buf.append(chunk, static_cast<size_t>(n));
  }

  size_t content_length = 0;
  if (!ParseHttpHead(buf.substr(0, head_end), req, &content_length)) {
    return false;
  }
  if (content_length > max_body) return false;

  std::string body = buf.substr(body_start);
  while (body.size() < content_length) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // Timeout/EOF mid-body.
    }
    body.append(chunk, static_cast<size_t>(n));
  }
  body.resize(content_length);
  req->body = std::move(body);
  return true;
}

bool WriteHttpResponse(int fd, int code, const std::string& content_type,
                       const std::string& body, bool head_only) {
  std::string head = "HTTP/1.0 " + std::to_string(code) + " " +
                     HttpStatusText(code) +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  if (!SendAll(fd, head.data(), head.size())) return false;
  if (head_only) return true;
  return SendAll(fd, body.data(), body.size());
}

bool ChunkedWriter::Begin(int code, const std::string& content_type) {
  if (!ok_) return false;
  std::string head = "HTTP/1.1 " + std::to_string(code) + " " +
                     HttpStatusText(code) +
                     "\r\nContent-Type: " + content_type +
                     "\r\nTransfer-Encoding: chunked"
                     "\r\nConnection: close\r\n\r\n";
  ok_ = SendAll(fd_, head.data(), head.size());
  return ok_;
}

bool ChunkedWriter::Write(const std::string& data) {
  if (!ok_ || data.empty()) return ok_;
  char size_line[32];
  int n = std::snprintf(size_line, sizeof(size_line), "%zx\r\n", data.size());
  ok_ = SendAll(fd_, size_line, static_cast<size_t>(n)) &&
        SendAll(fd_, data.data(), data.size()) && SendAll(fd_, "\r\n", 2);
  return ok_;
}

bool ChunkedWriter::End() {
  if (!ok_) return false;
  ok_ = SendAll(fd_, "0\r\n\r\n", 5);
  return ok_;
}

bool SplitHttpResponse(const std::string& raw, std::string* head,
                       std::string* body) {
  size_t pos = raw.find("\r\n\r\n");
  size_t skip = 4;
  if (pos == std::string::npos) {
    pos = raw.find("\n\n");
    skip = 2;
  }
  if (pos == std::string::npos) return false;
  *head = raw.substr(0, pos);
  *body = raw.substr(pos + skip);
  return true;
}

std::string DechunkBody(const std::string& head, const std::string& body) {
  // Only dechunk when the head says so; otherwise pass through.
  std::string lower;
  lower.reserve(head.size());
  for (char c : head) {
    lower.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a')
                                         : c);
  }
  if (lower.find("transfer-encoding: chunked") == std::string::npos) {
    return body;
  }
  std::string out;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t line_end = body.find("\r\n", pos);
    if (line_end == std::string::npos) break;
    unsigned long long size =
        std::strtoull(body.substr(pos, line_end - pos).c_str(), nullptr, 16);
    if (size == 0) break;
    pos = line_end + 2;
    if (pos + size > body.size()) {
      out.append(body, pos, body.size() - pos);  // Truncated tail chunk.
      break;
    }
    out.append(body, pos, size);
    pos += size + 2;  // Skip the chunk's trailing CRLF.
  }
  return out;
}

}  // namespace server
}  // namespace sqp
