#include "http_client.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "checksum.h"
#include "server/http.h"

namespace perfbench {
namespace {

uint64_t SteadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int Connect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int StatusCode(std::string_view head) {
  // "HTTP/1.1 200 OK"
  size_t sp = head.find(' ');
  if (sp == std::string_view::npos) return 0;
  return std::atoi(std::string(head.substr(sp + 1, 3)).c_str());
}

uint64_t FieldU64(std::string_view line, std::string_view key) {
  size_t p = line.find(key);
  if (p == std::string_view::npos) return 0;
  return std::strtoull(line.data() + p + key.size(), nullptr, 10);
}

bool IsInt(std::string_view tok) {
  if (tok.empty()) return false;
  size_t i = tok[0] == '-' ? 1 : 0;
  if (i == tok.size()) return false;
  for (; i < tok.size(); ++i) {
    if (tok[i] < '0' || tok[i] > '9') return false;
  }
  return true;
}

/// Hashes {"seq":S,"ts":T,"row":[v,...]} the way RowHash does in-process.
bool ParseRow(std::string_view line, ResultRow* out) {
  size_t tp = line.find("\"ts\":");
  size_t rp = line.find("\"row\":[");
  if (tp == std::string_view::npos || rp == std::string_view::npos) {
    return false;
  }
  uint64_t h = RowSeed(std::strtoll(line.data() + tp + 5, nullptr, 10));
  size_t p = rp + 7;
  while (p < line.size() && line[p] != ']') {
    size_t start = p;
    if (line[p] == '"') {
      for (++p; p < line.size() && line[p] != '"'; ++p) {
        if (line[p] == '\\') ++p;
      }
      ++p;
    } else {
      while (p < line.size() && line[p] != ',' && line[p] != ']') ++p;
    }
    std::string_view tok = line.substr(start, p - start);
    h = IsInt(tok) ? RowFoldInt(h, std::strtoll(tok.data(), nullptr, 10))
                   : RowFoldText(h, tok);
    if (p < line.size() && line[p] == ',') ++p;
  }
  out->hash = h;
  return true;
}

/// One request/response exchange on a fresh loopback connection. Returns
/// the HTTP status code (0 when the connection or response failed) and
/// the de-chunked body.
int HttpExchange(int port, const std::string& request, std::string* body) {
  int fd = Connect(port);
  if (fd < 0) return 0;
  if (!sqp::server::SendAll(fd, request.data(), request.size())) {
    ::close(fd);
    return 0;
  }
  std::string raw;
  char buf[8192];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  std::string head, payload;
  if (!sqp::server::SplitHttpResponse(raw, &head, &payload)) return 0;
  *body = sqp::server::DechunkBody(head, payload);
  return StatusCode(head);
}

}  // namespace

int PostQuery(int port, const std::string& params, const std::string& cql,
              std::string* session) {
  std::string body;
  int code = HttpExchange(
      port,
      "POST /query?" + params + " HTTP/1.1\r\nHost: b\r\nContent-Length: " +
          std::to_string(cql.size()) + "\r\nConnection: close\r\n\r\n" + cql,
      &body);
  const std::string pat = "\"session\":\"";
  size_t p = body.find(pat);
  if (code < 200 || code > 299 || p == std::string::npos) {
    return code == 200 ? 0 : code;
  }
  p += pat.size();
  *session = body.substr(p, body.find('"', p) - p);
  return code;
}

PollResult PollResults(int port, const std::string& session, uint64_t cursor,
                       int wait_ms,
                       const std::function<void(const ResultRow&)>& on_row) {
  PollResult res;
  res.next_cursor = cursor;
  int fd = Connect(port);
  if (fd < 0) return res;
  const std::string req = "GET /session/" + session +
                          "/results?wait_ms=" + std::to_string(wait_ms) +
                          "&cursor=" + std::to_string(cursor) +
                          " HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\r\n";
  if (!sqp::server::SendAll(fd, req.data(), req.size())) {
    ::close(fd);
    return res;
  }

  // Chunked-transfer state machine feeding a line assembler.
  enum class State { kHead, kSize, kData, kDataEnd, kDone } state = State::kHead;
  std::string in;    // Unconsumed received bytes.
  std::string line;  // Current NDJSON line.
  size_t chunk_left = 0;
  char buf[65536];
  ssize_t n;
  while (state != State::kDone &&
         (n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    in.append(buf, static_cast<size_t>(n));
    const uint64_t t0 = SteadyNs();
    size_t pos = 0;
    bool progress = true;
    while (progress && state != State::kDone) {
      progress = false;
      switch (state) {
        case State::kHead: {
          size_t e = in.find("\r\n\r\n", pos);
          if (e == std::string::npos) break;
          res.code = StatusCode(std::string_view(in).substr(pos, e - pos));
          pos = e + 4;
          state = res.code == 200 ? State::kSize : State::kDone;
          progress = true;
          break;
        }
        case State::kSize: {
          size_t e = in.find("\r\n", pos);
          if (e == std::string::npos) break;
          chunk_left = std::strtoull(in.c_str() + pos, nullptr, 16);
          pos = e + 2;
          state = chunk_left == 0 ? State::kDone : State::kData;
          progress = true;
          break;
        }
        case State::kData: {
          size_t take = std::min(chunk_left, in.size() - pos);
          if (take == 0) break;
          res.body_bytes += take;
          for (size_t i = pos; i < pos + take; ++i) {
            if (in[i] != '\n') {
              line.push_back(in[i]);
              continue;
            }
            if (line.rfind("{\"seq\":", 0) == 0) {
              ResultRow row;
              if (ParseRow(line, &row)) {
                res.rows += 1;
                on_row(row);
              }
            } else if (line.find("\"next_cursor\":") != std::string::npos) {
              res.trailer = true;
              res.next_cursor = FieldU64(line, "\"next_cursor\":");
              res.finished =
                  line.find("\"finished\":true") != std::string::npos;
            }
            line.clear();
          }
          pos += take;
          chunk_left -= take;
          if (chunk_left == 0) state = State::kDataEnd;
          progress = true;
          break;
        }
        case State::kDataEnd:
          if (in.size() - pos < 2) break;
          pos += 2;
          state = State::kSize;
          progress = true;
          break;
        case State::kDone:
          break;
      }
    }
    in.erase(0, pos);
    res.parse_ns += SteadyNs() - t0;
  }
  ::close(fd);
  return res;
}

}  // namespace perfbench
