#ifndef SQP_SERVER_HTTP_H_
#define SQP_SERVER_HTTP_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sqp {
namespace server {

/// One parsed HTTP request: the request line split into method + target,
/// the target split into path + query parameters, and (for POST/PUT) the
/// body as delimited by Content-Length.
struct HttpRequest {
  std::string method;   // "GET", "POST", ...
  std::string target;   // Raw request target ("/query?policy=drop").
  std::string path;     // Target up to '?' ("/query").
  std::string body;     // Content-Length bytes (empty when none).
  std::vector<std::pair<std::string, std::string>> params;

  /// Value of the first query parameter named `key`, or nullptr.
  const std::string* Param(const std::string& key) const;
  /// Integer parameter with a default for missing/garbage values.
  int64_t ParamInt(const std::string& key, int64_t def) const;
};

/// Returns the reason phrase for the handful of codes the tree serves.
const char* HttpStatusText(int code);

/// Sends the whole buffer, tolerating short writes and EINTR. Returns
/// false on a hard error or send timeout (client went away / stalled).
bool SendAll(int fd, const char* data, size_t len);

/// Parses the head of a request (request line + headers, everything up
/// to the blank line). Fills method/target/path/params and returns the
/// Content-Length (0 when absent) via `content_length`. Returns false on
/// a malformed request line, and on a Content-Length that is not a
/// plain decimal that fits in size_t or that disagrees with an earlier
/// Content-Length header (RFC 9112 §6.3).
bool ParseHttpHead(const std::string& head, HttpRequest* req,
                   size_t* content_length);

/// Reads one full request (head + Content-Length body) from `fd`.
/// Returns false on timeout, EOF, malformed input, or a head/body larger
/// than the caps — the caller should just drop the connection.
bool ReadHttpRequest(int fd, HttpRequest* req, size_t max_head = 16384,
                     size_t max_body = 1 << 20);

/// Writes a complete HTTP/1.0 response with Content-Length and
/// Connection: close. `head_only` elides the body (HEAD requests).
bool WriteHttpResponse(int fd, int code, const std::string& content_type,
                       const std::string& body, bool head_only = false);

/// Incremental chunked (HTTP/1.1 Transfer-Encoding: chunked) response:
/// Begin writes the status line + headers, Write emits one chunk, End
/// terminates the stream. Every method returns false once the peer is
/// gone, after which the writer goes inert.
class ChunkedWriter {
 public:
  explicit ChunkedWriter(int fd) : fd_(fd) {}

  bool Begin(int code, const std::string& content_type);
  bool Write(const std::string& data);
  bool End();

  bool ok() const { return ok_; }

 private:
  int fd_;
  bool ok_ = true;
};

/// Percent-decodes %XX escapes and '+' (query-string convention).
std::string UrlDecode(const std::string& s);

/// Client-side helpers (sqpsh --connect, tests, benches): split a raw
/// response into head and body at the first blank line...
bool SplitHttpResponse(const std::string& raw, std::string* head,
                       std::string* body);
/// ...and reassemble a chunked body into the payload bytes. Non-chunked
/// input is returned unchanged.
std::string DechunkBody(const std::string& head, const std::string& body);

}  // namespace server
}  // namespace sqp

#endif  // SQP_SERVER_HTTP_H_
