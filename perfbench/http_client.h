// Minimal HTTP client for the serve workload: POST /query, and a
// streaming GET /session/<id>/results reader that parses the chunked
// NDJSON body incrementally, so each row is timed when its bytes arrive
// rather than when the long-poll response ends.
#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>

namespace perfbench {

/// POST `cql` to /query?<params>; returns the status code and fills
/// `session` from a 2xx reply.
int PostQuery(int port, const std::string& params, const std::string& cql,
              std::string* session);

/// One parsed result line.
struct ResultRow {
  uint64_t hash = 0;  // Row hash of ts and row values (see checksum.h).
};

/// What one GET /session/<id>/results long-poll returned.
struct PollResult {
  int code = 0;            // HTTP status (0 = transport failure).
  uint64_t rows = 0;
  uint64_t body_bytes = 0;  // NDJSON payload bytes, trailer included.
  uint64_t next_cursor = 0;
  bool finished = false;
  bool trailer = false;     // Saw the {"next_cursor":..} line.
  uint64_t parse_ns = 0;    // Time spent parsing lines (the client's cost).
};

/// Streams one long-poll response, calling `on_row` for every row as soon
/// as its line is complete.
PollResult PollResults(int port, const std::string& session, uint64_t cursor,
                       int wait_ms,
                       const std::function<void(const ResultRow&)>& on_row);

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
