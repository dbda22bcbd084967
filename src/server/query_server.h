#ifndef SQP_SERVER_QUERY_SERVER_H_
#define SQP_SERVER_QUERY_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "server/admission.h"
#include "server/http.h"
#include "server/net_listener.h"
#include "server/session.h"

namespace sqp {

class StreamEngine;

namespace obs {
class SnapshotBuilder;
}  // namespace obs

namespace server {

struct QueryServerOptions {
  /// Caps on concurrent queries / total retained rows (HTTP 429 beyond).
  AdmissionOptions admission;
  /// Socket behavior: concurrent handling (one thread per streaming
  /// client) with a connection cap and per-connection timeouts.
  NetListenerOptions listener;
  /// Per-session queue defaults; clients override per query via
  /// ?queue=&policy=&block_ms=.
  ResultQueueOptions queue;
  /// Long-poll bounds for GET /session/<id>/results: default and maximum
  /// ?wait_ms=, and the row batch copied out per queue wait.
  int default_wait_ms = 1000;
  int max_wait_ms = 30000;
  /// Upper bound on a client-supplied ?block_ms=. HTTP clients are always
  /// clamped to [1, max_block_ms]: block_ms = 0 (wait indefinitely) is
  /// reserved for in-process callers, since over HTTP it would let one
  /// detached client wedge the engine's delivery thread forever.
  int max_block_ms = 60000;
  size_t rows_per_batch = 256;
};

/// The engine's one HTTP surface: clients register standing CQL queries
/// against a running StreamEngine and stream their results back, and
/// monitoring scrapes the engine's metrics, monitor history, event log
/// and query profiles from the same port.
///
///   POST /query?queue=N&policy=block|drop|shed&block_ms=M  (body: CQL)
///       -> 200 {"session":"s0",...} | 400 parse error | 429 admission
///   GET  /session/<id>/results?cursor=C&max=N&wait_ms=W
///       -> chunked NDJSON: one {"seq":..,"ts":..,"row":[..]} line per
///          row (seq >= C), closed by a {"next_cursor":..,"finished":..}
///          trailer. Passing cursor=C acknowledges every row below C, so
///          re-requesting from the last processed seq after a detach
///          resumes with no gaps and no duplicates.
///   GET  /session/<id>        -> status document
///   GET  /session/<id>/profile[?format=text]
///       -> EXPLAIN ANALYZE for the session's query: the annotated plan
///          tree with per-operator rows, selectivity, busy time, and
///          watermark lag (JSON by default, text with ?format=text)
///   DELETE /session/<id>      -> tear the query down (also POST
///                                /session/<id>/close)
///   GET  /profile/<label>.json[?format=text]
///       -> the same profile for any engine query by label ("q0"),
///          including queries submitted in-process
///   GET  /metrics             -> Prometheus text exposition
///   GET  /snapshot.json       -> full metrics snapshot
///   GET  /series.json         -> monitor history (an empty series list
///                                until StreamEngine::StartMonitor)
///   GET  /events.json?after=&max=  -> engine structured event log
///   GET  /sessions, /stats, /healthz, /
///
/// HEAD is answered on every GET route except the streaming results.
///
/// Teardown ordering (the no-deadlock contract with StreamEngine): a
/// session's queue is Close()d — unblocking any producer stuck in a full
/// kBlock queue — before StreamEngine::Remove flushes the query under
/// the exclusive registration lock.
class QueryServer {
 public:
  QueryServer(StreamEngine* engine, QueryServerOptions options = {});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds and serves on `port` (0 = ephemeral). Also registers the
  /// "server" collector in the engine's metrics registry.
  Status Start(int port);

  /// Stops the listener and closes every session queue WITHOUT touching
  /// the engine (callable from the engine's own destructor). Idempotent.
  void Stop();

  /// Marks every session's queue finished — call after
  /// StreamEngine::FinishAll so streaming clients see the final rows and
  /// then a finished trailer instead of waiting forever.
  void FinishSessions();

  bool serving() const { return listener_.serving(); }
  int port() const { return listener_.port(); }
  size_t num_sessions() const;
  const AdmissionController& admission() const { return admission_; }
  const NetListener& listener() const { return listener_; }
  uint64_t rows_delivered() const {
    return rows_delivered_.load(std::memory_order_relaxed);
  }

 private:
  void HandleConnection(int fd);

  // Route handlers. Those returning a Response are plain
  // request/response; streaming results write to the fd directly.
  struct Response {
    int code = 200;
    std::string content_type = "application/json";
    std::string body;
  };
  /// Routes every request except the streaming results.
  Response Route(const HttpRequest& req);
  Response HandleSubmit(const HttpRequest& req);
  Response HandleSessionInfo(const std::string& id);
  Response HandleSessionProfile(const std::string& id,
                                const HttpRequest& req);
  /// EXPLAIN ANALYZE for the engine query labelled `label`.
  Response HandleProfile(const std::string& label, const HttpRequest& req);
  Response HandleSessionClose(const std::string& id);
  Response HandleEvents(const HttpRequest& req);
  Response HandleSeries();
  Response HandleSessions();
  Response HandleStats();
  Response HandleRoot();
  void HandleResults(int fd, const std::string& id, const HttpRequest& req);

  std::shared_ptr<Session> FindSession(const std::string& id) const;
  /// Removes the session from the map and, when `remove_query` is true,
  /// tears its query down against the engine. Only the caller that wins
  /// the map erase performs teardown. Returns false when `id` is unknown.
  bool CloseSession(const std::string& id, bool remove_query);
  std::string SessionInfo(const Session& s) const;
  void PublishMetrics(obs::SnapshotBuilder& b) const;

  StreamEngine* engine_;
  QueryServerOptions options_;
  NetListener listener_;
  AdmissionController admission_;

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
  uint64_t session_seq_ = 0;
  bool collector_registered_ = false;

  std::atomic<uint64_t> rows_delivered_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<bool> stopping_{false};
};

}  // namespace server
}  // namespace sqp

#endif  // SQP_SERVER_QUERY_SERVER_H_
