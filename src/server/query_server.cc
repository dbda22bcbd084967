#include "server/query_server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "arch/engine.h"
#include "obs/monitor.h"
#include "obs/snapshot.h"

namespace sqp {
namespace server {

namespace {

std::string ErrorJson(const std::string& what, const std::string& detail) {
  std::string out = "{\"error\":\"" + obs::JsonEscape(what) + "\"";
  if (!detail.empty()) {
    out += ",\"reason\":\"" + obs::JsonEscape(detail) + "\"";
  }
  out += "}\n";
  return out;
}

/// Splits "/session/<id>[/tail]" into the id and "" or "/tail"; false
/// for any other path.
bool SplitSessionPath(const std::string& path, std::string* id,
                      std::string* tail) {
  if (path.rfind("/session/", 0) != 0) return false;
  size_t slash = path.find('/', 9);
  if (slash == std::string::npos) {
    *id = path.substr(9);
    tail->clear();
  } else {
    *id = path.substr(9, slash - 9);
    *tail = path.substr(slash);
  }
  return true;
}

}  // namespace

QueryServer::QueryServer(StreamEngine* engine, QueryServerOptions options)
    : engine_(engine),
      options_(options),
      admission_(options.admission) {}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::Start(int port) {
  if (listener_.serving()) {
    return Status::AlreadyExists("query server already started");
  }
  stopping_.store(false, std::memory_order_release);
  engine_->Metrics().AddCollector(
      "server", [this](obs::SnapshotBuilder& b) { PublishMetrics(b); });
  collector_registered_ = true;
  Status s = listener_.Start(
      port, [this](int fd) { HandleConnection(fd); }, options_.listener);
  if (!s.ok()) {
    engine_->Metrics().RemoveCollector("server");
    collector_registered_ = false;
  }
  return s;
}

void QueryServer::Stop() {
  // Order matters: close the session queues FIRST — a handler parked in
  // a long-poll WaitRows only wakes when its queue closes, and the
  // listener join below waits on that handler. Then stop the listener
  // (its fd shutdown kicks handlers blocked in recv/send), then detach
  // the metrics collector (RemoveCollector is a barrier against an
  // in-flight TakeSnapshot).
  stopping_.store(true, std::memory_order_release);
  std::vector<std::shared_ptr<Session>> rest;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, sess] : sessions_) rest.push_back(sess);
    sessions_.clear();
  }
  for (auto& sess : rest) {
    // No engine teardown here — Stop() may run inside the engine's own
    // destructor, after the queries are already gone.
    sess->handle = nullptr;
    sess->queue.Close();
    admission_.Release(sess->queue.options().limit);
  }
  listener_.Stop();
  if (collector_registered_) {
    engine_->Metrics().RemoveCollector("server");
    collector_registered_ = false;
  }
}

void QueryServer::FinishSessions() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, sess] : sessions_) sess->queue.Finish();
}

size_t QueryServer::num_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

std::shared_ptr<Session> QueryServer::FindSession(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

void QueryServer::HandleConnection(int fd) {
  HttpRequest req;
  if (!ReadHttpRequest(fd, &req)) return;  // Listener closes the fd.
  requests_.fetch_add(1, std::memory_order_relaxed);

  // Results stream straight to the socket; every other route answers
  // with one Response.
  std::string id;
  std::string tail;
  if (req.method == "GET" && SplitSessionPath(req.path, &id, &tail) &&
      tail == "/results") {
    HandleResults(fd, id, req);
    return;
  }
  Response r = Route(req);
  WriteHttpResponse(fd, r.code, r.content_type, r.body,
                    /*head_only=*/req.method == "HEAD");
}

QueryServer::Response QueryServer::Route(const HttpRequest& req) {
  const std::string& p = req.path;
  // HEAD answers like GET without the body, as scrapers expect.
  const bool get = req.method == "GET" || req.method == "HEAD";
  std::string id;
  std::string tail;
  if (SplitSessionPath(p, &id, &tail)) {
    if (tail.empty() && get) return HandleSessionInfo(id);
    if (tail == "/profile" && get) return HandleSessionProfile(id, req);
    if ((tail.empty() && req.method == "DELETE") ||
        (tail == "/close" && req.method == "POST")) {
      return HandleSessionClose(id);
    }
    return {405, "application/json", ErrorJson("method not allowed", "")};
  }
  if (p == "/query" && req.method == "POST") return HandleSubmit(req);
  if (get) {
    if (p == "/metrics") {
      return {200, "text/plain; version=0.0.4; charset=utf-8",
              engine_->Metrics().TakeSnapshot().ToPrometheus()};
    }
    if (p == "/snapshot.json") {
      return {200, "application/json",
              engine_->Metrics().TakeSnapshot().ToJson()};
    }
    if (p == "/series.json") return HandleSeries();
    if (p.rfind("/profile/", 0) == 0) {
      std::string label = p.substr(9);
      if (label.size() > 5 &&
          label.compare(label.size() - 5, 5, ".json") == 0) {
        label.resize(label.size() - 5);
      }
      return HandleProfile(label, req);
    }
    if (p == "/events.json") return HandleEvents(req);
    if (p == "/sessions") return HandleSessions();
    if (p == "/stats") return HandleStats();
    if (p == "/healthz") return {200, "text/plain; charset=utf-8", "ok\n"};
    if (p == "/") return HandleRoot();
  }
  return {404, "application/json", ErrorJson("not found", p)};
}

QueryServer::Response QueryServer::HandleSubmit(const HttpRequest& req) {
  if (req.body.empty()) {
    return {400, "application/json",
            ErrorJson("empty query", "POST the CQL text as the body")};
  }

  ResultQueueOptions qopts = options_.queue;
  int64_t limit = req.ParamInt("queue", static_cast<int64_t>(qopts.limit));
  qopts.limit = static_cast<size_t>(
      std::clamp<int64_t>(limit, 1, int64_t{1} << 20));
  // Clamp to a positive bound even when the client asked for 0 (or the
  // server default is 0): the indefinite wait is for in-process callers
  // only — see QueryServerOptions::max_block_ms.
  qopts.block_ms = static_cast<int>(std::clamp<int64_t>(
      req.ParamInt("block_ms", qopts.block_ms), 1,
      std::max(1, options_.max_block_ms)));

  std::string policy =
      qopts.overflow == SessionOverflow::kBlock ? "block" : "drop";
  if (const std::string* pol = req.Param("policy")) policy = *pol;
  if (policy == "block") {
    qopts.overflow = SessionOverflow::kBlock;
  } else if (policy == "drop" || policy == "shed") {
    // Shedding drops at the query's input; a blocking queue behind the
    // gate would fight the controller, so overflow tail-drops too.
    qopts.overflow = SessionOverflow::kDrop;
  } else {
    return {400, "application/json",
            ErrorJson("bad policy", "want block|drop|shed, got " + policy)};
  }

  const bool replay = req.ParamInt("replay", 0) != 0;
  if (replay && !engine_->durable()) {
    return {409, "application/json",
            ErrorJson("replay unavailable",
                      "the engine has no durable archive (start it with "
                      "--durable)")};
  }
  if (replay && qopts.overflow == SessionOverflow::kBlock) {
    // Replay pours the whole archive while holding the engine's
    // registration lock; a blocking result queue with no reader yet
    // would wedge the engine. Lossy policies drain safely.
    return {400, "application/json",
            ErrorJson("bad replay", "replay requires policy=drop or shed")};
  }

  AdmissionController::Decision adm = admission_.Admit(qopts.limit);
  if (!adm.admitted) {
    engine_->Events().Emit(obs::EventKind::kAdmissionRejected, "",
                           adm.reason);
    return {429, "application/json", ErrorJson("rejected", adm.reason)};
  }

  std::string id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = "s" + std::to_string(session_seq_++);
  }
  auto sess = std::make_shared<Session>(id, req.body, qopts);
  sess->policy = policy;

  SubmitOptions sopts;
  sopts.collect = false;
  // Captures the session (not the server): the callback lives inside the
  // engine's QueryHandle and may fire during engine teardown, after this
  // QueryServer is gone.
  sopts.on_result = [sess](const TupleRef& t) { sess->queue.Push(t); };
  Result<QueryHandle*> submitted = engine_->Submit(req.body, sopts);
  if (!submitted.ok()) {
    admission_.Release(qopts.limit);
    return {400, "application/json",
            ErrorJson("parse error", submitted.status().message())};
  }
  sess->handle = *submitted;
  sess->schema = sess->handle->output_schema().ToString();
  sess->plan = sess->handle->plan_desc();

  if (policy == "shed") {
    AdaptiveShedOptions shed;
    shed.controller.target_queue =
        std::max<double>(1.0, static_cast<double>(qopts.limit) / 2.0);
    shed.backlog_probe = [sess] { return sess->queue.depth(); };
    Status s = engine_->EnableAdaptiveShedding(sess->handle, shed);
    if (!s.ok()) {
      sess->queue.Close();
      engine_->Remove(sess->handle);
      sess->handle = nullptr;
      admission_.Release(qopts.limit);
      return {409, "application/json", ErrorJson("shed setup", s.message())};
    }
  }

  uint64_t replayed = 0;
  if (replay) {
    // New query over the archived past. Submit stamped the handle with
    // the archive position at registration, and ReplayInto stops there:
    // elements ingested between Submit and this call are delivered live
    // only, never replayed on top — no duplicates in the session.
    Result<uint64_t> poured = engine_->ReplayInto(sess->handle);
    if (!poured.ok()) {
      sess->queue.Close();
      engine_->Remove(sess->handle);
      sess->handle = nullptr;
      admission_.Release(qopts.limit);
      return {409, "application/json",
              ErrorJson("replay", poured.status().message())};
    }
    replayed = *poured;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions_[id] = sess;
  }
  // A submit racing Stop() could land after the shutdown sweep cleared
  // the map; re-check and undo so nothing leaks past teardown.
  if (stopping_.load(std::memory_order_acquire)) {
    if (!CloseSession(id, /*remove_query=*/true)) {
      // Stop's sweep won the erase: it closed the queue and released the
      // admission slot but intentionally skips engine teardown, so
      // removing the query falls to us. The sweep runs before
      // listener_.Stop() joins this handler, so the engine is still alive.
      engine_->Remove(*submitted);
      sess->removed.store(true, std::memory_order_relaxed);
    }
    return {503, "application/json",
            ErrorJson("shutting down", "server is stopping")};
  }
  if (engine_->finished()) sess->queue.Finish();

  std::string body = "{\"session\":\"" + id + "\"";
  body += ",\"policy\":\"" + policy + "\"";
  body += ",\"queue\":" + std::to_string(qopts.limit);
  if (replay) body += ",\"replayed\":" + std::to_string(replayed);
  body += ",\"schema\":\"" + obs::JsonEscape(sess->schema) + "\"";
  body += ",\"plan\":\"" + obs::JsonEscape(sess->plan) + "\"";
  body += ",\"results\":\"/session/" + id + "/results\"}\n";
  return {200, "application/json", body};
}

void QueryServer::HandleResults(int fd, const std::string& id,
                                const HttpRequest& req) {
  std::shared_ptr<Session> sess = FindSession(id);
  if (sess == nullptr) {
    WriteHttpResponse(fd, 404, "application/json",
                      ErrorJson("no such session", id));
    return;
  }
  uint64_t cursor =
      static_cast<uint64_t>(std::max<int64_t>(0, req.ParamInt("cursor", 0)));
  int64_t max_rows = req.ParamInt("max", 0);  // 0 = no cap.
  int wait_ms = static_cast<int>(std::clamp<int64_t>(
      req.ParamInt("wait_ms", options_.default_wait_ms), 0,
      options_.max_wait_ms));

  // The cursor is the acknowledgement: everything below it is processed
  // on the client's side and can be dropped from retention.
  sess->queue.Ack(cursor);

  ChunkedWriter w(fd);
  if (!w.Begin(200, "application/x-ndjson")) return;

  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(wait_ms);
  uint64_t next = cursor;
  uint64_t sent = 0;
  bool finished = false;
  for (;;) {
    size_t batch = options_.rows_per_batch;
    if (max_rows > 0) {
      uint64_t left = static_cast<uint64_t>(max_rows) - sent;
      if (left == 0) break;
      batch = static_cast<size_t>(
          std::min<uint64_t>(batch, left));
    }
    ResultQueue::Wait got = sess->queue.WaitRows(next, batch, deadline);
    if (!got.rows.empty()) {
      std::string out;
      size_t need = 0;
      for (const SessionRow& row : got.rows) need += row.json.size() + 24;
      out.reserve(need);
      for (const SessionRow& row : got.rows) {
        out += "{\"seq\":";
        out += std::to_string(row.seq);
        out.push_back(',');
        // Cached render from enqueue time; re-encode only if absent
        // (a row pushed by code that bypassed ResultQueue::Push).
        if (!row.json.empty()) {
          out += row.json;
        } else {
          AppendRowJson(*row.tuple, &out);
        }
        out += "}\n";
      }
      next = got.rows.back().seq + 1;
      sent += got.rows.size();
      rows_delivered_.fetch_add(got.rows.size(), std::memory_order_relaxed);
      if (!w.Write(out)) return;  // Client went away; keep rows unacked.
    }
    finished = got.finished;
    if (finished || got.closed) break;
    // Queue at capacity and fully streamed: the producer is blocked until
    // the client acks — end the response so it can re-request with a
    // higher cursor.
    if (got.full && next >= sess->queue.next_seq()) break;
    if (std::chrono::steady_clock::now() >= deadline) break;
  }

  std::string trailer = "{\"next_cursor\":" + std::to_string(next);
  trailer += std::string(",\"finished\":") + (finished ? "true" : "false");
  trailer += ",\"dropped\":" + std::to_string(sess->queue.dropped()) + "}\n";
  w.Write(trailer);
  w.End();
}

std::string QueryServer::SessionInfo(const Session& s) const {
  double shed_rate = -1.0;
  uint64_t shed_dropped = 0;
  // Caller holds mu_, so s.handle cannot be concurrently removed.
  if (s.handle != nullptr && s.handle->adaptive_shedding()) {
    shed_rate = s.handle->shed_drop_rate();
    shed_dropped = s.handle->shed_dropped();
  }
  return s.InfoJson(shed_rate, shed_dropped);
}

QueryServer::Response QueryServer::HandleSessionInfo(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return {404, "application/json", ErrorJson("no such session", id)};
  }
  return {200, "application/json", SessionInfo(*it->second) + "\n"};
}

QueryServer::Response QueryServer::HandleSessionProfile(
    const std::string& id, const HttpRequest& req) {
  std::string label;
  {
    // Holding mu_ pins the handle: CloseSession nulls it under the same
    // lock before the engine tears the query down.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return {404, "application/json", ErrorJson("no such session", id)};
    }
    if (it->second->handle != nullptr) {
      label = it->second->handle->metrics_label();
    }
  }
  return HandleProfile(label, req);
}

QueryServer::Response QueryServer::HandleProfile(const std::string& label,
                                                 const HttpRequest& req) {
  // The snapshot reads only operator atomics and registration-time
  // copies, so it is safe against concurrent ingest and Remove.
  obs::QueryProfile profile;
  if (label.empty() || !engine_->ProfileSnapshot(label, &profile)) {
    return {404, "application/json",
            ErrorJson("no profile",
                      "unknown query, or engine metrics were off at submit")};
  }
  const std::string* format = req.Param("format");
  if (format != nullptr && *format == "text") {
    return {200, "text/plain; charset=utf-8", profile.Pretty()};
  }
  return {200, "application/json", profile.ToJson()};
}

QueryServer::Response QueryServer::HandleSeries() {
  // Read at request time: the monitor may start after the server.
  const obs::Monitor* monitor = engine_->monitor();
  if (monitor == nullptr) {
    return {200, "application/json",
            "{\"ticks\":0,\"period_ms\":0,\"series\":[]}"};
  }
  return {200, "application/json", monitor->SeriesJson()};
}

QueryServer::Response QueryServer::HandleEvents(const HttpRequest& req) {
  uint64_t max = static_cast<uint64_t>(
      std::max<int64_t>(0, req.ParamInt("max", 0)));
  uint64_t after = static_cast<uint64_t>(
      std::max<int64_t>(0, req.ParamInt("after", 0)));
  return {200, "application/json", engine_->Events().ToJson(max, after)};
}

QueryServer::Response QueryServer::HandleSessionClose(const std::string& id) {
  if (!CloseSession(id, /*remove_query=*/true)) {
    return {404, "application/json", ErrorJson("no such session", id)};
  }
  return {200, "application/json", "{\"closed\":\"" + id + "\"}\n"};
}

bool QueryServer::CloseSession(const std::string& id, bool remove_query) {
  std::shared_ptr<Session> sess;
  QueryHandle* handle = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return false;
    sess = it->second;
    sessions_.erase(it);
    // Winning the erase is the teardown gate; null the handle under mu_
    // so info readers never see it mid-removal.
    handle = sess->handle;
    sess->handle = nullptr;
  }
  // Close first: unblocks a producer stuck in a full kBlock queue, so the
  // engine's Remove (exclusive registration lock + final flush) cannot
  // deadlock against it.
  sess->queue.Close();
  if (remove_query && handle != nullptr) {
    engine_->Remove(handle);
    sess->removed.store(true, std::memory_order_relaxed);
  }
  admission_.Release(sess->queue.options().limit);
  return true;
}

QueryServer::Response QueryServer::HandleSessions() {
  std::lock_guard<std::mutex> lock(mu_);
  std::string body = "{\"sessions\":[";
  bool first = true;
  for (auto& [id, sess] : sessions_) {
    if (!first) body += ",";
    first = false;
    body += SessionInfo(*sess);
  }
  body += "]}\n";
  return {200, "application/json", body};
}

QueryServer::Response QueryServer::HandleStats() {
  std::string body = "{\"sessions\":" + std::to_string(num_sessions());
  body += ",\"admitted_reserved_rows\":" +
          std::to_string(admission_.reserved_rows());
  body += ",\"max_sessions\":" +
          std::to_string(admission_.options().max_sessions);
  body += ",\"max_queued_rows\":" +
          std::to_string(admission_.options().max_queued_rows);
  body += ",\"rejected\":" + std::to_string(admission_.rejected());
  body += ",\"rows_delivered\":" +
          std::to_string(rows_delivered_.load(std::memory_order_relaxed));
  body += ",\"requests\":" +
          std::to_string(requests_.load(std::memory_order_relaxed));
  body += ",\"connections_accepted\":" + std::to_string(listener_.accepted());
  body += ",\"connections_rejected\":" +
          std::to_string(listener_.overflowed());
  body +=
      ",\"connections_active\":" + std::to_string(listener_.active_connections());
  const RecoveryReport& rec = engine_->recovery_report();
  body += std::string(",\"recovery\":{\"recovered\":") +
          (rec.recovered ? "true" : "false");
  body += std::string(",\"checkpoint_loaded\":") +
          (rec.checkpoint_loaded ? "true" : "false");
  body += ",\"checkpoint_id\":" + std::to_string(rec.checkpoint_id);
  body += ",\"replayed_tuples\":" + std::to_string(rec.replayed_tuples);
  body += ",\"replayed_puncts\":" + std::to_string(rec.replayed_puncts);
  body += ",\"restored_queries\":" + std::to_string(rec.restored_queries);
  body += ",\"restored_operators\":" + std::to_string(rec.restored_operators);
  body += ",\"torn_streams\":" + std::to_string(rec.torn_streams);
  char sec[32];
  std::snprintf(sec, sizeof(sec), "%.3f", rec.replay_seconds);
  body += std::string(",\"replay_seconds\":") + sec + "}";
  body += "}\n";
  return {200, "application/json", body};
}

QueryServer::Response QueryServer::HandleRoot() {
  std::string body =
      "{\"service\":\"sqp query server\",\"endpoints\":["
      "\"POST /query?queue=&policy=block|drop|shed&block_ms=&replay=1\","
      "\"GET /session/<id>\",\"GET /session/<id>/results?cursor=&max=&wait_ms=\","
      "\"GET /session/<id>/profile?format=json|text\","
      "\"DELETE /session/<id>\",\"GET /sessions\",\"GET /stats\","
      "\"GET /metrics\",\"GET /snapshot.json\",\"GET /series.json\","
      "\"GET /profile/<label>.json?format=json|text\","
      "\"GET /events.json?after=&max=\",\"GET /healthz\"]}\n";
  return {200, "application/json", body};
}

void QueryServer::PublishMetrics(obs::SnapshotBuilder& b) const {
  std::lock_guard<std::mutex> lock(mu_);
  b.AddGauge("sqp_server_sessions", {}, static_cast<double>(sessions_.size()));
  b.AddCounter("sqp_server_rejected", {},
               static_cast<double>(admission_.rejected()));
  b.AddCounter("sqp_server_rows_delivered", {},
               static_cast<double>(
                   rows_delivered_.load(std::memory_order_relaxed)));
  b.AddGauge("sqp_server_connections_active", {},
             static_cast<double>(listener_.active_connections()));
  for (auto& [id, sess] : sessions_) {
    obs::LabelSet labels{{"session", id}};
    b.AddCounter("sqp_server_session_rows", labels,
                 static_cast<double>(sess->queue.produced()));
    b.AddCounter("sqp_server_session_dropped", labels,
                 static_cast<double>(sess->queue.dropped()));
    b.AddGauge("sqp_server_session_queue_depth", labels,
               static_cast<double>(sess->queue.depth()));
    b.AddGauge("sqp_server_session_lag", labels,
               static_cast<double>(sess->queue.lag()));
  }
}

}  // namespace server
}  // namespace sqp
