#ifndef SQP_ARCH_ENGINE_H_
#define SQP_ARCH_ENGINE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "cql/planner.h"
#include "dur/checkpointable.h"
#include "dur/manager.h"
#include "exec/profiler.h"
#include "exec/reorder.h"
#include "exec/sharding.h"
#include "obs/event_log.h"
#include "obs/monitor.h"
#include "obs/registry.h"
#include "sched/parallel_executor.h"
#include "shed/feedback_shedder.h"
#include "shed/load_shedder.h"

namespace sqp {

namespace server {
class QueryServer;
struct QueryServerOptions;
}  // namespace server

/// Options governing how the engine treats one registered stream.
struct StreamOptions {
  /// Tolerated disorder (ordering units); > 0 interposes a SlackReorderOp
  /// in front of every query reading the stream.
  int64_t reorder_slack = 0;
  /// Heartbeat period; > 0 injects watermarks every `period` units so
  /// windowed queries make progress on quiet streams.
  int64_t heartbeat_period = 0;
};

/// Tuning for one query moved onto the threaded executor
/// (StreamEngine::EnableParallel).
struct ParallelQueryOptions {
  /// Bound per stage queue, in elements (0 = unbounded).
  size_t queue_limit = 1024;
  /// Full-queue behavior: block the ingesting thread or shed the tuple.
  Backpressure backpressure = Backpressure::kBlock;
  /// Delivery granularity per stage (ParallelExecutor::Stage::max_batch):
  /// the worker hands queued elements to each operator in ElementBatch
  /// runs of at most this size. <= 1 delivers per element.
  size_t max_batch = 64;
};

/// Tuning for StreamEngine::EnableAdaptiveShedding.
struct AdaptiveShedOptions {
  /// PI controller tuning: the backlog to hold and the gains mapping
  /// normalized backlog error to drop probability.
  FeedbackShedder::Options controller;
  /// Seed of the random-drop gate in front of the query.
  uint64_t seed = 42;
  /// Where the controller reads the query's backlog each monitor tick.
  /// Default (empty): the query's ParallelExecutor queue occupancy.
  /// Serial queries have no executor queue and must supply a probe
  /// (e.g. an application-side buffer length).
  std::function<size_t()> backlog_probe;
};

/// Tuning for StreamEngine::Submit.
struct SubmitOptions {
  /// Streaming callback invoked per output tuple, wired atomically with
  /// registration: no element delivered after Submit returns can miss
  /// it. Runs on whichever thread drives the query's sink (the ingest
  /// thread for serial queries, a worker for parallel ones) — it must be
  /// thread-compatible with that and should not call back into the
  /// engine's registration API.
  std::function<void(const TupleRef&)> on_result;
  /// When false, the engine does not retain output rows in the handle's
  /// results() collector — the mode for standing server queries, whose
  /// output goes to a bounded per-session queue instead of an unbounded
  /// in-process vector.
  bool collect = true;
};

/// What EnableDurability's recovery pass did, for operators and tests.
struct RecoveryReport {
  /// True when EnableDurability found an existing archive or checkpoint
  /// and ran recovery (even if nothing needed replaying).
  bool recovered = false;
  bool checkpoint_loaded = false;
  uint64_t checkpoint_id = 0;
  /// Archive position the checkpoint captured; included queries replay
  /// only records past it.
  uint64_t checkpoint_position = 0;
  uint64_t replayed_tuples = 0;
  uint64_t replayed_puncts = 0;
  /// Queries whose operator state was restored from the checkpoint.
  size_t restored_queries = 0;
  size_t restored_operators = 0;
  /// Queries replayed from seq 0 (not in the checkpoint, or their plan
  /// is not checkpointable).
  size_t replay_from_zero_queries = 0;
  /// Streams whose archive tail was torn by the crash (truncated at the
  /// last intact record).
  size_t torn_streams = 0;
  double replay_seconds = 0.0;

  std::string ToString() const;
};

/// A handle to one standing (continuous, persistent) query.
class QueryHandle {
 public:
  /// Rows produced so far (the engine collects by default).
  ///
  /// For a parallel query (EnableParallel) the results are written by a
  /// worker thread: read them only after FinishAll(), which joins the
  /// workers.
  const std::vector<TupleRef>& results() const { return sink_->tuples(); }
  size_t result_count() const { return sink_->count(); }
  void ClearResults() { sink_->Clear(); }

  /// True once the query runs on its own worker thread(s).
  bool parallel() const { return parallel_ != nullptr; }
  /// Per-stage counters of the parallel executor (null when serial).
  const ParallelExecutor* parallel_executor() const { return parallel_.get(); }

  const Schema& output_schema() const { return query_->output_schema(); }
  const MemoryAnalysis& memory() const { return query_->memory(); }
  const std::string& text() const { return text_; }
  const std::string& plan_desc() const { return query_->plan_desc(); }
  /// Label this query's operators report under in the engine registry
  /// ("q0", "q1", ...). Empty when metrics were disabled at Submit and
  /// no collector has needed a label yet (the engine assigns one lazily
  /// for stage/shard/shed collectors).
  const std::string& metrics_label() const { return metrics_label_; }

  /// Optional streaming callback, invoked per output element in addition
  /// to collection.
  void OnResult(std::function<void(const TupleRef&)> fn) {
    callback_ = std::move(fn);
  }

  /// Measured end-to-end (ingest -> sink) latency histogram, in ns.
  /// Null when the engine's metrics were disabled at Submit.
  const obs::Histogram* latency_histogram() const { return latency_hist_; }

  /// True once EnableColumnar opted this query into vectorized delivery.
  bool columnar() const { return columnar_; }

  /// True once EnableSharding spliced at least one ShardedOp into this
  /// query's plan.
  bool sharded() const { return !sharded_ops_.empty(); }
  /// The spliced sharded operators (plan-owned), for stats inspection.
  const std::vector<ShardedOp*>& sharded_ops() const { return sharded_ops_; }
  /// Rewrite report of EnableSharding: one entry per stateful operator,
  /// spliced or skipped-with-reason.
  const std::vector<ShardRewrite>& shard_rewrites() const {
    return shard_rewrites_;
  }

  /// True once EnableAdaptiveShedding attached a drop gate to this query.
  bool adaptive_shedding() const { return shed_gate_ != nullptr; }
  /// Current drop probability of the adaptive gate (0 when detached).
  double shed_drop_rate() const {
    return shed_gate_ != nullptr ? shed_gate_->drop_rate() : 0.0;
  }
  /// Tuples the adaptive gate has shed so far.
  uint64_t shed_dropped() const {
    return shed_gate_ != nullptr ? shed_gate_->dropped() : 0;
  }

 private:
  friend class StreamEngine;

  std::string text_;
  std::string metrics_label_;
  std::unique_ptr<cql::CompiledQuery> query_;
  std::unique_ptr<CollectorSink> sink_;
  std::unique_ptr<Operator> tee_;  // Collector + callback fan-out.
  std::function<void(const TupleRef&)> callback_;
  // Per-input front-ends (reorder/heartbeat), parallel to query inputs.
  std::vector<std::unique_ptr<Operator>> front_;
  // The operator Ingest() pushes into, per (stream occurrence).
  struct Tap {
    std::string stream;
    Operator* entry;
    int port;
  };
  std::vector<Tap> taps_;
  // Set by EnableParallel: the threaded executor running this query's
  // plan, plus the adapter operator for the whole-query fallback.
  // Declared after query_/tee_ so it is destroyed (joined) first.
  std::unique_ptr<Operator> parallel_adapter_;
  std::unique_ptr<ParallelExecutor> parallel_;
  // Set by EnableSharding (plan-owned operators; handle only observes).
  std::vector<ShardedOp*> sharded_ops_;
  std::vector<ShardRewrite> shard_rewrites_;
  bool chain_mode_ = false;  // True: plan split op-per-stage.
  bool columnar_ = false;    // Set by EnableColumnar.
  bool ingested_ = false;    // Any element delivered yet?
  // Archive seq boundary at registration (set under the exclusive
  // registration lock by Submit, or by EnableDurability for queries that
  // predate it): records <= submit_seq_ were never delivered live to
  // this handle, records > it are. ReplayInto replays only up to here.
  uint64_t submit_seq_ = 0;
  // End-to-end latency probe: the engine arms `pending_ingest_ns_` with
  // a NowNs() timestamp on every Nth delivered tuple (arm-if-empty, so
  // a sample in flight is never overwritten); the tee claims it at the
  // first output and records the difference here. One atomic slot, no
  // allocation, works across the parallel queue boundary.
  obs::Histogram* latency_hist_ = nullptr;
  std::atomic<uint64_t> pending_ingest_ns_{0};
  uint64_t latency_countdown_ = 1;  // Ingest-thread only; fires at 0.
  // Adaptive shedding (EnableAdaptiveShedding): ingest-side drop gate,
  // its forwarding sink into the normal delivery path, the controller,
  // and the last backlog it observed (written on the monitor thread).
  std::unique_ptr<RandomDropOp> shed_gate_;
  std::unique_ptr<Operator> shed_fwd_;
  std::unique_ptr<FeedbackShedder> shedder_;
  std::atomic<size_t> shed_backlog_{0};
  // Profiler tap stamping every watermark entering this query (set at
  // Submit when metrics are on); owned by the engine's QueryProfiler.
  obs::QueryProfiler::SourceWatermark* profile_source_ = nullptr;
  // Shed-gate transition tracker for the event log; touched only by the
  // monitor tick listener thread.
  bool shed_active_ = false;
};

/// The engine: a registry of streams and standing queries with shared
/// ingest — the "DSMS" box of slide 14 as a library object.
///
///   StreamEngine engine;
///   engine.RegisterStream("packets", gen::PacketSchema());
///   auto q = engine.Submit("select ... from packets ...");
///   engine.Ingest("packets", tuple);   // Fans out to every reader.
///   engine.FinishAll();
///
/// Single-threaded by default; scheduling and shedding wrap around it
/// (sqp/sched, sqp/shed) rather than inside it. Individual queries can
/// opt into threaded execution with EnableParallel, which decouples
/// ingest from processing behind bounded queues.
class StreamEngine {
 public:
  StreamEngine();

  /// Registers a stream with optional domain metadata and per-stream
  /// disorder/heartbeat handling.
  Status RegisterStream(const std::string& name, SchemaRef schema,
                        std::vector<FieldDomain> domains = {},
                        StreamOptions options = {});

  /// Compiles and installs a standing query. The handle stays valid
  /// until Remove() or the engine's destruction.
  ///
  /// Registration is safe against a concurrent Ingest from another
  /// thread (the query-server front door does exactly that): Submit,
  /// Remove, and the Enable* calls take the registration lock
  /// exclusively, Ingest takes it shared. Ingest itself must still come
  /// from one thread at a time — operators are not concurrent.
  Result<QueryHandle*> Submit(const std::string& query_text) {
    return Submit(query_text, SubmitOptions{});
  }
  Result<QueryHandle*> Submit(const std::string& query_text,
                              SubmitOptions options);

  /// Tears one standing query down against a running engine: flushes it
  /// (unless the engine already finished), detaches its metrics
  /// collectors and shedding loop, and destroys the handle. Safe against
  /// concurrent Ingest. The caller must guarantee the query's on_result
  /// callback cannot block indefinitely once Remove is called (close the
  /// downstream queue first), or the final flush could wedge.
  Status Remove(QueryHandle* handle);

  /// Opt-in: moves `handle`'s physical plan onto a ParallelExecutor so
  /// it runs concurrently with ingest. Single-input queries whose plan
  /// is a linear operator chain get one worker thread *per operator*
  /// (true pipeline parallelism); other plans run whole on one dedicated
  /// worker. Either way, Ingest() then only enqueues — blocking or
  /// shedding per `options` when the query falls behind — and
  /// FinishAll() drains and joins the workers before results are read.
  ///
  /// Must be called after Submit and before the first Ingest touching
  /// the query; unsupported for queries with reorder/heartbeat
  /// front-ends (those run on the ingest thread and are not yet staged).
  Status EnableParallel(QueryHandle* handle, ParallelQueryOptions options = {});

  /// Opt-in vectorized execution: stages built by a later EnableParallel
  /// deliver queued tuple runs to column-capable operators (select,
  /// project, punctuated group-by) as ColumnBatches, evaluated by the
  /// compiled column-at-a-time kernels (sqp::vec) with rows rebuilt only
  /// at row-bound operators and sinks; a later EnableSharding folds
  /// converted runs inside each shard replica the same way. Output is
  /// bit-identical to the row path — operators whose expressions cannot
  /// vectorize simply keep their row delivery.
  ///
  /// Must be called after Submit, before the first Ingest, and before
  /// EnableSharding/EnableParallel (both capture the flag when they
  /// build their stages/replicas). A serial query without EnableParallel
  /// ingests element-at-a-time and gains nothing from the flag.
  Status EnableColumnar(QueryHandle* handle);

  /// Opt-in data parallelism: rewrites `handle`'s plan with
  /// ShardStatefulOps, replacing each shardable stateful operator
  /// (joins, keyed group-bys) with `options.shards` key-partitioned
  /// replicas behind a hash exchange and a punctuation-correct merge.
  /// Operators that refuse (count windows, global aggregates) are left
  /// serial — inspect handle->shard_rewrites() for the per-operator
  /// outcome. Per-shard counters (sqp_shard_*) join the engine registry.
  ///
  /// Must be called after Submit, before the first Ingest, and before
  /// EnableParallel (which then runs the sharded plan in whole-query
  /// mode — the shard/merge workers already provide the pipeline
  /// decoupling that op-per-stage mode would add).
  Status EnableSharding(QueryHandle* handle, ShardPlanOptions options = {});

  /// Pushes one tuple (or punctuation) into every query reading `stream`.
  Status Ingest(const std::string& stream, const TupleRef& tuple);
  Status IngestElement(const std::string& stream, const Element& e);

  /// Ends every stream: flushes all queries (closing windows/groups).
  void FinishAll();

  /// The engine-wide metrics registry. Every query submitted while
  /// metrics are enabled (the default) reports per-operator counters
  /// here, labeled q0, q1, ... in submission order; parallel queries
  /// additionally publish per-stage queue stats. Snapshot it any time —
  /// including while ingest/workers run — via Metrics().TakeSnapshot().
  obs::MetricsRegistry& Metrics() { return metrics_; }
  const obs::MetricsRegistry& Metrics() const { return metrics_; }

  /// Turns per-operator instrumentation on/off for queries submitted
  /// *after* the call. Off: operators stay unbound and pay only a
  /// branch per element.
  void SetMetricsEnabled(bool on) { metrics_enabled_ = on; }
  bool metrics_enabled() const { return metrics_enabled_; }

  /// The engine's structured event log: a bounded ring of timestamped
  /// lifecycle events (query submit/stop, checkpoints, replay, shed-gate
  /// transitions, shard backpressure stalls, durability flush errors).
  /// Exported at /events.json and tailed by `sqpsh \events`. Safe from
  /// any thread.
  obs::EventLog& Events() { return events_; }
  const obs::EventLog& Events() const { return events_; }

  /// Copies one query's profile (the EXPLAIN ANALYZE payload): per-
  /// operator rows in/out, selectivity, busy time, batch-size shape,
  /// queue wait, state bytes, and event-time watermark lag against the
  /// query's source watermark. Queries submitted while metrics were
  /// enabled are profiled; returns false for unknown or unprofiled
  /// labels. Safe from any thread while ingest runs.
  bool ProfileSnapshot(const std::string& label, obs::QueryProfile* out) const;
  bool ProfileSnapshot(const QueryHandle* handle,
                       obs::QueryProfile* out) const;
  /// Labels of the currently profiled queries.
  std::vector<std::string> ProfiledQueries() const;

  /// Samples every Nth ingested tuple's path through its plan(s) into
  /// the trace ring (0 = off). Takes effect for queries submitted after
  /// the call if metrics were disabled before it.
  void EnableTracing(uint64_t sample_every) {
    metrics_.EnableTracing(sample_every);
  }

  /// 1/N sampling period of the end-to-end latency probes (default 256,
  /// 0 disables). Takes effect at the next Ingest.
  void SetLatencySampleEvery(uint64_t n) { latency_sample_every_ = n; }
  uint64_t latency_sample_every() const { return latency_sample_every_; }

  /// Starts the engine's continuous monitor over Metrics() (idempotent;
  /// later calls return the existing monitor and ignore `options`).
  /// With options.period_ms <= 0 no sampler thread is spawned — drive
  /// observation manually with monitor()->TickOnce(). Safe from any
  /// thread, also while the query server answers /series.json.
  obs::Monitor& StartMonitor(obs::MonitorOptions options = {});
  /// The monitor, or nullptr before StartMonitor. Once created it lives
  /// as long as the engine.
  obs::Monitor* monitor() {
    std::lock_guard<std::mutex> lock(monitor_mu_);
    return monitor_.get();
  }
  const obs::Monitor* monitor() const {
    std::lock_guard<std::mutex> lock(monitor_mu_);
    return monitor_.get();
  }

  /// Starts the engine's HTTP server (server::QueryServer) on `port` —
  /// 0 binds an ephemeral port. Clients POST CQL to /query, receive a
  /// session id, and stream results back via long-poll
  /// GET /session/<id>/results with cursor resume. The same port answers
  /// scrapes: /metrics (Prometheus), /snapshot.json, /series.json (the
  /// monitor's history, if one was started), /events.json and
  /// /profile/<label>.json. Does not start a monitor. Returns the bound
  /// port. Defined in src/server/engine_serve.cc (the server subsystem
  /// layers above the engine).
  Result<int> Serve(int port);
  Result<int> Serve(int port, const server::QueryServerOptions& options);
  server::QueryServer* query_server() { return server_.get(); }

  /// True once FinishAll() ran: streams are closed and new ingest is
  /// rejected.
  bool finished() const { return finished_; }

  /// Turns on the durable archive under `dir` (created if absent): every
  /// ingested element — tuples and punctuation — is appended to a
  /// per-stream segmented write-ahead archive before delivery, group-
  /// committed by a background flusher. If `dir` already holds an
  /// archive and options.recover is set (the default), recovery runs
  /// first: the latest checkpoint's operator state is restored into
  /// matching already-submitted queries (matched by CQL text) and the
  /// archive suffix is replayed through their plans in original ingest
  /// order, so Submit your queries *before* calling this. Defined in
  /// src/arch/engine_dur.cc.
  Status EnableDurability(const std::string& dir,
                          dur::DurabilityOptions options = {});
  bool durable() const { return dur_ != nullptr; }
  dur::DurabilityManager* durability() { return dur_.get(); }
  /// What the recovery pass of the last EnableDurability did.
  const RecoveryReport& recovery_report() const { return recovery_; }

  /// Flushes the archive and writes a checkpoint of every query's
  /// operator state now. Safe from any thread: takes the registration
  /// lock exclusively, so concurrent ingest is held off while live
  /// operator state is read.
  Status CheckpointNow();

  /// Replays the archived past into one freshly submitted query — the
  /// "--replay" mode: submit a fresh query over the archived past, pour
  /// the archive through it, then let live ingest take over. Replay
  /// stops at the handle's Submit-time archive position: anything
  /// archived after Submit is (or will be) delivered live, so elements
  /// that raced in between Submit and this call are never delivered
  /// twice. Returns the number of elements delivered. Takes the
  /// registration lock exclusively; the handle's on_result callback must
  /// not block.
  Result<uint64_t> ReplayInto(QueryHandle* handle);

  /// Closes the observation loop for one query: interposes a
  /// RandomDropOp gate between Ingest and the query, attaches a
  /// FeedbackShedder, and drives its Observe() from every monitor tick
  /// with the query's measured backlog — the gate's drop probability
  /// follows the controller. Starts the monitor (default options) if
  /// needed. Single-input queries only; serial queries must supply
  /// options.backlog_probe.
  Status EnableAdaptiveShedding(QueryHandle* handle,
                                AdaptiveShedOptions options = {});

  const cql::Catalog& catalog() const { return catalog_; }
  size_t num_queries() const { return queries_.size(); }
  const std::vector<std::unique_ptr<QueryHandle>>& queries() const {
    return queries_;
  }

  /// Aggregate state across all standing queries.
  size_t TotalStateBytes() const;

 private:
  /// The one delivery path from ingest into a query: arms the latency
  /// probe, then routes to the parallel executor, the reorder/heartbeat
  /// front-end, or the query itself. The adaptive-shedding gate sits in
  /// front of this.
  void DeliverDirect(QueryHandle& q, const QueryHandle::Tap& tap,
                     const Element& e);

  /// Checkpointing/recovery internals (src/arch/engine_dur.cc). All
  /// require reg_mu_ held (shared is enough for CheckpointLocked only
  /// when called on the ingest thread, where operators are quiescent;
  /// any other caller must hold it exclusively — CheckpointNow does.
  /// RecoverLocked runs under the exclusive lock of EnableDurability
  /// before any concurrent ingest exists).
  Status CheckpointLocked();
  Status RecoverLocked();
  /// Walks `q`'s plan; true when every operator either carries state
  /// serializers (collected into `ops`, sink last) or is known
  /// stateless. False (with `why`) excludes the query from checkpoints —
  /// recovery then replays its archive input from seq 0.
  bool CollectCheckpointOps(QueryHandle& q,
                            std::vector<CheckpointableOperator*>* ops,
                            std::string* why) const;

  /// The label this query's collectors/listeners register under —
  /// handle->metrics_label_ when metrics were on at Submit, otherwise a
  /// lazily assigned "qN" cached on the handle so teardown can find the
  /// same names. Caller holds reg_mu_.
  const std::string& LabelFor(QueryHandle* handle);

  /// Guards the query/stream registries against concurrent registration
  /// and delivery: Ingest takes it shared (one ingest thread may overlap
  /// a Submit/Remove from a server connection thread), all registration
  /// and teardown paths take it exclusive.
  mutable std::shared_mutex reg_mu_;

  cql::Catalog catalog_;
  std::map<std::string, StreamOptions> stream_options_;
  // Outlives queries_ (destroyed later): the latency histograms TeeSinks
  // observe into live here, and it points at the operators' records
  // until Remove drops them. Collectors that reference per-query
  // executors are only invoked via TakeSnapshot, never during
  // destruction.
  obs::MetricsRegistry metrics_;
  // Like metrics_, both outlive queries_ (declared before, destroyed
  // after): teardown paths emit events until the last handle dies.
  obs::EventLog events_;
  obs::QueryProfiler profiler_;
  std::map<std::string, obs::Counter*> ingest_counters_;
  bool metrics_enabled_ = true;
  std::vector<std::unique_ptr<QueryHandle>> queries_;
  // Monotonic label sequence: labels stay unique across Remove()s (a
  // vector-index label would be reissued after an erase and collide).
  uint64_t query_seq_ = 0;
  bool finished_ = false;
  // Declared after metrics_ and queries_: the manager (whose flusher
  // thread ticks registry counters) dies before either.
  std::unique_ptr<dur::DurabilityManager> dur_;
  RecoveryReport recovery_;
  uint64_t ckpt_id_ = 0;  // Last checkpoint id written or recovered.
  // One kFlushError event per sticky archive failure, not one per
  // rejected ingest (written on the ingest thread).
  bool flush_error_logged_ = false;
  obs::Counter* dur_ckpt_ctr_ = nullptr;
  obs::Counter* dur_replay_ctr_ = nullptr;
  uint64_t latency_sample_every_ = 256;
  // Declared after queries_ so teardown runs observation-first: the
  // monitor joins its sampler (whose tick listeners read query state)
  // before queries die. monitor_mu_ guards the pointer: StartMonitor may
  // create it while a server thread reads it for /series.json.
  mutable std::mutex monitor_mu_;
  std::unique_ptr<obs::Monitor> monitor_;
  // Declared last: destroyed first, so the query server stops its
  // listener and closes sessions (which reference query handles) before
  // anything above dies. shared_ptr: QueryServer is incomplete here.
  std::shared_ptr<server::QueryServer> server_;
};

}  // namespace sqp

#endif  // SQP_ARCH_ENGINE_H_
