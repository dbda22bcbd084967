#include "arch/engine.h"

#include <cstdio>

#include "obs/trace.h"

namespace sqp {

namespace {

/// Forwards every element to the collector (when retention is on) and
/// the optional callback, and claims the query's pending end-to-end
/// latency sample (armed at ingest) when an output tuple arrives.
class TeeSink : public Operator {
 public:
  TeeSink(CollectorSink* collector,
          const std::function<void(const TupleRef&)>* callback,
          obs::Histogram* latency_hist,
          std::atomic<uint64_t>* pending_ingest_ns)
      : Operator("tee"),
        collector_(collector),
        callback_(callback),
        latency_hist_(latency_hist),
        pending_(pending_ingest_ns) {}

  void Push(const Element& e, int port = 0) override {
    CountIn(e);
    if (latency_hist_ != nullptr && e.is_tuple() &&
        pending_->load(std::memory_order_relaxed) != 0) {
      // exchange(0) claims the sample exactly once even if another
      // output races in; the acquire pairs with the ingest-side release
      // so the timestamp read is the one the prober wrote.
      uint64_t t0 = pending_->exchange(0, std::memory_order_acquire);
      if (t0 != 0) latency_hist_->Observe(obs::NowNs() - t0);
    }
    if (collector_ != nullptr) collector_->Push(e, port);
    if (*callback_ && e.is_tuple()) (*callback_)(e.tuple());
  }

 private:
  CollectorSink* collector_;  // Null: SubmitOptions::collect was false.
  const std::function<void(const TupleRef&)>* callback_;
  obs::Histogram* latency_hist_;
  std::atomic<uint64_t>* pending_;
};

/// Whole-query stage for plans that are not linear chains (joins,
/// multi-input): one worker drives the compiled query; the plan's
/// existing internal wiring (including its sink) is untouched.
class QueryStageOp : public Operator {
 public:
  explicit QueryStageOp(cql::CompiledQuery* q)
      : Operator("query-stage"), q_(q) {}

  void Push(const Element& e, int port = 0) override {
    CountIn(e);
    q_->Push(e, port);
  }

  void Flush() override { q_->Finish(); }

 private:
  cql::CompiledQuery* q_;
};

}  // namespace

StreamEngine::StreamEngine() {
  // Per-query watermark gauges (sqp_query_watermark_lag,
  // sqp_query_source_watermark) join every snapshot/scrape.
  metrics_.AddCollector("profiler", [this](obs::SnapshotBuilder& b) {
    profiler_.Publish(b);
  });
}

Status StreamEngine::RegisterStream(const std::string& name, SchemaRef schema,
                                    std::vector<FieldDomain> domains,
                                    StreamOptions options) {
  std::unique_lock<std::shared_mutex> reg(reg_mu_);
  SQP_RETURN_NOT_OK(
      catalog_.Register(name, std::move(schema), std::move(domains)));
  stream_options_[name] = options;
  ingest_counters_[name] =
      metrics_.GetCounter("sqp_stream_ingested_total", {{"stream", name}});
  return Status::OK();
}

Result<QueryHandle*> StreamEngine::Submit(const std::string& query_text,
                                          SubmitOptions options) {
  std::unique_lock<std::shared_mutex> reg(reg_mu_);
  auto compiled = cql::Compile(query_text, catalog_);
  if (!compiled.ok()) return compiled.status();

  auto handle = std::make_unique<QueryHandle>();
  handle->text_ = query_text;
  handle->query_ = std::move(*compiled);
  handle->sink_ = std::make_unique<CollectorSink>();
  handle->callback_ = std::move(options.on_result);

  if (metrics_enabled_) {
    handle->metrics_label_ = "q" + std::to_string(query_seq_);
    handle->query_->plan().BindMetrics(metrics_, handle->metrics_label_);
    handle->latency_hist_ = metrics_.GetHistogram(
        "sqp_query_latency_ns", {{"query", handle->metrics_label_}});
  }
  ++query_seq_;

  handle->tee_ = std::make_unique<TeeSink>(
      options.collect ? handle->sink_.get() : nullptr, &handle->callback_,
      handle->latency_hist_, &handle->pending_ingest_ns_);
  handle->query_->AttachSink(handle->tee_.get());

  // Profile the query: a tree over the plan operators' records plus a
  // source-side watermark tap. After AttachSink so the plan root has
  // its outward edge (BindPlan's liveness walk reads output()).
  if (metrics_enabled_) {
    handle->profile_source_ =
        profiler_.Register(handle->metrics_label_, query_text);
    profiler_.BindPlan(handle->metrics_label_, handle->query_->plan());
  }
  events_.Emit(obs::EventKind::kQuerySubmit, handle->metrics_label_,
               query_text);

  // Wire per-input front-ends: reorder and/or heartbeat per the owning
  // stream's options.
  const auto& from = handle->query_->analysis().ast.from;
  for (int i = 0; i < handle->query_->num_inputs(); ++i) {
    const std::string& stream = from[static_cast<size_t>(i)].name;
    const StreamOptions& opt = stream_options_[stream];
    Operator* entry = handle->query_->input(i);
    // NOTE: CompiledQuery::Push handles ports internally; front-ends
    // push into the query via a callback so port routing is preserved.
    cql::CompiledQuery* q = handle->query_.get();
    Operator* target = nullptr;
    (void)entry;
    if (opt.heartbeat_period > 0) {
      auto hb = std::make_unique<HeartbeatOp>(opt.heartbeat_period,
                                              opt.reorder_slack);
      auto fwd = std::make_unique<CallbackSink>(
          [q, i](const Element& e) { q->Push(e, i); });
      hb->SetOutput(fwd.get());
      target = hb.get();
      handle->front_.push_back(std::move(fwd));
      handle->front_.push_back(std::move(hb));
    }
    if (opt.reorder_slack > 0) {
      auto ro = std::make_unique<SlackReorderOp>(opt.reorder_slack);
      if (target != nullptr) {
        ro->SetOutput(target);
      } else {
        auto fwd = std::make_unique<CallbackSink>(
            [q, i](const Element& e) { q->Push(e, i); });
        ro->SetOutput(fwd.get());
        handle->front_.push_back(std::move(fwd));
      }
      target = ro.get();
      handle->front_.push_back(std::move(ro));
    }
    QueryHandle::Tap tap;
    tap.stream = stream;
    tap.entry = target;  // nullptr = push straight into the query.
    tap.port = i;
    handle->taps_.push_back(tap);
  }

  // Stamp the archive boundary under the same exclusive lock that makes
  // the query live: every record at or below it was archived before any
  // live delivery to this handle could happen, every record above it
  // will be delivered live. ReplayInto replays only up to this seq, so
  // a replay racing ingest never double-delivers.
  if (dur_ != nullptr) handle->submit_seq_ = dur_->last_seq();

  queries_.push_back(std::move(handle));
  return queries_.back().get();
}

Status StreamEngine::EnableParallel(QueryHandle* handle,
                                    ParallelQueryOptions options) {
  std::unique_lock<std::shared_mutex> reg(reg_mu_);
  if (handle == nullptr) return Status::InvalidArgument("null handle");
  if (handle->parallel_ != nullptr) {
    return Status::InvalidArgument("query is already parallel");
  }
  if (handle->ingested_) {
    return Status::InvalidArgument(
        "EnableParallel must precede the first Ingest for this query");
  }
  for (const QueryHandle::Tap& tap : handle->taps_) {
    if (tap.entry != nullptr) {
      return Status::InvalidArgument(
          "parallel execution does not yet support reorder/heartbeat "
          "front-ends");
    }
  }

  cql::CompiledQuery* q = handle->query_.get();
  std::vector<ParallelExecutor::Stage> stages;
  Operator* sink = nullptr;
  bool chain = false;
  // A sharded plan always runs whole-query: a ShardedOp's merge worker
  // drives the downstream edge, and op-per-stage mode would hand that
  // same edge (a stage relay) to a stage worker too — two drivers, one
  // operator. The shard/merge threads already decouple the pipeline.
  if (q->num_inputs() == 1 && handle->sharded_ops_.empty()) {
    // Split the linear chain input -> ... -> root op-per-stage; the tee
    // (collector + callback) stays attached as the executor's sink and
    // runs on the last stage's worker.
    chain = true;
    int in_port = q->input_port(0);
    for (Operator* op = q->input(0); op != nullptr && op != handle->tee_.get();
         op = op->output()) {
      ParallelExecutor::Stage s;
      s.op = op;
      s.queue_limit = options.queue_limit;
      s.backpressure = options.backpressure;
      s.max_batch = options.max_batch;
      s.in_port = in_port;
      // Columnar opt-in: the stage converts claimed runs only when the
      // operator can actually evaluate them column-at-a-time.
      s.columnar = handle->columnar_ && op->SupportsColumns(in_port);
      in_port = op->output_port();  // Port the *next* stage is fed on.
      stages.push_back(s);
    }
    sink = handle->tee_.get();
  } else {
    // Joins/multi-input plans: run the whole compiled query as one
    // stage. Ingest still decouples from processing; the plan's wiring
    // (root -> tee) is left untouched, so no sink override.
    handle->parallel_adapter_ = std::make_unique<QueryStageOp>(q);
    ParallelExecutor::Stage s;
    s.op = handle->parallel_adapter_.get();
    s.queue_limit = options.queue_limit;
    s.backpressure = options.backpressure;
    s.max_batch = options.max_batch;
    stages.push_back(s);
  }

  handle->chain_mode_ = chain;
  handle->parallel_ = std::make_unique<ParallelExecutor>(std::move(stages),
                                                         sink);
  handle->parallel_->Start();
  // Per-stage queue stats join the registry through the shared
  // StageStats path (one shape for serial and threaded executors).
  const std::string label = LabelFor(handle);
  metrics_.AddCollector(
      "stages:" + label,
      [exec = handle->parallel_.get(), label](obs::SnapshotBuilder& b) {
        exec->CollectStats(b, {{"query", label}});
      });
  return Status::OK();
}

Status StreamEngine::EnableColumnar(QueryHandle* handle) {
  std::unique_lock<std::shared_mutex> reg(reg_mu_);
  if (handle == nullptr) return Status::InvalidArgument("null handle");
  if (handle->ingested_) {
    return Status::InvalidArgument(
        "EnableColumnar must precede the first Ingest for this query");
  }
  if (handle->parallel_ != nullptr) {
    return Status::InvalidArgument(
        "EnableColumnar must precede EnableParallel (stages capture the "
        "conversion flag when they are built)");
  }
  if (handle->sharded()) {
    return Status::InvalidArgument(
        "EnableColumnar must precede EnableSharding (replicas capture the "
        "conversion flag when the plan is rewritten)");
  }
  handle->columnar_ = true;
  return Status::OK();
}

Status StreamEngine::EnableSharding(QueryHandle* handle,
                                    ShardPlanOptions options) {
  std::unique_lock<std::shared_mutex> reg(reg_mu_);
  if (handle == nullptr) return Status::InvalidArgument("null handle");
  if (handle->sharded()) {
    return Status::AlreadyExists("sharding already enabled");
  }
  if (handle->ingested_) {
    return Status::InvalidArgument(
        "EnableSharding must precede the first Ingest for this query");
  }
  if (handle->parallel_ != nullptr) {
    return Status::InvalidArgument(
        "EnableSharding must precede EnableParallel (the rewrite moves "
        "plan edges the executor's stages captured)");
  }
  if (options.shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }

  cql::CompiledQuery* q = handle->query_.get();
  options.columnar = options.columnar || handle->columnar_;
  options.events = &events_;
  options.event_label = LabelFor(handle);
  handle->shard_rewrites_ = ShardStatefulOps(q->plan(), options);
  for (const ShardRewrite& rw : handle->shard_rewrites_) {
    if (rw.sharded == nullptr) continue;
    // The rewrite fixed the plan-internal edges; the query's external
    // edges (input taps, root) follow here.
    q->ReplaceOperator(rw.original, rw.sharded);
    handle->sharded_ops_.push_back(rw.sharded);
  }
  if (handle->sharded_ops_.empty()) return Status::OK();

  const std::string label = LabelFor(handle);
  // The rewrite spliced new operators (each ShardedOp) into the plan:
  // re-publish the plan's records and re-walk the profile tree, which
  // also drops the disconnected originals from the EXPLAIN ANALYZE view.
  // Nothing is lost: sharding refuses once ingest has started.
  if (metrics_enabled_ && handle->profile_source_ != nullptr) {
    q->plan().BindMetrics(metrics_, label);
    profiler_.BindPlan(label, q->plan());
  }
  metrics_.AddCollector("shards:" + label,
                        [handle, label](obs::SnapshotBuilder& b) {
                          for (const ShardedOp* op : handle->sharded_ops_) {
                            op->CollectStats(b, {{"query", label}});
                          }
                        });
  return Status::OK();
}

void StreamEngine::DeliverDirect(QueryHandle& q, const QueryHandle::Tap& tap,
                                 const Element& e) {
  // Source-side watermark tap: stamp (event ts, ingest ns) so the
  // profiler can report per-operator lag and propagation delay against
  // what actually entered the query.
  if (q.profile_source_ != nullptr && e.is_punctuation() &&
      !e.punctuation().has_key) {
    q.profile_source_->OnWatermark(e.punctuation().ts);
  }
  // Arm the end-to-end latency probe on every Nth tuple that actually
  // enters the query (post-shedding, so dropped tuples don't leave a
  // stale timestamp that a much later output would claim). Countdown
  // instead of modulo: the sample period is runtime-configurable, and a
  // per-tuple integer division is measurable on this path.
  if (q.latency_hist_ != nullptr && latency_sample_every_ > 0 &&
      e.is_tuple() && --q.latency_countdown_ == 0) {
    q.latency_countdown_ = latency_sample_every_;
    uint64_t expected = 0;
    q.pending_ingest_ns_.compare_exchange_strong(expected, obs::NowNs(),
                                                 std::memory_order_release,
                                                 std::memory_order_relaxed);
  }
  if (q.parallel_ != nullptr) {
    // Chain mode feeds the entry operator's port itself; the
    // whole-query stage needs the input index for port routing.
    if (q.chain_mode_) {
      q.parallel_->Arrive(e);
    } else {
      q.parallel_->ArriveOn(e, tap.port);
    }
  } else if (tap.entry != nullptr) {
    tap.entry->Process(e, 0);
  } else {
    q.query_->Push(e, tap.port);
  }
}

Status StreamEngine::IngestElement(const std::string& stream,
                                   const Element& e) {
  // Shared: delivery may overlap registration/teardown from a server
  // thread, but never another delivery (single ingest thread contract).
  std::shared_lock<std::shared_mutex> reg(reg_mu_);
  if (catalog_.Lookup(stream) == nullptr) {
    return Status::NotFound("unknown stream: " + stream);
  }
  if (finished_) {
    return Status::InvalidArgument("engine already finished");
  }
  auto ic = ingest_counters_.find(stream);
  if (ic != ingest_counters_.end()) ic->second->Inc();
  // Archive-before-deliver: once delivery runs, the element must be
  // recoverable. (Group commit means the bytes may still sit in the
  // buffer for up to a flush interval — a crash inside that window
  // loses the tail, which replay tolerates by construction.) A sticky
  // archive IO failure therefore stops ingest before delivery: the
  // element can never be made durable, so letting it flow would hand
  // out results that no recovery could reproduce.
  if (dur_ != nullptr) {
    auto seq = dur_->Append(stream, e);
    if (!seq.ok()) {
      if (!flush_error_logged_) {
        // Once per sticky failure, not once per rejected ingest.
        flush_error_logged_ = true;
        events_.Emit(obs::EventKind::kFlushError, "",
                     "archive append failed on stream '" + stream +
                         "': " + seq.status().ToString());
      }
      return seq.status();
    }
  }
  for (auto& q : queries_) {
    for (const QueryHandle::Tap& tap : q->taps_) {
      if (tap.stream != stream) continue;
      q->ingested_ = true;
      if (q->shed_gate_ != nullptr) {
        // The gate forwards surviving elements into DeliverDirect via
        // its CallbackSink output; shed tuples end here.
        q->shed_gate_->Process(e, 0);
      } else {
        DeliverDirect(*q, tap, e);
      }
    }
  }
  // Periodic checkpoint rides the ingest thread after delivery: the
  // serial operators are quiescent here, and the shared lock keeps
  // registration out.
  if (dur_ != nullptr && dur_->TakeCheckpointDue()) {
    SQP_RETURN_NOT_OK(CheckpointLocked());
  }
  return Status::OK();
}

obs::Monitor& StreamEngine::StartMonitor(obs::MonitorOptions options) {
  std::lock_guard<std::mutex> lock(monitor_mu_);
  if (monitor_ == nullptr) {
    monitor_ = std::make_unique<obs::Monitor>(&metrics_, options);
  }
  monitor_->Start();  // No-op in manual mode or when already running.
  return *monitor_;
}

Status StreamEngine::EnableAdaptiveShedding(QueryHandle* handle,
                                            AdaptiveShedOptions options) {
  std::unique_lock<std::shared_mutex> reg(reg_mu_);
  if (handle == nullptr) return Status::InvalidArgument("null handle");
  if (handle->shed_gate_ != nullptr) {
    return Status::AlreadyExists("adaptive shedding already enabled");
  }
  if (handle->taps_.size() != 1) {
    return Status::InvalidArgument(
        "adaptive shedding supports single-input queries only");
  }
  std::function<size_t()> probe = std::move(options.backlog_probe);
  if (!probe) {
    if (handle->parallel_ == nullptr) {
      return Status::InvalidArgument(
          "serial queries have no executor queue to watch: supply "
          "AdaptiveShedOptions::backlog_probe");
    }
    // Backlog (enqueued - processed) rather than instantaneous queue
    // occupancy: workers pop whole batches, so q.size() can read 0 while
    // hundreds of elements are in flight inside a stage.
    probe = [exec = handle->parallel_.get()] {
      size_t n = 0;
      for (size_t i = 0; i < exec->num_stages(); ++i) {
        n += exec->stage_stats(i).Backlog();
      }
      return n;
    };
  }
  obs::Monitor* monitor = this->monitor();
  if (monitor == nullptr) monitor = &StartMonitor();

  const std::string label = LabelFor(handle);

  handle->shedder_ = std::make_unique<FeedbackShedder>(options.controller);
  handle->shed_gate_ =
      std::make_unique<RandomDropOp>(0.0, options.seed, "shed-gate");
  handle->shed_fwd_ = std::make_unique<CallbackSink>(
      [this, handle](const Element& e) {
        DeliverDirect(*handle, handle->taps_[0], e);
      });
  handle->shed_gate_->SetOutput(handle->shed_fwd_.get());

  // Shedding state joins every snapshot/scrape alongside the raw
  // counters it is derived from.
  metrics_.AddCollector(
      "shed:" + label, [handle, label](obs::SnapshotBuilder& b) {
        obs::LabelSet ls{{"query", label}};
        b.AddGauge("sqp_shed_drop_rate", ls, handle->shed_gate_->drop_rate());
        b.AddCounter("sqp_shed_dropped_total", ls,
                     static_cast<double>(handle->shed_gate_->dropped()));
        b.AddGauge("sqp_shed_backlog", ls,
                   static_cast<double>(handle->shed_backlog_.load(
                       std::memory_order_relaxed)));
      });

  // The loop itself: every monitor tick, observed backlog -> controller
  // -> gate drop probability. Runs on the ticking thread with no locks
  // held; the gate's rate is atomic.
  monitor->AddTickListener(
      "shed:" + label,
      [this, handle, label, probe = std::move(probe)](uint64_t) {
        size_t backlog = probe();
        handle->shed_backlog_.store(backlog, std::memory_order_relaxed);
        const double rate = handle->shedder_->Observe(backlog);
        handle->shed_gate_->set_drop_rate(rate);
        // Gate transitions (crossing 1% drop probability) are lifecycle
        // events; shed_active_ is only ever touched on this thread.
        const bool active = rate > 0.01;
        if (active != handle->shed_active_) {
          handle->shed_active_ = active;
          char msg[96];
          std::snprintf(msg, sizeof(msg),
                        "drop rate %.3f, backlog %zu", rate, backlog);
          events_.Emit(active ? obs::EventKind::kShedActivated
                              : obs::EventKind::kShedDeactivated,
                       label, msg);
        }
      });
  return Status::OK();
}

Status StreamEngine::Ingest(const std::string& stream, const TupleRef& tuple) {
  return IngestElement(stream, Element(tuple));
}

const std::string& StreamEngine::LabelFor(QueryHandle* handle) {
  if (handle->metrics_label_.empty()) {
    // Metrics were off at Submit; assign a label anyway so collectors
    // registered later (stages/shards/shed) have a stable teardown key.
    handle->metrics_label_ = "q" + std::to_string(query_seq_++);
  }
  return handle->metrics_label_;
}

Status StreamEngine::Remove(QueryHandle* handle) {
  if (handle == nullptr) return Status::InvalidArgument("null handle");
  // The shedding tick listener captures the handle and runs on the
  // monitor thread; remove it first (the call barriers on an in-flight
  // tick) so nothing touches the handle's gate/shedder once teardown
  // starts. Done before taking reg_mu_: the listener never takes the
  // registration lock, but keeping the barrier outside the critical
  // section keeps the lock dependency one-directional.
  obs::Monitor* monitor = this->monitor();
  if (monitor != nullptr && !handle->metrics_label_.empty()) {
    monitor->RemoveTickListener("shed:" + handle->metrics_label_);
  }

  std::unique_lock<std::shared_mutex> reg(reg_mu_);
  size_t index = queries_.size();
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (queries_[i].get() == handle) {
      index = i;
      break;
    }
  }
  if (index == queries_.size()) {
    return Status::NotFound("query is not registered with this engine");
  }

  // Flush so windows/groups close and the final rows reach the sink —
  // unless the engine already finished everything. The caller guarantees
  // the output callback cannot block (see header).
  if (!finished_) {
    if (handle->parallel_ != nullptr) {
      handle->parallel_->Drain();
    } else {
      for (const QueryHandle::Tap& tap : handle->taps_) {
        if (tap.entry != nullptr) tap.entry->Flush();
      }
      handle->query_->Finish();
    }
  }

  // Collectors capture the handle or its executor, the registry and the
  // profiler point at the plan's operator records: RemoveCollector,
  // RemoveQuery and Unregister barrier on any snapshot in flight, so
  // after these return nothing can observe the dying query. RemoveQuery
  // also drops the per-query latency histogram.
  if (!handle->metrics_label_.empty()) {
    const std::string& label = handle->metrics_label_;
    metrics_.RemoveCollector("stages:" + label);
    metrics_.RemoveCollector("shards:" + label);
    metrics_.RemoveCollector("shed:" + label);
    metrics_.RemoveQuery(label);
    profiler_.Unregister(label);
  }
  events_.Emit(obs::EventKind::kQueryStop, handle->metrics_label_,
               handle->text_);

  queries_.erase(queries_.begin() + static_cast<long>(index));
  return Status::OK();
}

void StreamEngine::FinishAll() {
  std::unique_lock<std::shared_mutex> reg(reg_mu_);
  if (finished_) return;
  finished_ = true;
  for (auto& q : queries_) {
    if (q->parallel_ != nullptr) {
      // The drain cascade flushes every stage (chain mode) or runs
      // CompiledQuery::Finish on the worker (whole-query mode), then
      // joins — results are safe to read once this returns.
      q->parallel_->Drain();
      continue;
    }
    // Flush front-ends first (drains reorder buffers into the query),
    // then the query itself via its per-port flush protocol.
    for (const QueryHandle::Tap& tap : q->taps_) {
      if (tap.entry != nullptr) tap.entry->Flush();
    }
    q->query_->Finish();
  }
  if (dur_ != nullptr) {
    // Seal the archive and capture the post-flush state (collectors now
    // hold the final rows): a --replay of a finished run restores
    // everything from the checkpoint and replays nothing.
    (void)CheckpointLocked();
  }
}

bool StreamEngine::ProfileSnapshot(const std::string& label,
                                   obs::QueryProfile* out) const {
  return profiler_.Snapshot(label, out);
}

bool StreamEngine::ProfileSnapshot(const QueryHandle* handle,
                                   obs::QueryProfile* out) const {
  if (handle == nullptr || handle->metrics_label_.empty()) return false;
  return profiler_.Snapshot(handle->metrics_label_, out);
}

std::vector<std::string> StreamEngine::ProfiledQueries() const {
  return profiler_.Labels();
}

size_t StreamEngine::TotalStateBytes() const {
  std::shared_lock<std::shared_mutex> reg(reg_mu_);
  size_t bytes = 0;
  for (const auto& q : queries_) {
    bytes += q->query_->plan().TotalStateBytes();
  }
  return bytes;
}

}  // namespace sqp
