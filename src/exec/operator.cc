#include "exec/operator.h"

#include "obs/trace.h"

namespace sqp {

void Operator::Flush() {
  if (out_ != nullptr) out_->Flush();
}

void Operator::Emit(const Element& e) {
  // Watermark tracking (event-time lag in EXPLAIN ANALYZE) rides the
  // count: keyed punctuations close one group, only non-keyed ones
  // advance time.
  CountOut(e);
  if (coalescing_) {
    // Inside a ProcessBatch call: buffer the emission so downstream
    // receives one batch per input batch instead of a singleton per
    // output element. The cap bounds buffer growth for expanding
    // operators (joins); flushing a prefix early preserves order.
    emit_buf_.push_back(e);
    if (emit_buf_.size() >= kEmitBufferCap) FlushEmitBuffer();
    return;
  }
  if (out_ != nullptr) out_->Process(e, out_port_);
}

void Operator::Emit(Element&& e) {
  CountOut(e);
  if (coalescing_) {
    emit_buf_.push_back(std::move(e));
    if (emit_buf_.size() >= kEmitBufferCap) FlushEmitBuffer();
    return;
  }
  if (out_ != nullptr) out_->Process(e, out_port_);
}

template <typename Body>
void Operator::RunCoalesced(Body&& body) {
  coalescing_ = out_ != nullptr;
  body();
  coalescing_ = false;
  FlushEmitBuffer();
}

template <typename Body>
void Operator::RunTimed(Body&& body) {
  obs::ThreadObsContext& ctx = obs::ObsContext();
  const bool entry = ctx.depth == 0;
  if (entry) {
    // Unlike the per-element path, every batch is timed: the two clock
    // reads amortize over the whole batch, so no 1-in-N sampling (and
    // busy_ns is recorded unscaled).
    ctx.busy_sampled = false;
    ctx.timed = true;
  }
  ++ctx.depth;
  const uint64_t saved_child = ctx.child_ns;
  ctx.child_ns = 0;
  const uint64_t t0 = obs::NowNs();
  RunCoalesced(body);
  const uint64_t total = obs::NowNs() - t0;
  const uint64_t self = total > ctx.child_ns ? total - ctx.child_ns : 0;
  metrics_.AddBusyNs(self);
  metrics_.MaybeSampleState([this] { return StateBytes(); });
  ctx.child_ns = saved_child + total;
  --ctx.depth;
  if (entry) {
    ctx.child_ns = 0;
    ctx.timed = false;
  }
}

void Operator::ProcessBatch(ElementBatch& batch, int port) {
  if (batch.empty()) return;
  auto push = [&] { PushBatch(batch, port); };
  if (!instrumented_) {
    RunCoalesced(push);
    return;
  }
  metrics_.ObserveBatch(batch.size());
  if (tracer_ != nullptr) {
    // Lineage tracing records per-element hop chains; take the exact
    // per-element path so sampled traces look identical under batching.
    for (const Element& e : batch) Process(e, port);
    return;
  }
  RunTimed(push);
}

void Operator::ProcessColumns(ColumnBatch& batch, int port) {
  if (batch.empty()) return;
  auto push = [&] { PushColumns(batch, port); };
  if (!instrumented_) {
    RunCoalesced(push);
    return;
  }
  metrics_.ObserveBatch(batch.ActiveRows() + batch.puncts.size());
  if (tracer_ != nullptr) {
    // Lineage traces are per-element; materialize so sampled hop chains
    // look identical to the row path.
    ElementBatch rows;
    batch.MaterializeRows(&rows);
    for (const Element& e : rows) Process(e, port);
    return;
  }
  RunTimed(push);
}

void Operator::EmitColumns(ColumnBatch&& batch) {
  AssertSingleCaller();
  metrics_.CountOutBulk(batch.ActiveRows(), batch.puncts.size());
  // The newest watermark in the batch is the one that matters for lag
  // tracking (slots are in stream order).
  for (auto it = batch.puncts.rbegin(); it != batch.puncts.rend(); ++it) {
    if (!it->punct.has_key) {
      metrics_.OnWatermarkForward(it->punct.ts, instrumented_);
      break;
    }
  }
  // Row emissions buffered before this batch must go first so output
  // order matches the per-element path.
  FlushEmitBuffer();
  if (out_ != nullptr) out_->ProcessColumns(batch, out_port_);
}

void Operator::FlushEmitBuffer() {
  if (emit_buf_.empty()) return;
  // Non-empty only when coalescing was on, which requires out_ != nullptr.
  out_->ProcessBatch(emit_buf_, out_port_);
  emit_buf_.clear();
}

void Operator::ProcessInstrumented(const Element& e, int port) {
  metrics_.CountSingle();
  obs::ThreadObsContext& ctx = obs::ObsContext();
  const bool entry = ctx.depth == 0;
  if (entry) {
    if (tracer_ != nullptr && e.is_tuple()) {
      ctx.trace_id = tracer_->SampleArrival();
      ctx.hop = 0;
    }
    // Clock reads dominate instrumentation cost on cheap operators, so
    // only every kTimeSampleEvery-th chain is actually timed; its
    // self-times are scaled back up when recorded. Traced elements are
    // timed too (hop timestamps need a clock) but don't feed busy_ns.
    ctx.busy_sampled = (ctx.time_tick++ & (obs::kTimeSampleEvery - 1)) == 0;
    ctx.timed = ctx.busy_sampled || ctx.trace_id != 0;
  }
  if (!ctx.timed) {
    ++ctx.depth;
    Push(e, port);  // Counters still tick via CountIn/Emit.
    --ctx.depth;
    return;
  }
  ++ctx.depth;
  // Self time = own inclusive time minus the inclusive time of nested
  // Process calls (downstream operators reached via Emit), collected in
  // the thread-local child accumulator — the classic profiler trick, and
  // it works across a synchronous push chain without any per-operator
  // code.
  const uint64_t saved_child = ctx.child_ns;
  ctx.child_ns = 0;
  const uint64_t t0 = obs::NowNs();
  if (tracer_ != nullptr && ctx.trace_id != 0) {
    tracer_->Record(ctx.trace_id, ctx.hop++, name(), t0);
  }
  Push(e, port);
  const uint64_t total = obs::NowNs() - t0;
  if (ctx.busy_sampled) {
    const uint64_t self = total > ctx.child_ns ? total - ctx.child_ns : 0;
    metrics_.AddBusyNs(self * obs::kTimeSampleEvery);
    // StateBytes sampling rides the already-sampled timing path (1/16
    // chains, with its own geometric backoff on top), and only ever
    // runs on this operator's single driving thread.
    metrics_.MaybeSampleState([this] { return StateBytes(); });
  }
  ctx.child_ns = saved_child + total;
  --ctx.depth;
  if (entry) {
    if (ctx.trace_id != 0) {
      if (tracer_ != nullptr) tracer_->ObservePathNs(total);
      ctx.trace_id = 0;
    }
    ctx.child_ns = 0;
    ctx.timed = false;
  }
}

void CollectorSink::Push(const Element& e, int /*port*/) {
  CountIn(e);
  if (e.is_punctuation()) {
    puncts_.push_back(e.punctuation());
  } else {
    tuples_.push_back(e.tuple());
  }
}

void CollectorSink::PushBatch(ElementBatch& batch, int /*port*/) {
  size_t tuples = 0;
  for (const Element& e : batch) {
    if (!e.is_punctuation()) ++tuples;
  }
  tuples_.reserve(tuples_.size() + tuples);
  puncts_.reserve(puncts_.size() + (batch.size() - tuples));
  for (const Element& e : batch) {
    CountIn(e);
    if (e.is_punctuation()) {
      puncts_.push_back(e.punctuation());
    } else {
      tuples_.push_back(e.tuple());
    }
  }
}

void CollectorSink::PushColumns(ColumnBatch& batch, int /*port*/) {
  CountInColumns(batch);
  tuples_.reserve(tuples_.size() + batch.ActiveRows());
  puncts_.reserve(puncts_.size() + batch.puncts.size());
  // Interleave live rows and punctuation slots in stream order, exactly
  // like MaterializeRows, but appending straight into the result vectors.
  const size_t n = batch.ActiveRows();
  const size_t width = batch.width();
  size_t pi = 0;
  for (size_t k = 0; k < n; ++k) {
    const uint32_t r = batch.Active(k);
    while (pi < batch.puncts.size() && batch.puncts[pi].pos <= r) {
      puncts_.push_back(batch.puncts[pi].punct);
      ++pi;
    }
    std::vector<Value> vals;
    vals.reserve(width);
    for (const ColumnBatch::Column& c : batch.cols) {
      vals.push_back(c.ValueAt(r));
    }
    tuples_.push_back(MakeTuple(batch.ts[r], std::move(vals)));
  }
  while (pi < batch.puncts.size()) {
    puncts_.push_back(batch.puncts[pi].punct);
    ++pi;
  }
}

size_t CollectorSink::StateBytes() const {
  size_t bytes = tuples_.capacity() * sizeof(TupleRef) +
                 puncts_.capacity() * sizeof(Punctuation);
  for (const TupleRef& t : tuples_) bytes += t->MemoryBytes();
  return bytes;
}

void CollectorSink::SaveState(dur::BufWriter& w) const {
  w.U32(static_cast<uint32_t>(tuples_.size()));
  for (const TupleRef& t : tuples_) w.Tup(*t);
  w.U32(static_cast<uint32_t>(puncts_.size()));
  for (const Punctuation& p : puncts_) w.Punct(p);
}

Status CollectorSink::RestoreState(dur::BufReader& r) {
  tuples_.clear();
  puncts_.clear();
  uint32_t ntuples = 0;
  SQP_RETURN_NOT_OK(r.U32(&ntuples));
  tuples_.reserve(ntuples);
  for (uint32_t i = 0; i < ntuples; ++i) {
    TupleRef t;
    SQP_RETURN_NOT_OK(r.Tup(&t));
    tuples_.push_back(std::move(t));
  }
  uint32_t npuncts = 0;
  SQP_RETURN_NOT_OK(r.U32(&npuncts));
  puncts_.reserve(npuncts);
  for (uint32_t i = 0; i < npuncts; ++i) {
    Punctuation p;
    SQP_RETURN_NOT_OK(r.Punct(&p));
    puncts_.push_back(std::move(p));
  }
  return Status::OK();
}

}  // namespace sqp
