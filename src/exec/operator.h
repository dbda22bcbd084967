#ifndef SQP_EXEC_OPERATOR_H_
#define SQP_EXEC_OPERATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#ifndef NDEBUG
#include <atomic>
#include <cassert>
#include <thread>
#endif

#include "dur/checkpointable.h"
#include "exec/column_batch.h"
#include "obs/op_metrics.h"
#include "stream/element.h"
#include "stream/element_batch.h"

namespace sqp {

namespace obs {
class Tracer;
}  // namespace obs

/// Push-based physical operator (streams-in, stream-out; slide 13).
///
/// Operators form a DAG. An upstream operator calls `Push(e, port)` on its
/// downstream; binary operators (joins, union) distinguish inputs by
/// `port` (0 = left, 1 = right). `Flush` signals end-of-stream and must be
/// forwarded after emitting any buffered state.
///
/// Single-caller by design: the scheduling layer (sqp/sched) decides
/// when each operator runs and interposes queues; operator code itself
/// stays oblivious, matching the tutorial's separation of operator
/// semantics from scheduling policy (slides 42-43). An operator is never
/// thread-safe — all Push/Flush/Emit calls on one operator must come
/// from a single thread. The serial executors trivially satisfy this;
/// ParallelExecutor satisfies it by pinning each stage's operator to
/// that stage's worker thread. Debug builds assert the contract
/// (AssertSingleCaller), so TSan jobs and unit tests catch an operator
/// accidentally shared across stages.
class Operator {
 public:
  explicit Operator(std::string name) : name_(std::move(name)) {}
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  /// Processes one element arriving on `port`.
  virtual void Push(const Element& e, int port = 0) = 0;

  /// Instrumented entry point: drivers (RunStream, executors, the
  /// engine) and Emit route elements through here so an instrumented
  /// operator gets self-time accounting, delivery counts and sampled
  /// lineage tracing without any per-operator code. Other operators (the
  /// default) pay one predictable branch and fall straight through to
  /// Push; their record still counts rows in and out.
  void Process(const Element& e, int port = 0) {
    if (!instrumented_) {
      Push(e, port);
      return;
    }
    ProcessInstrumented(e, port);
  }

  /// Batched entry point (non-virtual, mirrors Process): semantically
  /// identical to calling Process once per element in order, but the
  /// whole run crosses the operator in one call. While the batch is
  /// being processed, Emit coalesces this operator's output into a
  /// batch of its own and forwards it downstream via ProcessBatch when
  /// the input batch completes (or the coalescing buffer hits its cap),
  /// so batches propagate down the chain instead of decaying back into
  /// singletons at the first selective operator. Tuple/punctuation
  /// ordering is preserved end to end: the output batch holds exactly
  /// the sequence the per-element path would have pushed.
  ///
  /// The batch is taken by mutable reference because the operator may
  /// move elements out of it (pass-through operators forward ownership
  /// instead of bumping tuple refcounts); after the call the batch's
  /// elements are unspecified — clear()/refill before reuse.
  void ProcessBatch(ElementBatch& batch, int port = 0);

  /// Columnar entry point (non-virtual, mirrors ProcessBatch):
  /// semantically identical to materializing the batch's live rows and
  /// punctuations in order and calling Process on each. Operators with a
  /// PushColumns override stay columnar; everything else transparently
  /// materializes and takes its row path — the fallback boundary of the
  /// vectorized execution path (DESIGN.md "Columnar execution").
  ///
  /// Like ProcessBatch, the batch is consumed: an override may move its
  /// arrays or refine its selection vector in place.
  void ProcessColumns(ColumnBatch& batch, int port = 0);

  /// True when this operator processes port's input columnarly (has a
  /// real PushColumns). Executors use it to decide where row→column
  /// conversion pays; sending columns to a non-supporting operator is
  /// still correct, it just materializes at the boundary.
  virtual bool SupportsColumns(int port = 0) const {
    (void)port;
    return false;
  }

  /// Turns on the timed path: self time, delivery and batch-size
  /// counts, queue-wait stamping by executors, sampled StateBytes, and
  /// (with a tracer) sampled lineage. Call before the operator processes
  /// elements; the tracer must outlive its last Push. Plan::BindMetrics
  /// does this for every operator it registers.
  void Instrument(obs::Tracer* tracer = nullptr) {
    instrumented_ = true;
    tracer_ = tracer;
  }
  bool instrumented() const { return instrumented_; }

  /// The operator's live record (see obs::OpMetrics for the
  /// single-writer rule). Registries and profilers point at it; the
  /// executor delivering into this operator writes its queue fields.
  obs::OpMetrics& metrics() { return metrics_; }
  const obs::OpMetrics& metrics() const { return metrics_; }

  /// End-of-stream: emit buffered results, then forward downstream.
  virtual void Flush();

  /// Bytes of operator-held state (windows, hash tables) — drives the
  /// memory-limited experiments.
  virtual size_t StateBytes() const { return 0; }

  /// Connects this operator's output to `out`'s input `port`.
  void SetOutput(Operator* out, int port = 0) {
    out_ = out;
    out_port_ = port;
  }

  const std::string& name() const { return name_; }
  /// By-value copy of the record.
  obs::OpStats stats() const { return metrics_.Snapshot(); }
  Operator* output() const { return out_; }
  int output_port() const { return out_port_; }

 protected:
  /// Batch body, called by ProcessBatch. The default loops Push, so
  /// every operator participates in the batched path unchanged; hot
  /// per-element operators (select, project, sinks) override it with a
  /// tight loop that skips the per-element virtual dispatch. Overrides
  /// must preserve per-element semantics exactly: CountIn each element,
  /// Emit in arrival order. Overrides may move elements out of the
  /// batch (the caller treats the contents as consumed).
  virtual void PushBatch(ElementBatch& batch, int port) {
    for (const Element& e : batch) Push(e, port);
  }

  /// Columnar body, called by ProcessColumns. The default is the
  /// fallback boundary: rebuild rows and run the batched row path.
  /// Overrides must preserve per-element semantics exactly (bulk-count
  /// arrivals, keep punctuation interleaving) and may consume the batch.
  virtual void PushColumns(ColumnBatch& batch, int port) {
    ElementBatch rows;
    batch.MaterializeRows(&rows);
    PushBatch(rows, port);
  }

  /// Forwards a whole columnar batch downstream, maintaining counters in
  /// bulk. Any row emissions buffered so far are flushed first so output
  /// order matches the per-element path. The batch is consumed.
  void EmitColumns(ColumnBatch&& batch);

  /// Bulk arrival accounting for PushColumns overrides (the columnar
  /// twin of calling CountIn per element).
  void CountInColumns(const ColumnBatch& batch) {
    CountInBulk(batch.ActiveRows(), batch.puncts.size());
  }

  /// Bulk arrival accounting for batched bodies that count as they go.
  void CountInBulk(uint64_t tuples, uint64_t puncts) {
    AssertSingleCaller();
    metrics_.CountInBulk(tuples, puncts);
  }

  /// Forwards an element downstream, maintaining counters. Inside a
  /// ProcessBatch call, emissions are coalesced into an output batch
  /// (see ProcessBatch); otherwise they are pushed downstream
  /// immediately.
  void Emit(const Element& e);

  /// Move form: while coalescing, the element is moved into the output
  /// batch instead of copied — pass-through operators (select) and
  /// operators emitting freshly built elements (project, joins) avoid a
  /// tuple refcount round-trip per element. Outside a batch it behaves
  /// exactly like Emit(const Element&).
  void Emit(Element&& e);

  /// Counts an arriving element. Subclasses call this first in Push.
  void CountIn(const Element& e) {
    AssertSingleCaller();
    metrics_.CountIn(e.is_punctuation());
  }

  /// Counts a departing element without forwarding it — for operators
  /// with several outputs (HashExchangeOp) that cannot use Emit.
  void CountOut(const Element& e) {
    AssertSingleCaller();
    metrics_.CountOut(e.is_punctuation());
    if (e.is_punctuation() && !e.punctuation().has_key) {
      metrics_.OnWatermarkForward(e.punctuation().ts, instrumented_);
    }
  }

  /// Debug check that every Push/Emit on this operator comes from one
  /// thread: the first caller claims ownership, later callers must match.
  /// Compiled out in release builds.
  void AssertSingleCaller() const {
#ifndef NDEBUG
    std::thread::id self = std::this_thread::get_id();
    std::thread::id expected{};
    if (!owner_.compare_exchange_strong(expected, self,
                                        std::memory_order_relaxed)) {
      assert(expected == self &&
             "operator driven from multiple threads; each operator must "
             "belong to exactly one stage/worker");
    }
#endif
  }

 private:
  /// Out-of-line slow path of Process: self-time metrics + tracing.
  void ProcessInstrumented(const Element& e, int port);
  /// Runs a batch body (PushBatch or PushColumns) with this operator's
  /// emissions coalesced into one downstream batch.
  template <typename Body>
  void RunCoalesced(Body&& body);
  /// RunCoalesced inside one self-timed scope: the instrumented batch
  /// path of ProcessBatch and ProcessColumns (busy time, sampled state).
  template <typename Body>
  void RunTimed(Body&& body);
  /// Hands the coalesced output batch downstream and resets the buffer.
  void FlushEmitBuffer();

  /// Emit buffer cap while coalescing: a join exploding one input batch
  /// into many outputs flushes downstream mid-batch instead of growing
  /// the buffer without bound (ordering is unaffected — the flush
  /// forwards the prefix in order).
  static constexpr size_t kEmitBufferCap = 1024;

  // Member order is a layout decision: the first cache line holds only
  // fields fixed at wiring time, because executors read instrumented_
  // from the producer's thread on every hand-off; the record and the
  // emit buffer, which the driving thread writes per element, follow on
  // lines of their own.
 protected:
  Operator* out_ = nullptr;
  int out_port_ = 0;

 private:
  /// Set by Instrument: Process/ProcessBatch/ProcessColumns take the
  /// timed slow path.
  bool instrumented_ = false;
  std::string name_;
  obs::Tracer* tracer_ = nullptr;

 protected:
  obs::OpMetrics metrics_;

 private:
  /// True only inside a ProcessBatch call with a wired output.
  bool coalescing_ = false;
  ElementBatch emit_buf_;
#ifndef NDEBUG
  mutable std::atomic<std::thread::id> owner_{};
#endif
};

/// Terminal operator that retains results for inspection (tests, examples).
/// Checkpointable so a recovered engine's collected results equal an
/// uninterrupted run's (dur recovery restores the prefix, replay
/// regenerates the suffix).
class CollectorSink : public Operator, public CheckpointableOperator {
 public:
  CollectorSink() : Operator("collect") {}

  void SaveState(dur::BufWriter& w) const override;
  Status RestoreState(dur::BufReader& r) override;

  void Push(const Element& e, int port = 0) override;

  /// Retained results count toward operator state for the memory
  /// experiments (a collector is a window that never expires).
  size_t StateBytes() const override;

  const std::vector<TupleRef>& tuples() const { return tuples_; }
  const std::vector<Punctuation>& punctuations() const { return puncts_; }
  size_t count() const { return tuples_.size(); }

  void Clear() {
    tuples_.clear();
    puncts_.clear();
  }

 protected:
  /// Batched append: one reserve per batch, then the per-element loop.
  void PushBatch(ElementBatch& batch, int port) override;

  /// Materialization boundary of the columnar path: rows are rebuilt
  /// here, at the sink, with one reserve from the batch's live-row count.
  void PushColumns(ColumnBatch& batch, int port) override;

 private:
  std::vector<TupleRef> tuples_;
  std::vector<Punctuation> puncts_;
};

/// Terminal operator that only counts (benchmarks; no retention cost).
class CountingSink : public Operator {
 public:
  CountingSink() : Operator("count-sink") {}

  void Push(const Element& e, int /*port*/ = 0) override { CountIn(e); }

  uint64_t tuples() const { return metrics().tuples_in(); }

  /// A counting sink never needs rows at all, so columnar batches are
  /// tallied without materialization — the late-materialization ideal.
  bool SupportsColumns(int /*port*/ = 0) const override { return true; }

 protected:
  /// Counting needs no per-element work at all: tally the batch once
  /// and bump the counters in bulk.
  void PushBatch(ElementBatch& batch, int /*port*/) override {
    uint64_t tuples = 0;
    for (const Element& e : batch) {
      if (!e.is_punctuation()) ++tuples;
    }
    CountInBulk(tuples, batch.size() - tuples);
  }

  void PushColumns(ColumnBatch& batch, int /*port*/) override {
    CountInColumns(batch);
  }
};

/// Terminal operator invoking a callback per element.
class CallbackSink : public Operator {
 public:
  explicit CallbackSink(std::function<void(const Element&)> fn)
      : Operator("callback-sink"), fn_(std::move(fn)) {}

  void Push(const Element& e, int /*port*/ = 0) override {
    CountIn(e);
    fn_(e);
  }

 private:
  std::function<void(const Element&)> fn_;
};

}  // namespace sqp

#endif  // SQP_EXEC_OPERATOR_H_
