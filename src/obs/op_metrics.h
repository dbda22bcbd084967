#ifndef SQP_OBS_OP_METRICS_H_
#define SQP_OBS_OP_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace sqp {
namespace obs {

/// One operator's numbers, copied out of its live record
/// (Operator::stats()).
struct OpStats {
  /// "No watermark forwarded yet" sentinel for wm_ts (event time is a
  /// full int64 domain, so the minimum is reserved).
  static constexpr int64_t kNoWatermark = INT64_MIN;

  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  uint64_t puncts_in = 0;
  uint64_t puncts_out = 0;
  /// Delivery batches claimed by an executor (0 for purely synchronous
  /// operators — only staged executors hand work over in batches).
  uint64_t batches = 0;
  /// Self time: ns spent inside this operator's Push, excluding time
  /// spent in downstream operators it pushed into.
  uint64_t busy_ns = 0;
  /// High-water mark of the input queue in front of this operator
  /// (mirrored in by the executor that owns the queue; 0 if unqueued).
  uint64_t queue_depth_hw = 0;
  /// Per-element deliveries (Process calls) vs batched ones — the
  /// batch-size distribution counts singles as batches of one.
  uint64_t singles = 0;
  HistogramData batch_rows;
  /// Total ns elements spent parked in an executor queue in front of
  /// this operator, and how many were so parked.
  uint64_t queue_wait_ns = 0;
  uint64_t queued_items = 0;
  /// Last sampled and peak StateBytes() of this operator.
  uint64_t state_bytes = 0;
  uint64_t peak_state_bytes = 0;
  /// Event time of the last watermark this operator forwarded
  /// downstream (kNoWatermark until the first one), the NowNs() wall
  /// time of that forward (stamped only by instrumented operators, else
  /// 0), and how many it forwarded.
  int64_t wm_ts = kNoWatermark;
  uint64_t wm_ns = 0;
  uint64_t wm_count = 0;

  /// Observed selectivity (tuples out per tuple in).
  double Selectivity() const {
    return tuples_in == 0 ? 0.0
                          : static_cast<double>(tuples_out) /
                                static_cast<double>(tuples_in);
  }
};

/// A registry row: an operator's numbers plus the labels they render
/// under.
struct OpSnapshot : OpStats {
  std::string query;  // Label of the owning plan ("q0", bench name, ...).
  std::string op;     // Operator name ("select", "window-agg", ...).
  int index = 0;      // Position in the plan (disambiguates duplicates).
};

/// The per-operator record, embedded in every Operator: row counts,
/// timing, queue wait, batch sizes, sampled state and the last forwarded
/// watermark. Padded to a cache line so two busy operators don't
/// false-share.
///
/// Single-writer rule: every field has exactly one writer thread — the
/// operator's driving thread, or for `batches`/queue wait the executor
/// worker that delivers into it (the same thread). So writers use a
/// relaxed load + store, not an atomic read-modify-write, and readers on
/// any thread (scrapes, EXPLAIN ANALYZE) use relaxed loads. The two
/// high-water fields take writes from other threads too (a scrape
/// mirrors an executor's queue high-water in) and keep CAS loops.
class alignas(64) OpMetrics {
 public:
  /// StateBytes() can be O(state) (CollectorSink walks its rows), so
  /// sampling backs off geometrically to this ceiling.
  static constexpr uint32_t kMaxStateSampleInterval = 256;

  void CountIn(bool punct) { Bump(punct ? puncts_in_ : tuples_in_, 1); }
  void CountOut(bool punct) { Bump(punct ? puncts_out_ : tuples_out_, 1); }
  /// Bulk counts for batched and columnar paths: one store per kind per
  /// batch.
  void CountInBulk(uint64_t tuples, uint64_t puncts) {
    Bump(tuples_in_, tuples);
    Bump(puncts_in_, puncts);
  }
  void CountOutBulk(uint64_t tuples, uint64_t puncts) {
    Bump(tuples_out_, tuples);
    Bump(puncts_out_, puncts);
  }
  void IncBatches() { Bump(batches_, 1); }
  void AddBusyNs(uint64_t ns) { Bump(busy_ns_, ns); }
  /// A per-element delivery crossed this operator.
  void CountSingle() { Bump(singles_, 1); }
  /// A batched delivery of `rows` elements crossed this operator.
  void ObserveBatch(uint64_t rows) { batch_rows_.Observe(rows); }
  /// Executor-side: `items` elements waited `ns` total in this
  /// operator's input queue.
  void AddQueueWait(uint64_t ns, uint64_t items) {
    Bump(queue_wait_ns_, ns);
    Bump(queued_items_, items);
  }

  /// The operator forwarded a non-keyed punctuation (watermark) with
  /// event time `ts` downstream. Only a `timed` (instrumented) operator
  /// reads the clock for wm_ns; the rest keep to plain stores.
  void OnWatermarkForward(int64_t ts, bool timed = true) {
    wm_ts_.store(ts, std::memory_order_relaxed);
    if (timed) wm_ns_.store(NowNs(), std::memory_order_relaxed);
    Bump(wm_count_, 1);
  }

  /// Takes over another record's output side (tuples/puncts out and the
  /// forwarded watermark) — how a composite operator whose output leaves
  /// from an internal stage (ShardedOp's merge) reports it. The caller
  /// must be this record's only writer of those fields.
  void CopyOutputFrom(const OpMetrics& o) {
    tuples_out_.store(Load(o.tuples_out_), std::memory_order_relaxed);
    puncts_out_.store(Load(o.puncts_out_), std::memory_order_relaxed);
    wm_ts_.store(o.wm_ts_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    wm_ns_.store(Load(o.wm_ns_), std::memory_order_relaxed);
    wm_count_.store(Load(o.wm_count_), std::memory_order_relaxed);
  }

  void UpdateQueueDepth(uint64_t depth) { UpdateMax(queue_depth_hw_, depth); }

  /// Records a StateBytes() sample.
  void SampleState(uint64_t bytes) {
    state_bytes_.store(bytes, std::memory_order_relaxed);
    UpdateMax(peak_state_bytes_, bytes);
  }

  /// Geometric-backoff sampling wrapper around SampleState: calls
  /// `state_bytes_fn` on the 1st, 2nd, 4th, ... invocation, capping the
  /// interval at kMaxStateSampleInterval. MUST be called only from the
  /// operator's single driving thread (plain counters, and the callback
  /// reads live operator state).
  template <typename Fn>
  void MaybeSampleState(Fn&& state_bytes_fn) {
    if (++state_tick_ < state_every_) return;
    state_tick_ = 0;
    if (state_every_ < kMaxStateSampleInterval) state_every_ *= 2;
    SampleState(static_cast<uint64_t>(state_bytes_fn()));
  }

  uint64_t tuples_in() const { return Load(tuples_in_); }
  uint64_t tuples_out() const { return Load(tuples_out_); }
  int64_t wm_ts() const { return wm_ts_.load(std::memory_order_relaxed); }

  OpStats Snapshot() const {
    OpStats s;
    s.tuples_in = Load(tuples_in_);
    s.tuples_out = Load(tuples_out_);
    s.puncts_in = Load(puncts_in_);
    s.puncts_out = Load(puncts_out_);
    s.batches = Load(batches_);
    s.busy_ns = Load(busy_ns_);
    s.queue_depth_hw = Load(queue_depth_hw_);
    s.singles = Load(singles_);
    s.batch_rows = batch_rows_.Data();
    s.queue_wait_ns = Load(queue_wait_ns_);
    s.queued_items = Load(queued_items_);
    s.state_bytes = Load(state_bytes_);
    s.peak_state_bytes = Load(peak_state_bytes_);
    s.wm_ts = wm_ts_.load(std::memory_order_relaxed);
    s.wm_ns = Load(wm_ns_);
    s.wm_count = Load(wm_count_);
    return s;
  }

 private:
  static uint64_t Load(const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  }
  /// Single-writer add: a plain load and store, no lock prefix.
  static void Bump(std::atomic<uint64_t>& a, uint64_t n) {
    a.store(a.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
  static void UpdateMax(std::atomic<uint64_t>& a, uint64_t v) {
    uint64_t cur = a.load(std::memory_order_relaxed);
    while (cur < v && !a.compare_exchange_weak(cur, v,
                                               std::memory_order_relaxed,
                                               std::memory_order_relaxed)) {
    }
  }

  std::atomic<uint64_t> tuples_in_{0};
  std::atomic<uint64_t> tuples_out_{0};
  std::atomic<uint64_t> puncts_in_{0};
  std::atomic<uint64_t> puncts_out_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> busy_ns_{0};
  std::atomic<uint64_t> queue_depth_hw_{0};
  std::atomic<uint64_t> singles_{0};
  std::atomic<uint64_t> queue_wait_ns_{0};
  std::atomic<uint64_t> queued_items_{0};
  std::atomic<uint64_t> state_bytes_{0};
  std::atomic<uint64_t> peak_state_bytes_{0};
  std::atomic<int64_t> wm_ts_{OpStats::kNoWatermark};
  std::atomic<uint64_t> wm_ns_{0};
  std::atomic<uint64_t> wm_count_{0};
  Histogram batch_rows_;
  // Owner-thread-only sampling interval state (see MaybeSampleState).
  uint32_t state_tick_ = 0;
  uint32_t state_every_ = 1;
};

}  // namespace obs
}  // namespace sqp

#endif  // SQP_OBS_OP_METRICS_H_
