#ifndef SQP_EXEC_PROFILER_H_
#define SQP_EXEC_PROFILER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "exec/plan.h"
#include "obs/op_metrics.h"
#include "obs/snapshot.h"

namespace sqp {
namespace obs {

/// One operator row of a query profile snapshot: the operator's record
/// (the same numbers `\metrics` renders, so EXPLAIN ANALYZE always sums
/// consistently with the registry) plus its place in the tree and the
/// derived figures. Rows are in pre-order over the plan tree: the root
/// is the sink-most operator, a row at depth d is an input of the
/// nearest preceding row at depth d-1.
struct OpProfileRow : OpStats {
  std::string op;
  int index = 0;  // Plan position (disambiguates duplicate names).
  int depth = 0;

  double selectivity = 0.0;
  /// Deliveries into this operator = per-element Process calls plus
  /// batched ProcessBatch/ProcessColumns calls.
  uint64_t deliveries = 0;
  /// Mean elements per delivery (singles fold in as batches of one).
  double mean_batch = 0.0;

  bool has_watermark = false;  // wm_ts != kNoWatermark.
  bool has_lag = false;        // A source watermark exists too.
  /// Event-time lag: source watermark ts minus this operator's last
  /// forwarded watermark ts (>= 0 in a well-behaved chain).
  int64_t lag = 0;
  /// Punctuation propagation delay: wall ms from the watermark's ingest
  /// to this operator forwarding it; < 0 = unknown (ring evicted it or
  /// the watermark predates profiling).
  double propagation_ms = -1.0;
};

/// A full per-query profile snapshot — the EXPLAIN ANALYZE payload.
struct QueryProfile {
  std::string query;  // Engine label ("q0", ...).
  std::string text;   // CQL text.
  uint64_t submit_ns = 0;
  uint64_t snapshot_ns = 0;
  int64_t source_wm_ts = OpStats::kNoWatermark;
  uint64_t source_wm_count = 0;
  std::vector<OpProfileRow> ops;

  /// Annotated text tree (the `\explain analyze` rendering).
  std::string Pretty() const;
  /// {"query":..,"text":..,"source":{..},"ops":[{..,"depth":..},..]}
  std::string ToJson() const;
};

/// Per-query profile registry: the plan-shaped tree a snapshot renders,
/// pointing at the operator-owned records (obs::OpMetrics) of each
/// query. Registration and (re)binding happen under the engine's
/// exclusive registration lock; Snapshot may run from any thread
/// (monitor, HTTP handler, sqpsh) while ingest runs — it reads only the
/// records' atomics and registration-time copies under the profiler's
/// own mutex, never other live Operator state.
///
/// Lives in exec (not obs) because binding walks Plan/Operator.
class QueryProfiler {
 public:
  /// Lock-free source-side watermark tap, one per registered query: the
  /// engine's ingest path stamps every non-keyed punctuation entering
  /// the query here. The small ring of (ts, ingest ns) pairs is what
  /// per-operator propagation delay is computed against.
  class SourceWatermark {
   public:
    void OnWatermark(int64_t ts) {
      const uint64_t now = NowNs();
      ts_.store(ts, std::memory_order_relaxed);
      ns_.store(now, std::memory_order_relaxed);
      count_.fetch_add(1, std::memory_order_relaxed);
      const uint64_t slot =
          head_.fetch_add(1, std::memory_order_relaxed) % kRingSize;
      ring_[slot].ts.store(ts, std::memory_order_relaxed);
      ring_[slot].ns.store(now, std::memory_order_relaxed);
    }

    int64_t last_ts() const { return ts_.load(std::memory_order_relaxed); }
    uint64_t last_ns() const { return ns_.load(std::memory_order_relaxed); }
    uint64_t count() const { return count_.load(std::memory_order_relaxed); }

    /// Ingest timestamp of the watermark with event time `ts`; false
    /// when the ring has already evicted it. A racing writer can pair a
    /// fresh ts with a stale ns for one slot — tolerated, the result is
    /// a statistical read like every other scrape.
    bool LookupIngestNs(int64_t ts, uint64_t* ns) const {
      for (const Slot& s : ring_) {
        if (s.ts.load(std::memory_order_relaxed) == ts) {
          *ns = s.ns.load(std::memory_order_relaxed);
          return true;
        }
      }
      return false;
    }

   private:
    static constexpr size_t kRingSize = 64;
    struct Slot {
      std::atomic<int64_t> ts{OpStats::kNoWatermark};
      std::atomic<uint64_t> ns{0};
    };
    std::atomic<int64_t> ts_{OpStats::kNoWatermark};
    std::atomic<uint64_t> ns_{0};
    std::atomic<uint64_t> count_{0};
    std::array<Slot, kRingSize> ring_;
    std::atomic<uint64_t> head_{0};
  };

  /// Registers a query; returns its stable source tap (valid until
  /// Unregister). Re-registering an existing label resets it.
  SourceWatermark* Register(const std::string& label, std::string text);

  /// Walks `plan` and rebuilds the snapshot tree over its connected
  /// operators' records. Call again after a structural rewrite
  /// (EnableSharding) — disconnected leftovers of the rewrite (no
  /// output, nothing feeding them) are excluded. The plan must outlive
  /// the registration (Unregister first). No-op for unregistered labels.
  void BindPlan(const std::string& label, const Plan& plan);

  /// Drops the query's tree and tap. Barriers on in-flight snapshots:
  /// once it returns the plan may be freed.
  void Unregister(const std::string& label);

  /// Copies a consistent-enough profile out; false if unknown label.
  bool Snapshot(const std::string& label, QueryProfile* out) const;

  std::vector<std::string> Labels() const;

  /// Publishes per-query watermark gauges (sqp_query_watermark_lag,
  /// sqp_query_source_watermark) — registered as a registry collector
  /// by the engine so `/snapshot.json` and `\top` see event-time lag.
  void Publish(SnapshotBuilder& b) const;

 private:
  struct Node {
    std::string name;
    int index = 0;
    int depth = 0;
    const OpMetrics* metrics = nullptr;
  };
  struct Entry {
    std::string text;
    uint64_t submit_ns = 0;
    SourceWatermark source;
    std::vector<Node> tree;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Entry>> entries_;
};

}  // namespace obs
}  // namespace sqp

#endif  // SQP_EXEC_PROFILER_H_
