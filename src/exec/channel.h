#ifndef SQP_EXEC_CHANNEL_H_
#define SQP_EXEC_CHANNEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/column_batch.h"
#include "exec/operator.h"

namespace sqp {

/// What a bounded channel does when it is full: block the producer
/// (loss-free; pressure propagates upstream) or drop and count the
/// arriving element (load shedding at the queue).
enum class Backpressure { kBlock, kDropNewest };

/// One channel slot: a row element (`cols == nullptr`) or a whole
/// columnar batch crossing the thread boundary without materialization.
struct ChannelItem {
  Element e;
  /// Consumer input port (the shard merge: the originating shard).
  int port = 0;
  std::unique_ptr<ColumnBatch> cols = nullptr;
  /// Enqueue timestamp for queue-wait attribution; stamped only when the
  /// consuming operator has a profile bound (0 = unstamped — profiling
  /// disabled, no clock read on the hand-off path).
  uint64_t enq_ns = 0;

  /// Elements this item charges against the channel's accounting: a
  /// columnar item weighs its live rows plus punctuation slots (min 1,
  /// so even a fully-filtered batch holds a slot).
  size_t Weight() const {
    if (cols == nullptr) return 1;
    size_t w = cols->ActiveRows() + cols->puncts.size();
    return w == 0 ? 1 : w;
  }
};

/// Snapshot of a channel's counters, in elements (item weights). Every
/// offered element is accepted, dropped (kDropNewest overflow) or
/// refused (closed/stopped), and accepted = popped + depth.
struct ChannelStats {
  uint64_t accepted = 0;
  uint64_t dropped = 0;
  uint64_t refused = 0;
  uint64_t popped = 0;
  uint64_t depth = 0;
  uint64_t max_depth = 0;
  /// Consumer-side (RecordDelivery): elements handed to the operator,
  /// ProcessBatch/ProcessColumns calls, wall time spent delivering.
  uint64_t delivered = 0;
  uint64_t batches = 0;
  uint64_t busy_ns = 0;
};

/// The bounded, punctuation-aware hand-off between two threads — the
/// inter-operator queue of the tutorial's scheduling model (slides
/// 42-43). Every threaded hand-off in the system is one of these:
/// ParallelExecutor's stage inputs, ShardedOp's shard inputs and its
/// merge (fan-in) input.
///
/// Any number of producers, one consumer. Properties:
///  - Accounting is in elements (ChannelItem::Weight), so `limit` bounds
///    the same quantity for row and columnar items.
///  - Punctuations bypass the limit and are never dropped: a lost
///    watermark would stall every windowed operator downstream. They may
///    transiently exceed `limit` by their own count; a columnar item
///    dropped under kDropNewest loses only its data rows — its
///    punctuation slots are re-admitted as row items.
///  - Batched wake-up: a single Push wakes the consumer only when the
///    depth reaches `wake_batch` (or on punctuation); a chunk wakes it
///    once. The consumer sleeps only on an empty channel, so the
///    threshold is reached exactly once per sleep, and it polls on a
///    ~1ms timeout so a sub-batch trickle is still picked up.
///  - Close() refuses further input and lets the consumer drain the
///    rest; Stop() refuses input and abandons what is queued. Both wake
///    every blocked producer and the consumer.
class Channel {
 public:
  struct Options {
    /// Bound in elements (0 = unbounded).
    size_t limit = 0;
    Backpressure backpressure = Backpressure::kBlock;
    /// Consumer wake threshold in elements (0 acts as 1; capped at
    /// `limit`). 1 needs no poll: every push into an empty channel wakes.
    size_t wake_batch = 64;
    /// The operator the consumer delivers to: its bound profile (if any)
    /// decides whether items are stamped with an enqueue time.
    const Operator* consumer = nullptr;
    /// Called with the lock held and the current depth each time a
    /// producer is about to block on the bound (kBlock only).
    std::function<void(size_t depth)> on_block;
  };

  enum class ClaimResult { kItems, kIdle, kClosed, kStopped };

  explicit Channel(Options options);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Offers one item under one lock acquisition. False when it was
  /// dropped (kDropNewest, full) or refused (closed/stopped).
  bool Push(ChannelItem item);

  /// Offers a whole chunk under one lock acquisition: one bulk insert
  /// and one wake-up when it fits, else per-item limit handling. The
  /// items are consumed.
  void PushChunk(std::vector<ChannelItem>& items);

  /// Consumer: waits briefly for input, then moves up to `max` elements
  /// (whole items; at least one) into `out` and sets `*weight` to their
  /// element count. kIdle = poll timeout with nothing queued; kClosed =
  /// closed and fully drained; kStopped = stopped (queue abandoned).
  ClaimResult Claim(std::deque<ChannelItem>* out, size_t max,
                    size_t* weight);

  /// Consumer: books one claim's delivery (relaxed atomics, no lock).
  void RecordDelivery(uint64_t elements, uint64_t batches, uint64_t ns);

  void Close();
  void Stop();
  bool stopped() const { return stopped_.load(std::memory_order_relaxed); }

  /// Counter snapshot (safe from any thread).
  ChannelStats Stats() const;

 private:
  void AdmitLocked(ChannelItem item, size_t weight);
  /// kDropNewest overflow: counts the item's data rows as dropped and
  /// re-admits a columnar item's punctuation slots. Returns how many
  /// punctuations were re-admitted.
  size_t DropLocked(ChannelItem& item, size_t weight);
  bool ShutLocked() const { return closed_ || stopped(); }

  const size_t limit_;
  const Backpressure backpressure_;
  const size_t wake_;
  const Operator* const consumer_;
  const std::function<void(size_t)> on_block_;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<ChannelItem> q_;
  bool closed_ = false;
  std::atomic<bool> stopped_{false};
  // Guarded by mu_.
  uint64_t depth_ = 0;
  uint64_t max_depth_ = 0;
  uint64_t accepted_ = 0;
  uint64_t dropped_ = 0;
  uint64_t refused_ = 0;
  uint64_t popped_ = 0;
  // Written by the consumer only.
  std::atomic<uint64_t> delivered_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> busy_ns_{0};
};

/// Producer side of a channel: the downstream of the last operator on a
/// thread. Buffers emissions and hands them over a chunk at a time (one
/// lock and at most one wake-up per chunk); punctuations flush at once,
/// behind the buffered rows, and columnar batches cross as one item.
class ChannelFeed : public Operator {
 public:
  /// Items are tagged with `port`; the buffer flushes at `cap` elements.
  ChannelFeed(Channel* out, int port, size_t cap);

  void Push(const Element& e, int port = 0) override;
  void Flush() override { FlushBuffer(); }
  bool SupportsColumns(int /*port*/ = 0) const override { return true; }

  void FlushBuffer();

 protected:
  void PushBatch(ElementBatch& batch, int port) override;
  void PushColumns(ColumnBatch& batch, int port) override;

 private:
  Channel* out_;
  int port_;
  size_t cap_;
  std::vector<ChannelItem> buf_;
};

/// The consumer loop of a channel feeding `op`: claims up to `max_batch`
/// elements per lock acquisition and delivers each same-port run of at
/// most `max_batch` rows as one ProcessBatch call — or, when `columnar`
/// and the operator supports columns on that port, as one row→column
/// conversion and ProcessColumns call. Columnar items are delivered
/// whole, in order. `max_batch` <= 1 is the classic element-at-a-time
/// loop (one Process per element). After each claim `feed` (the
/// thread's own output, may be null) is flushed and `after_claim` (may
/// be empty) runs. Returns true once `in` is closed and drained, false
/// when it was stopped.
bool DeliverChannel(Channel& in, Operator* op, size_t max_batch,
                    bool columnar, ChannelFeed* feed,
                    const std::function<void()>& after_claim = {});

}  // namespace sqp

#endif  // SQP_EXEC_CHANNEL_H_
