#include "exec/channel.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <limits>
#include <utility>

namespace sqp {

Channel::Channel(Options options)
    : limit_(options.limit),
      backpressure_(options.backpressure),
      wake_(std::clamp<size_t>(options.wake_batch, 1,
                               options.limit == 0
                                   ? std::numeric_limits<size_t>::max()
                                   : options.limit)),
      consumer_(options.consumer),
      on_block_(std::move(options.on_block)) {}

void Channel::AdmitLocked(ChannelItem item, size_t weight) {
  q_.push_back(std::move(item));
  depth_ += weight;
  accepted_ += weight;
  if (depth_ > max_depth_) max_depth_ = depth_;
}

size_t Channel::DropLocked(ChannelItem& item, size_t weight) {
  if (item.cols == nullptr) {
    dropped_ += weight;
    return 0;
  }
  std::vector<ColumnBatch::PunctSlot>& puncts = item.cols->puncts;
  const size_t n = puncts.size();
  dropped_ += weight - n;
  for (ColumnBatch::PunctSlot& ps : puncts) {
    AdmitLocked(ChannelItem{Element(std::move(ps.punct)), item.port}, 1);
  }
  return n;
}

bool Channel::Push(ChannelItem item) {
  const size_t w = item.Weight();
  const bool punct = item.cols == nullptr && item.e.is_punctuation();
  std::unique_lock<std::mutex> lock(mu_);
  if (ShutLocked()) {
    refused_ += w;
    return false;
  }
  if (limit_ != 0 && depth_ >= limit_ && !punct) {
    if (backpressure_ == Backpressure::kDropNewest) {
      if (DropLocked(item, w) != 0) not_empty_.notify_one();
      return false;
    }
    if (on_block_) on_block_(depth_);
    not_full_.wait(lock, [&] { return ShutLocked() || depth_ < limit_; });
    // Shutdown refusal, not an overload drop.
    if (ShutLocked()) {
      refused_ += w;
      return false;
    }
  }
  // Queue-wait stamping is pay-for-what-you-profile: no clock read
  // unless the consuming operator is instrumented.
  if (consumer_ != nullptr && consumer_->instrumented()) {
    item.enq_ns = obs::NowNs();
  }
  const uint64_t before = depth_;
  AdmitLocked(std::move(item), w);
  // Signalling every element lets the consumer preempt the producer one
  // element at a time — on few cores that degenerates into two context
  // switches per element. Wake once the threshold is reached (the
  // consumer sleeps only on an empty channel, so this happens once per
  // sleep — a futex call per batch, not per tuple), or at once for
  // punctuations.
  if (punct || (before < wake_ && depth_ >= wake_)) not_empty_.notify_one();
  return true;
}

void Channel::PushChunk(std::vector<ChannelItem>& items) {
  size_t chunk = 0;
  for (const ChannelItem& item : items) chunk += item.Weight();
  std::unique_lock<std::mutex> lock(mu_);
  if (ShutLocked()) {
    refused_ += chunk;
    return;
  }
  if (consumer_ != nullptr && consumer_->instrumented()) {
    const uint64_t now = obs::NowNs();  // One clock read per chunk.
    for (ChannelItem& item : items) item.enq_ns = now;
  }
  // Fast path: the whole chunk fits — bulk move, no per-item checks.
  if (limit_ == 0 || depth_ + chunk <= limit_) {
    q_.insert(q_.end(), std::make_move_iterator(items.begin()),
              std::make_move_iterator(items.end()));
    depth_ += chunk;
    accepted_ += chunk;
    if (depth_ > max_depth_) max_depth_ = depth_;
    not_empty_.notify_one();
    return;
  }
  for (ChannelItem& item : items) {
    const size_t w = item.Weight();
    chunk -= w;  // Now the weight of the items after this one.
    const bool punct = item.cols == nullptr && item.e.is_punctuation();
    if (depth_ >= limit_ && !punct) {
      if (backpressure_ == Backpressure::kDropNewest) {
        DropLocked(item, w);
        continue;
      }
      // The consumer must drain before we can continue: make sure it is
      // awake before sleeping on the bound.
      not_empty_.notify_one();
      if (on_block_) on_block_(depth_);
      not_full_.wait(lock, [&] { return ShutLocked() || depth_ < limit_; });
      if (ShutLocked()) {
        // Shutdown: this item and the rest of the chunk are refused.
        refused_ += w + chunk;
        return;
      }
    }
    // A columnar item lands whole once below the limit (it may overshoot
    // by its row count, like punctuations do).
    AdmitLocked(std::move(item), w);
  }
  not_empty_.notify_one();  // Once per chunk, not per element.
}

Channel::ClaimResult Channel::Claim(std::deque<ChannelItem>* out,
                                    size_t max, size_t* weight) {
  uint64_t claimed = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto ready = [&] { return ShutLocked() || !q_.empty(); };
    if (wake_ > 1) {
      // Producers hold wake-ups back until a batch accumulates, so the
      // poll timeout is what bounds the latency of a sub-batch trickle.
      not_empty_.wait_for(lock, std::chrono::milliseconds(1), ready);
    } else {
      not_empty_.wait(lock, ready);
    }
    if (stopped()) return ClaimResult::kStopped;
    if (q_.empty()) {
      return closed_ ? ClaimResult::kClosed : ClaimResult::kIdle;
    }
    if (depth_ <= max) {
      out->swap(q_);
      claimed = depth_;
    } else {
      while (!q_.empty() && claimed < max) {
        claimed += q_.front().Weight();
        out->push_back(std::move(q_.front()));
        q_.pop_front();
      }
    }
    depth_ -= claimed;  // Weights are stable while queued.
    popped_ += claimed;
  }
  // Room was freed: wake every producer blocked on the bound.
  not_full_.notify_all();
  *weight = claimed;
  return ClaimResult::kItems;
}

void Channel::RecordDelivery(uint64_t elements, uint64_t batches,
                             uint64_t ns) {
  delivered_.fetch_add(elements, std::memory_order_relaxed);
  batches_.fetch_add(batches, std::memory_order_relaxed);
  busy_ns_.fetch_add(ns, std::memory_order_relaxed);
}

void Channel::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

void Channel::Stop() {
  std::lock_guard<std::mutex> lock(mu_);
  stopped_.store(true, std::memory_order_relaxed);
  not_empty_.notify_all();
  not_full_.notify_all();
}

ChannelStats Channel::Stats() const {
  ChannelStats s;
  s.delivered = delivered_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.busy_ns = busy_ns_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  s.accepted = accepted_;
  s.dropped = dropped_;
  s.refused = refused_;
  s.popped = popped_;
  s.depth = depth_;
  s.max_depth = max_depth_;
  return s;
}

ChannelFeed::ChannelFeed(Channel* out, int port, size_t cap)
    : Operator("feed"), out_(out), port_(port), cap_(cap == 0 ? 1 : cap) {
  buf_.reserve(cap_);
}

void ChannelFeed::Push(const Element& e, int /*port*/) {
  buf_.push_back(ChannelItem{e, port_});
  if (e.is_punctuation() || buf_.size() >= cap_) FlushBuffer();
}

/// Batched hand-off from the upstream operator's Emit coalescing: the
/// feed ends its thread's chain, so it takes the elements and flushes
/// once — the order the per-element path would have produced.
void ChannelFeed::PushBatch(ElementBatch& batch, int /*port*/) {
  buf_.reserve(buf_.size() + batch.size());
  bool saw_punct = false;
  for (Element& e : batch) {
    if (e.is_punctuation()) saw_punct = true;
    buf_.push_back(ChannelItem{std::move(e), port_});
  }
  if (saw_punct || buf_.size() >= cap_) FlushBuffer();
}

/// Columnar hand-off: one item behind any buffered rows, flushed at once
/// (a columnar batch is already the amortization unit).
void ChannelFeed::PushColumns(ColumnBatch& batch, int /*port*/) {
  ChannelItem item;
  item.port = port_;
  item.cols = std::make_unique<ColumnBatch>(std::move(batch));
  buf_.push_back(std::move(item));
  FlushBuffer();
}

void ChannelFeed::FlushBuffer() {
  if (buf_.empty()) return;
  out_->PushChunk(buf_);
  buf_.clear();
}

bool DeliverChannel(Channel& in, Operator* op, size_t max_batch,
                    bool columnar, ChannelFeed* feed,
                    const std::function<void()>& after_claim) {
  if (max_batch == 0) max_batch = 1;
  std::deque<ChannelItem> batch;
  ElementBatch eb;
  ColumnBatch cb;
  for (;;) {
    batch.clear();
    size_t claimed = 0;
    switch (in.Claim(&batch, max_batch, &claimed)) {
      case Channel::ClaimResult::kStopped:
        return false;
      case Channel::ClaimResult::kClosed:
        return true;
      case Channel::ClaimResult::kIdle:
        continue;
      case Channel::ClaimResult::kItems:
        break;
    }
    if (op->instrumented()) {
      obs::OpMetrics& m = op->metrics();
      m.IncBatches();
      m.UpdateQueueDepth(claimed);
      // One clock read per claim: how long the claimed items sat in the
      // channel (producer-stamped at enqueue).
      const uint64_t now = obs::NowNs();
      uint64_t wait = 0, stamped = 0;
      for (const ChannelItem& item : batch) {
        if (item.enq_ns != 0 && now > item.enq_ns) {
          wait += now - item.enq_ns;
          ++stamped;
        }
      }
      if (stamped != 0) m.AddQueueWait(wait, stamped);
    }
    const auto t0 = std::chrono::steady_clock::now();
    uint64_t deliveries = 0;
    // Same-port runs of at most max_batch rows, each one ProcessBatch
    // (or one conversion + ProcessColumns); elements are moved out of the
    // claimed items, order (punctuations included) is untouched.
    // Columnar items are delivered whole. max_batch <= 1 is the classic
    // element-at-a-time loop: one virtual Push per row, no batches.
    size_t i = 0;
    while (i < batch.size() && !in.stopped()) {
      ChannelItem& item = batch[i];
      if (item.cols != nullptr || max_batch <= 1) {
        if (item.cols != nullptr) {
          op->ProcessColumns(*item.cols, item.port);
        } else {
          op->Process(item.e, item.port);
        }
        ++i;
        if (max_batch > 1) ++deliveries;
        continue;
      }
      const int port = item.port;
      const size_t end =
          batch.size() - i > max_batch ? i + max_batch : batch.size();
      eb.clear();
      while (i < end && batch[i].port == port && batch[i].cols == nullptr) {
        eb.push_back(std::move(batch[i].e));
        ++i;
      }
      if (columnar && op->SupportsColumns(port) &&
          ColumnBatch::FromRows(eb, &cb)) {
        op->ProcessColumns(cb, port);
      } else {
        op->ProcessBatch(eb, port);
      }
      ++deliveries;
    }
    // Don't sit on buffered emissions while waiting for the next claim.
    if (feed != nullptr) feed->FlushBuffer();
    const auto t1 = std::chrono::steady_clock::now();
    in.RecordDelivery(
        claimed, deliveries,
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    if (in.stopped()) return false;
    if (after_claim) after_claim();
  }
}

}  // namespace sqp
