#include "exec/sharded_op.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace sqp {

namespace {

Channel::Options MergeChannelOptions(const ShardedOpOptions& o) {
  Channel::Options m;
  // The merge never drops (these are produced results; shedding belongs
  // at the input), and every chunk wakes it, so it needs no poll.
  m.limit = static_cast<size_t>(o.shards) * o.queue_limit;
  m.wake_batch = 1;
  return m;
}

}  // namespace

ShardedOp::ShardedOp(ShardedOpOptions options, ShardReplicaFactory factory,
                     std::string name)
    : Operator(std::move(name)),
      options_(options),
      router_(options.shards, options.routing, options.key_cols),
      expected_flushes_(options.expected_flushes > 0
                            ? options.expected_flushes
                            : static_cast<int>(options.key_cols.size())),
      merge_(options.shards, options.routing),
      merge_in_(MergeChannelOptions(options)),
      merge_state_bytes_(merge_.StateBytes()) {
  assert(options_.shards > 0);
  states_.reserve(static_cast<size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    std::unique_ptr<Operator> replica = factory(i);
    Channel::Options o;
    o.limit = options_.queue_limit;
    o.backpressure = options_.backpressure;
    o.wake_batch = options_.wake_batch;
    o.consumer = replica.get();
    if (options_.events != nullptr) {
      // Runs under the shard channel's lock, which guards `last`.
      o.on_block = [this, i, last = uint64_t{0}](size_t depth) mutable {
        const uint64_t now = obs::NowNs();
        if (now - last < 1000000000ull) return;  // 1/s per shard.
        last = now;
        options_.events->Emit(
            obs::EventKind::kShardStall, options_.event_label,
            this->name() + " shard " + std::to_string(i) + " queue full (" +
                std::to_string(depth) + " queued); producer blocked");
      };
    }
    auto st = std::make_unique<ShardState>(std::move(o));
    st->replica = std::move(replica);
    st->feed = std::make_unique<ChannelFeed>(&merge_in_, i,
                                             options_.wake_batch);
    st->replica->SetOutput(st->feed.get());
    st->state_bytes.store(st->replica->StateBytes(),
                          std::memory_order_relaxed);
    states_.push_back(std::move(st));
  }
}

ShardedOp::~ShardedOp() {
  if (running_.load(std::memory_order_acquire)) StopAndJoin();
}

void ShardedOp::EnsureStarted() {
  if (started_) return;
  started_ = true;
  // The merge drives everything downstream of this operator, so wire it
  // to whatever Push-time output this op has. (Re-wiring the output
  // after the first Push is not supported.)
  merge_.SetOutput(output(), output_port());
  // The merge forwards this operator's watermarks, so it stamps their
  // wall time exactly when this operator is timed. (The merge is driven
  // through Push, so this adds no self-timing.)
  if (instrumented()) merge_.Instrument();
  running_.store(true, std::memory_order_release);
  merge_worker_ = std::thread([this] { MergeLoop(); });
  for (int i = 0; i < options_.shards; ++i) {
    states_[static_cast<size_t>(i)]->worker =
        std::thread([this, i] { ShardLoop(i); });
  }
}

void ShardedOp::Push(const Element& e, int port) {
  CountIn(e);
  EnsureStarted();
  int target = router_.Route(e, port);
  if (target == ShardRouter::kBroadcast) {
    for (auto& st : states_) st->in.Push(ChannelItem{e, port});
    return;
  }
  states_[static_cast<size_t>(target)]->in.Push(ChannelItem{e, port});
}

void ShardedOp::ShardLoop(int shard) {
  ShardState& st = *states_[static_cast<size_t>(shard)];
  Operator* replica = st.replica.get();
  // A claim may take the whole bounded queue, delivered as same-port
  // runs of up to queue_limit rows.
  const size_t max_batch = options_.queue_limit == 0
                               ? std::numeric_limits<size_t>::max()
                               : options_.queue_limit;
  auto publish = [&] {
    st.state_bytes.store(replica->StateBytes(), std::memory_order_relaxed);
  };
  if (!DeliverChannel(st.in, replica, max_batch, options_.columnar,
                      st.feed.get(), publish)) {
    return;
  }
  // Drain: one Flush per input port (binary replicas count flushes);
  // close-out emissions flow into the merge channel.
  for (int f = 0; f < expected_flushes_; ++f) replica->Flush();
  st.feed->FlushBuffer();
  publish();
}

void ShardedOp::MergeLoop() {
  std::deque<ChannelItem> batch;
  ElementBatch rows;
  auto merge_one = [this](const Element& e, int shard) {
    states_[static_cast<size_t>(shard)]->merged.fetch_add(
        1, std::memory_order_relaxed);
    merge_.Push(e, shard);
  };
  for (;;) {
    batch.clear();
    size_t claimed = 0;
    const Channel::ClaimResult r = merge_in_.Claim(
        &batch, std::numeric_limits<size_t>::max(), &claimed);
    if (r == Channel::ClaimResult::kStopped) return;
    if (r == Channel::ClaimResult::kClosed) break;
    if (r == Channel::ClaimResult::kIdle) continue;
    for (ChannelItem& item : batch) {
      if (item.cols != nullptr) {
        rows.clear();
        item.cols->MaterializeRows(&rows);
        for (const Element& e : rows) merge_one(e, item.port);
      } else {
        merge_one(item.e, item.port);
      }
      if (merge_in_.stopped()) return;
    }
    PublishMerge();
  }
  // Closed only after every shard worker was joined, so the tail is
  // fully forwarded. The Nth merge flush forwards one Flush downstream,
  // on this thread — the only thread that ever touched downstream.
  for (int i = 0; i < options_.shards; ++i) merge_.Flush();
  PublishMerge();
}

void ShardedOp::PublishMerge() {
  merge_state_bytes_.store(merge_.StateBytes(), std::memory_order_relaxed);
  metrics_.CopyOutputFrom(merge_.metrics());
}

void ShardedOp::Flush() {
  if (++flushes_seen_ < expected_flushes_) return;
  if (!started_) {
    // Never saw data: nothing to drain, but the cascade must continue.
    Operator::Flush();
    return;
  }
  DrainAndJoin();
}

void ShardedOp::DrainAndJoin() {
  for (auto& st : states_) st->in.Close();
  for (auto& st : states_) {
    if (st->worker.joinable()) st->worker.join();
  }
  merge_in_.Close();
  if (merge_worker_.joinable()) merge_worker_.join();
  running_.store(false, std::memory_order_release);
}

void ShardedOp::StopAndJoin() {
  for (auto& st : states_) st->in.Stop();
  merge_in_.Stop();
  for (auto& st : states_) {
    if (st->worker.joinable()) st->worker.join();
  }
  if (merge_worker_.joinable()) merge_worker_.join();
  running_.store(false, std::memory_order_release);
}

size_t ShardedOp::StateBytes() const {
  size_t bytes =
      sizeof(*this) + merge_state_bytes_.load(std::memory_order_relaxed);
  for (const auto& st : states_) {
    bytes += st->state_bytes.load(std::memory_order_relaxed);
  }
  return bytes;
}

ShardStats ShardedOp::shard_stats(int i) const {
  const ShardState& st = *states_[static_cast<size_t>(i)];
  const ChannelStats c = st.in.Stats();
  ShardStats out;
  out.routed = c.accepted;
  out.merged = st.merged.load(std::memory_order_relaxed);
  out.dropped = c.dropped;
  out.queue_depth = c.depth;
  out.max_queue_depth = c.max_depth;
  out.busy_time = static_cast<double>(c.busy_ns) * 1e-9;
  out.state_bytes = st.state_bytes.load(std::memory_order_relaxed);
  return out;
}

double ShardedOp::SkewRatio() const {
  uint64_t total = 0;
  uint64_t peak = 0;
  for (const auto& st : states_) {
    uint64_t r = st->in.Stats().accepted;
    total += r;
    peak = std::max(peak, r);
  }
  if (total == 0) return 1.0;
  double mean =
      static_cast<double>(total) / static_cast<double>(states_.size());
  return static_cast<double>(peak) / mean;
}

uint64_t ShardedOp::dropped() const {
  uint64_t n = 0;
  for (const auto& st : states_) n += st->in.Stats().dropped;
  return n;
}

void ShardedOp::CollectStats(obs::SnapshotBuilder& builder,
                             const obs::LabelSet& base_labels) const {
  obs::LabelSet op_labels = base_labels;
  op_labels.emplace_back("op", name());
  builder.AddGauge("sqp_shard_skew", op_labels, SkewRatio());
  builder.AddGauge("sqp_shard_count", op_labels,
                   static_cast<double>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    ShardStats s = shard_stats(i);
    obs::LabelSet labels = op_labels;
    labels.emplace_back("shard", std::to_string(i));
    builder.AddCounter("sqp_shard_routed_total", labels,
                       static_cast<double>(s.routed));
    builder.AddCounter("sqp_shard_merged_total", labels,
                       static_cast<double>(s.merged));
    builder.AddCounter("sqp_shard_dropped_total", labels,
                       static_cast<double>(s.dropped));
    builder.AddGauge("sqp_shard_backlog", labels,
                     static_cast<double>(s.queue_depth));
    builder.AddGauge("sqp_shard_max_queue_depth", labels,
                     static_cast<double>(s.max_queue_depth));
    builder.AddCounter("sqp_shard_busy_time", labels, s.busy_time);
    builder.AddGauge("sqp_shard_state_bytes", labels,
                     static_cast<double>(s.state_bytes));
  }
}

}  // namespace sqp
