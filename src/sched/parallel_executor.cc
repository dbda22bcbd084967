#include "sched/parallel_executor.h"

#include <cassert>

namespace sqp {

ParallelExecutor::ParallelExecutor(std::vector<Stage> stages, Operator* sink)
    : sink_(sink) {
  assert(!stages.empty());
  states_.reserve(stages.size());
  for (const Stage& s : stages) {
    Channel::Options o;
    o.limit = s.queue_limit;
    o.backpressure = s.backpressure;
    o.wake_batch = s.wake_batch;
    o.consumer = s.op;
    states_.push_back(std::make_unique<StageState>(s, std::move(o)));
  }
  // Wire stage i's output into stage i+1's channel. The feed runs on
  // worker i (it is stage i's downstream), so the only cross-thread
  // hand-off is the channel itself.
  for (size_t i = 0; i < states_.size(); ++i) {
    Operator* op = states_[i]->cfg.op;
    if (i + 1 < states_.size()) {
      StageState& next = *states_[i + 1];
      states_[i]->out = std::make_unique<ChannelFeed>(
          &next.in, next.cfg.in_port, next.cfg.wake_batch);
      op->SetOutput(states_[i]->out.get());
    } else if (sink_ != nullptr) {
      op->SetOutput(sink_);
    }
  }
}

ParallelExecutor::~ParallelExecutor() {
  if (running_) Stop();
}

void ParallelExecutor::Start() {
  assert(!started_ && "ParallelExecutor is one-shot: Start() once");
  started_ = true;
  running_ = true;
  for (size_t i = 0; i < states_.size(); ++i) {
    states_[i]->worker = std::thread([this, i] { WorkerLoop(i); });
  }
}

bool ParallelExecutor::Arrive(Element e) {
  return ArriveOn(std::move(e), states_[0]->cfg.in_port);
}

bool ParallelExecutor::ArriveOn(Element e, int port) {
  return states_[0]->in.Push(ChannelItem{std::move(e), port});
}

void ParallelExecutor::WorkerLoop(size_t stage) {
  StageState& st = *states_[stage];
  if (!DeliverChannel(st.in, st.cfg.op, st.cfg.max_batch, st.cfg.columnar,
                      st.out.get())) {
    return;  // Stopped: abandon without flushing.
  }
  // Flush cascade: close-out emissions flow through the feed into the
  // next stage's channel before we close it.
  st.cfg.op->Flush();
  if (stage + 1 < states_.size()) states_[stage + 1]->in.Close();
}

void ParallelExecutor::Drain() {
  if (!running_) return;
  states_[0]->in.Close();
  for (auto& st : states_) {
    if (st->worker.joinable()) st->worker.join();
  }
  running_ = false;
}

void ParallelExecutor::Stop() {
  if (!running_) return;
  for (auto& st : states_) st->in.Stop();
  for (auto& st : states_) {
    if (st->worker.joinable()) st->worker.join();
  }
  running_ = false;
}

sched::StageStats ParallelExecutor::stage_stats(size_t i) const {
  const ChannelStats c = states_[i]->in.Stats();
  sched::StageStats out;
  out.enqueued = c.accepted;
  out.processed = c.delivered;
  out.batches = c.batches;
  out.dropped = c.dropped;
  out.queue_depth = c.depth;
  out.max_queue_depth = c.max_depth;
  out.busy_time = static_cast<double>(c.busy_ns) * 1e-9;
  return out;
}

void ParallelExecutor::CollectStats(obs::SnapshotBuilder& builder,
                                    const obs::LabelSet& base_labels) const {
  for (size_t i = 0; i < states_.size(); ++i) {
    sched::StageStats s = stage_stats(i);
    obs::LabelSet labels = base_labels;
    labels.emplace_back("stage", std::to_string(i));
    Operator* op = states_[i]->cfg.op;
    labels.emplace_back("op", op->name());
    // Mirror the queue high-water into the operator's own record so
    // per-op views show queue pressure without asking the executor.
    op->metrics().UpdateQueueDepth(s.max_queue_depth);
    sched::PublishStageStats(builder, labels, s);
  }
}

uint64_t ParallelExecutor::dropped() const {
  uint64_t n = 0;
  for (size_t i = 0; i < states_.size(); ++i) n += stage_stats(i).dropped;
  return n;
}

size_t ParallelExecutor::QueuedElements() const {
  size_t n = 0;
  for (const auto& st : states_) n += st->in.Stats().depth;
  return n;
}

}  // namespace sqp
