#include "trace.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

uint64_t SteadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* LayerName(Layer l) {
  static const char* const kNames[kNumLayers] = {
      "bench", "cql", "arch", "exec", "sched", "dur", "server"};
  return kNames[static_cast<int>(l)];
}

struct Tracer::ThreadBuf {
  uint32_t index = 0;
  std::vector<Span> spans;
  std::vector<int64_t> open;  // Stack of open span indexes.
};

namespace {

// Buffers outlive their threads so Collect can read them after joins.
std::mutex g_bufs_mu;
std::vector<std::unique_ptr<Tracer::ThreadBuf>>& Bufs() {
  static std::vector<std::unique_ptr<Tracer::ThreadBuf>> bufs;
  return bufs;
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuf& Tracer::Local() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_bufs_mu);
    Bufs().push_back(std::make_unique<ThreadBuf>());
    buf = Bufs().back().get();
    buf->index = static_cast<uint32_t>(Bufs().size() - 1);
  }
  return *buf;
}

uint32_t ThreadIndex() { return Tracer::Get().Local().index; }

int64_t Tracer::Open(Layer layer, uint64_t request) {
  ThreadBuf& b = Local();
  Span s;
  s.layer = layer;
  s.thread = b.index;
  s.parent = b.open.empty() ? -1 : b.open.back();
  s.request = request;
  s.start_ns = SteadyNs();
  b.spans.push_back(s);
  const int64_t h = static_cast<int64_t>(b.spans.size() - 1);
  b.open.push_back(h);
  return h;
}

void Tracer::Close(int64_t handle) {
  ThreadBuf& b = Local();
  b.spans[static_cast<size_t>(handle)].end_ns = SteadyNs();
  if (!b.open.empty() && b.open.back() == handle) b.open.pop_back();
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(g_bufs_mu);
  for (auto& b : Bufs()) {
    b->spans.clear();
    b->open.clear();
  }
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(g_bufs_mu);
  std::vector<Span> out;
  for (const auto& b : Bufs()) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

bool Tracer::WriteCsv(const std::string& path, size_t max_spans) const {
  std::vector<Span> spans = Collect();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# spans=%zu written=%zu\n", spans.size(),
               spans.size() < max_spans ? spans.size() : max_spans);
  std::fprintf(f, "layer,thread,parent,request,start_ns,end_ns\n");
  for (size_t i = 0; i < spans.size() && i < max_spans; ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%s,%u,%lld,%llu,%llu,%llu\n", LayerName(s.layer),
                 s.thread, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

SelfTimes ComputeSelfTimes(const std::vector<Span>& spans, uint32_t thread) {
  // Spans of one thread are contiguous in Collect() order and parents
  // index into that thread's run (and precede their children), so offset
  // parent indexes by the run start.
  SelfTimes st;
  size_t begin = 0;
  while (begin < spans.size() && spans[begin].thread != thread) ++begin;
  size_t end = begin;
  while (end < spans.size() && spans[end].thread == thread) ++end;
  const size_t n = end - begin;
  std::vector<uint64_t> child_ns(n, 0);
  std::vector<size_t> root(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[begin + i];
    if (s.parent < 0) {
      root[i] = i;
      continue;
    }
    const size_t p = static_cast<size_t>(s.parent);
    root[i] = root[p];
    child_ns[p] += s.end_ns - s.start_ns;
  }
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[begin + i];
    // Only the benchmark's measured windows (bench-layer roots) count;
    // set-up spans outside them are not part of the per-element time.
    if (spans[begin + root[i]].layer != Layer::kBench) continue;
    const uint64_t dur = s.end_ns - s.start_ns;
    const uint64_t self = dur > child_ns[i] ? dur - child_ns[i] : 0;
    if (s.parent < 0) {
      st.root_ns += dur;
      st.root_self_ns += self;
    } else {
      st.layer_ns[static_cast<int>(s.layer)] += self;
    }
  }
  return st;
}

}  // namespace perfbench
