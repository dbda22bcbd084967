// In-memory span recorder for the benchmark's traced runs. Spans are
// recorded only from the benchmark's own files, around calls into the
// library's public API; nothing inside the library is instrumented.
//
// Each thread appends to its own buffer (no lock on the hot path). A span
// records its layer name, start and end (steady-clock ns), the index of
// the enclosing span on the same thread (its parent), and a request id
// shared by all spans of one round or HTTP request.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Layers a span can be charged to: the library's modules plus the
/// benchmark's own work ("bench": loop, consumer folding, client parse).
enum class Layer : uint8_t { kBench, kCql, kArch, kExec, kSched, kDur, kServer };
inline constexpr int kNumLayers = 7;
const char* LayerName(Layer l);

struct Span {
  Layer layer = Layer::kBench;
  uint32_t thread = 0;
  int64_t parent = -1;  // Index into the same thread's buffer, -1 = root.
  uint64_t request = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Process-wide recorder. Disabled unless Enable() was called; when
/// disabled ScopedSpan reads no clock.
class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; returns its handle for Close.
  int64_t Open(Layer layer, uint64_t request);
  void Close(int64_t handle);

  /// Drops every recorded span (all threads). Call only while no other
  /// thread records.
  void Clear();

  /// All spans recorded so far, thread by thread. Call only while no
  /// other thread records.
  std::vector<Span> Collect() const;

  /// Writes up to `max_spans` spans as CSV to `path` (header line first,
  /// then layer,thread,parent,request,start_ns,end_ns). Returns false on
  /// an IO error.
  bool WriteCsv(const std::string& path, size_t max_spans) const;

  /// The calling thread's span buffer (created at first use).
  struct ThreadBuf;
  ThreadBuf& Local();

 private:
  bool enabled_ = false;
};

/// RAII span; no-op when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(Layer layer, uint64_t request = 0)
      : handle_(Tracer::Get().enabled() ? Tracer::Get().Open(layer, request)
                                        : -1) {}
  ~ScopedSpan() {
    if (handle_ >= 0) Tracer::Get().Close(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t handle_;
};

/// Self time per layer: each span's duration minus the part its direct
/// children cover, summed by layer. Only spans of `thread` (the main
/// thread, whose spans lie on the blocking path) below a top-level
/// bench-layer span (a measured window) are counted; the windows' own
/// uncovered time is returned separately as `root_self_ns`.
struct SelfTimes {
  uint64_t layer_ns[kNumLayers] = {};
  uint64_t root_ns = 0;       // Total duration of the root spans.
  uint64_t root_self_ns = 0;  // Root time covered by no child span.
};
SelfTimes ComputeSelfTimes(const std::vector<Span>& spans, uint32_t thread);

/// Index of the calling thread in the recorder (assigned at first use).
uint32_t ThreadIndex();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
