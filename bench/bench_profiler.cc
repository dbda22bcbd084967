// E22 — query profiler overhead. Every operator carries one record
// (sqp::obs::OpMetrics) that both \metrics and EXPLAIN ANALYZE read: an
// uninstrumented operator pays one flag branch per delivery plus plain
// count stores, an instrumented one takes the timed path (sampled
// clock reads, delivery counts, a clock read on the rare watermark
// path). The profiler adds only a per-query tree over those records and
// a source-side watermark tap. This binary measures the four-stage
// select->select->project->project chain (the E16 shape — the cheapest
// real operators, i.e. the worst case for relative overhead) across
// the ladder of configurations, then prices the scrape side: profile
// snapshot + render, and the event log.
//
// Acceptance gates (CI, full run): 'disabled' (nothing instrumented)
// < 3% over the raw Push baseline; 'profiler vs metrics bound' < 10%.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "exec/expr.h"
#include "exec/plan.h"
#include "exec/profiler.h"
#include "exec/project.h"
#include "exec/select.h"
#include "obs/event_log.h"
#include "obs/op_metrics.h"
#include "obs/registry.h"
#include "stream/generators.h"

namespace sqp {
namespace {

using bench::Fmt;
using bench::FmtInt;
using bench::Table;

/// Packet stream with a watermark every `punct_every` tuples, so the
/// profiler's watermark-forwarding path (clock read + 3 relaxed stores)
/// is exercised at a realistic punctuation rate.
std::vector<Element> MakeInput(uint64_t n, uint64_t punct_every) {
  std::vector<Element> input;
  input.reserve(n + n / punct_every + 1);
  gen::PacketGenerator packets(gen::PacketOptions{});
  int64_t last_ts = 0;
  for (uint64_t i = 0; i < n; ++i) {
    TupleRef t = packets.Next();
    last_ts = t->ts();
    input.push_back(Element(std::move(t)));
    if ((i + 1) % punct_every == 0) {
      input.push_back(Element(Punctuation::Watermark(last_ts)));
    }
  }
  return input;
}

enum class Mode {
  kDirectPush,  // Pre-instrumentation entry point.
  kDisabled,    // Process(), nothing instrumented (the shipped default).
  kMetrics,     // Plan::BindMetrics: records published, timed path.
  kProfiled,    // + QueryProfiler tree and source watermark tap.
};

struct ChainRun {
  double seconds = 0.0;
  uint64_t out = 0;
};

/// Builds the 4-stage select->select->project->project chain and
/// streams `input` through under `mode`. The profiler configuration
/// registers the plan with a QueryProfiler and taps every watermark at
/// the source, exactly as StreamEngine::Submit + DeliverDirect do.
ChainRun RunChain(const std::vector<Element>& input, Mode mode) {
  Plan plan;
  auto* sel1 = plan.Make<SelectOp>(
      Gt(Col(gen::PacketCols::kLen), Lit(int64_t{200})));
  auto* sel2 = plan.Make<SelectOp>(
      Gt(Lit(int64_t{1400}), Col(gen::PacketCols::kLen)));
  auto* proj1 = plan.Make<ProjectOp>(std::vector<ExprRef>{
      Col(gen::PacketCols::kTs),
      Mul(Col(gen::PacketCols::kLen), Lit(int64_t{2}))});
  auto* proj2 = plan.Make<ProjectOp>(std::vector<ExprRef>{Col(0), Col(1)});
  auto* sink = plan.Make<CountingSink>();
  sel1->SetOutput(sel2);
  sel2->SetOutput(proj1);
  proj1->SetOutput(proj2);
  proj2->SetOutput(sink);

  obs::MetricsRegistry reg;
  obs::QueryProfiler profiler;
  obs::QueryProfiler::SourceWatermark* src = nullptr;
  if (mode == Mode::kMetrics || mode == Mode::kProfiled) {
    plan.BindMetrics(reg, "e22");
  }
  if (mode == Mode::kProfiled) {
    src = profiler.Register("e22", "select ... x4 chain");
    profiler.BindPlan("e22", plan);
  }

  auto t0 = std::chrono::steady_clock::now();
  if (mode == Mode::kDirectPush) {
    for (const Element& e : input) sel1->Push(e, 0);
  } else if (src != nullptr) {
    for (const Element& e : input) {
      if (e.is_punctuation() && !e.punctuation().has_key) {
        src->OnWatermark(e.punctuation().ts);
      }
      sel1->Process(e, 0);
    }
  } else {
    for (const Element& e : input) sel1->Process(e, 0);
  }
  sel1->Flush();
  auto t1 = std::chrono::steady_clock::now();
  ChainRun r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.out = sink->tuples();
  return r;
}

void PrintOverheadTable() {
  const uint64_t n = bench::Iters(4000000, 100000);
  const int reps = static_cast<int>(bench::Iters(7, 3));
  std::vector<Element> input = MakeInput(n, 1024);

  const Mode modes[] = {Mode::kDirectPush, Mode::kDisabled, Mode::kMetrics,
                        Mode::kProfiled};
  const char* names[] = {"entry via Push() (no hooks)",
                         "disabled (unbound Process)", "metrics bound",
                         "metrics + profiler"};
  constexpr int kModes = 4;
  // Paired per-rep ratios against that same rep's Push baseline, median
  // across reps (min under --smoke): slow machine drift cancels, bursts
  // are rejected. Same scheme as E17.
  std::vector<std::vector<double>> ratio(kModes);
  std::vector<double> prof_over_metrics;
  double best[kModes] = {1e100, 1e100, 1e100, 1e100};
  uint64_t out[kModes] = {0, 0, 0, 0};
  for (int r = 0; r < reps; ++r) {
    (void)RunChain(input, Mode::kDisabled);  // Untimed warmup.
    double rep_s[kModes];
    for (int s = 0; s < kModes; ++s) {
      const int m = (r + s) % kModes;
      ChainRun run = RunChain(input, modes[m]);
      rep_s[m] = run.seconds;
      best[m] = std::min(best[m], run.seconds);
      out[m] = run.out;
    }
    for (int m = 0; m < kModes; ++m) ratio[m].push_back(rep_s[m] / rep_s[0]);
    prof_over_metrics.push_back(rep_s[3] / rep_s[2]);
  }
  for (int m = 1; m < kModes; ++m) {
    if (out[m] != out[0]) {
      std::fprintf(stderr, "FATAL: profiling changed results (%llu vs %llu)\n",
                   static_cast<unsigned long long>(out[m]),
                   static_cast<unsigned long long>(out[0]));
      std::exit(1);
    }
  }
  auto agg = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    if (bench::SmokeMode()) return v.front();
    size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
  };
  auto mps = [&](double s) { return static_cast<double>(n) / s / 1e6; };
  Table t({"config", "Mtuples/s", "ns/tuple", "overhead %"});
  t.AddRow({names[0], Fmt(mps(best[0])),
            Fmt(best[0] / static_cast<double>(n) * 1e9, 1), "baseline"});
  for (int m = 1; m < kModes; ++m) {
    t.AddRow({names[m], Fmt(mps(best[m])),
              Fmt(best[m] / static_cast<double>(n) * 1e9, 1),
              Fmt((agg(ratio[m]) - 1.0) * 100.0, 1)});
  }
  t.AddRow({"profiler vs metrics bound", "-", "-",
            Fmt((agg(prof_over_metrics) - 1.0) * 100.0, 1)});
  t.Print("E22: query profiler overhead, 4-stage select/project chain");
  std::printf(
      "note: overhead %% is the per-rep paired ratio vs the same rep's\n"
      "Push baseline (median rep on full runs, min under --smoke); the\n"
      "last row pairs profiler-on against metrics-only instead. Both run\n"
      "the same instrumented operators over one record per operator, so\n"
      "that row is the marginal cost of the profiler's source watermark\n"
      "tap and tree on a live engine query; the metrics rows carry E15's\n"
      "known clock-read cost. Acceptance gates:\n"
      "'disabled (unbound Process)' < 3%% over baseline; 'profiler vs\n"
      "metrics bound' < 10%%.\n");
}

/// Scrape-side cost: snapshotting and rendering a live profile, and the
/// event log's emit + export path. None of these touch the hot path.
void PrintScrapeCosts() {
  const uint64_t n = bench::Iters(500000, 20000);
  std::vector<Element> input = MakeInput(n, 1024);

  Plan plan;
  auto* sel = plan.Make<SelectOp>(
      Gt(Col(gen::PacketCols::kLen), Lit(int64_t{200})));
  auto* proj = plan.Make<ProjectOp>(std::vector<ExprRef>{
      Col(gen::PacketCols::kTs), Col(gen::PacketCols::kLen)});
  auto* sink = plan.Make<CountingSink>();
  sel->SetOutput(proj);
  proj->SetOutput(sink);
  obs::MetricsRegistry reg;
  plan.BindMetrics(reg, "e22");
  obs::QueryProfiler profiler;
  obs::QueryProfiler::SourceWatermark* src =
      profiler.Register("e22", "scrape-cost chain");
  profiler.BindPlan("e22", plan);
  for (const Element& e : input) {
    if (e.is_punctuation() && !e.punctuation().has_key) {
      src->OnWatermark(e.punctuation().ts);
    }
    sel->Process(e, 0);
  }
  sel->Flush();

  const int snaps = static_cast<int>(bench::Iters(2000, 100));
  size_t pretty_bytes = 0;
  size_t json_bytes = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < snaps; ++i) {
    obs::QueryProfile p;
    profiler.Snapshot("e22", &p);
    pretty_bytes = p.Pretty().size();
    json_bytes = p.ToJson().size();
  }
  auto t1 = std::chrono::steady_clock::now();
  const double snap_us = std::chrono::duration<double>(t1 - t0).count() *
                         1e6 / static_cast<double>(snaps);

  obs::EventLog events(1024);
  const uint64_t emits = bench::Iters(200000, 10000);
  t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < emits; ++i) {
    events.Emit(obs::EventKind::kQuerySubmit, "q0", "bench event payload");
  }
  t1 = std::chrono::steady_clock::now();
  const double emit_ns = std::chrono::duration<double>(t1 - t0).count() *
                         1e9 / static_cast<double>(emits);
  t0 = std::chrono::steady_clock::now();
  size_t events_bytes = 0;
  const int dumps = static_cast<int>(bench::Iters(500, 50));
  for (int i = 0; i < dumps; ++i) events_bytes = events.ToJson().size();
  t1 = std::chrono::steady_clock::now();
  const double dump_us = std::chrono::duration<double>(t1 - t0).count() *
                         1e6 / static_cast<double>(dumps);

  Table t({"what", "value"});
  t.AddRow({"profile snapshot+render us", Fmt(snap_us, 1)});
  t.AddRow({"profile pretty bytes", FmtInt(pretty_bytes)});
  t.AddRow({"profile json bytes", FmtInt(json_bytes)});
  t.AddRow({"event emit ns", Fmt(emit_ns, 1)});
  t.AddRow({"event log json us (full ring)", Fmt(dump_us, 1)});
  t.AddRow({"event log json bytes", FmtInt(events_bytes)});
  t.Print("E22: scrape-side cost (profile snapshot, event log)");
}

void BM_OpMetricsWatermarkForward(benchmark::State& state) {
  obs::OpMetrics p;
  int64_t ts = 0;
  for (auto _ : state) {
    p.OnWatermarkForward(ts++);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_OpMetricsWatermarkForward);

void BM_OpMetricsCountSingle(benchmark::State& state) {
  obs::OpMetrics p;
  for (auto _ : state) {
    p.CountSingle();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_OpMetricsCountSingle);

void BM_EventLogEmit(benchmark::State& state) {
  obs::EventLog log(1024);
  for (auto _ : state) {
    log.Emit(obs::EventKind::kQuerySubmit, "q0", "payload");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_EventLogEmit);

void BM_SourceWatermarkTap(benchmark::State& state) {
  obs::QueryProfiler profiler;
  obs::QueryProfiler::SourceWatermark* src = profiler.Register("q0", "t");
  int64_t ts = 0;
  for (auto _ : state) {
    src->OnWatermark(ts++);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SourceWatermarkTap);

}  // namespace
}  // namespace sqp

int main(int argc, char** argv) {
  sqp::bench::ParseBenchArgs(argc, argv);
  sqp::PrintOverheadTable();
  sqp::PrintScrapeCosts();
  sqp::bench::RunMicrobenchmarks(argc, argv);
  return 0;
}
