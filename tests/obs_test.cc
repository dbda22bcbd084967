#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "arch/engine.h"
#include "exec/plan.h"
#include "exec/profiler.h"
#include "exec/project.h"
#include "exec/select.h"
#include "exec/sharded_op.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "sched/parallel_executor.h"
#include "stream/generators.h"

namespace sqp {
namespace {

TupleRef T(int64_t ts, int64_t v) {
  return MakeTuple(ts, {Value(ts), Value(v)});
}

// ---------------------------------------------------------------------------
// Histogram: bucket boundaries and quantiles.

TEST(HistogramTest, BucketBoundaries) {
  // Bucket b holds values with bit width b: 0 -> bucket 0, 1 -> 1,
  // [2,3] -> 2, [4,7] -> 3, ...
  EXPECT_EQ(obs::Histogram::BucketFor(0), 0);
  EXPECT_EQ(obs::Histogram::BucketFor(1), 1);
  EXPECT_EQ(obs::Histogram::BucketFor(2), 2);
  EXPECT_EQ(obs::Histogram::BucketFor(3), 2);
  EXPECT_EQ(obs::Histogram::BucketFor(4), 3);
  EXPECT_EQ(obs::Histogram::BucketFor(7), 3);
  EXPECT_EQ(obs::Histogram::BucketFor(8), 4);
  EXPECT_EQ(obs::Histogram::BucketFor(UINT64_MAX), 64);

  EXPECT_EQ(obs::HistogramData::BucketLowerBound(0), 0u);
  EXPECT_EQ(obs::HistogramData::BucketUpperBound(0), 0u);
  EXPECT_EQ(obs::HistogramData::BucketLowerBound(3), 4u);
  EXPECT_EQ(obs::HistogramData::BucketUpperBound(3), 7u);
  EXPECT_EQ(obs::HistogramData::BucketUpperBound(64), UINT64_MAX);

  obs::Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(2);
  h.Observe(3);
  h.Observe(1000);  // bit width 10
  obs::HistogramData d = h.Data();
  EXPECT_EQ(d.count, 5u);
  EXPECT_EQ(d.sum, 1006u);
  EXPECT_EQ(d.buckets[0], 1u);
  EXPECT_EQ(d.buckets[1], 1u);
  EXPECT_EQ(d.buckets[2], 2u);
  EXPECT_EQ(d.buckets[10], 1u);
}

TEST(HistogramTest, QuantileEstimates) {
  obs::Histogram h;
  // 100 observations of 10 (bucket 4: [8,15]) and 100 of 1000
  // (bucket 10: [512,1023]).
  for (int i = 0; i < 100; ++i) h.Observe(10);
  for (int i = 0; i < 100; ++i) h.Observe(1000);
  obs::HistogramData d = h.Data();
  // Quantile error is bounded by the bucket: p25 must land in [8,15],
  // p99 in [512,1023].
  double p25 = d.Quantile(0.25);
  EXPECT_GE(p25, 8.0);
  EXPECT_LE(p25, 15.0);
  double p99 = d.Quantile(0.99);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1023.0);
  // Degenerate inputs.
  EXPECT_EQ(obs::HistogramData{}.Quantile(0.5), 0.0);
  EXPECT_GE(d.Quantile(1.0), 512.0);
  EXPECT_LE(d.Quantile(0.0), 15.0);
  EXPECT_DOUBLE_EQ(d.Mean(), (100.0 * 10 + 100.0 * 1000) / 200.0);
}

// ---------------------------------------------------------------------------
// Concurrency: counters and histograms hammered from N threads (run
// under TSan in CI).

TEST(MetricsConcurrencyTest, CountersAreExactUnderContention) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("sqp_test_total");
  obs::Gauge* g = reg.GetGauge("sqp_test_hw");
  obs::Histogram* h = reg.GetHistogram("sqp_test_lat");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Inc();
        g->UpdateMax(static_cast<double>(t * kPerThread + i));
        h->Observe(static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->Value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(g->Value(), kThreads * kPerThread - 1.0);
  EXPECT_EQ(h->Data().count, static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsConcurrencyTest, SnapshotWhileRunning) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("sqp_live_total");
  // Prime the counter so the final EXPECT_GT holds even if the writer
  // threads are never scheduled before the snapshot loop finishes.
  c->Inc();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) c->Inc();
    });
  }
  // Concurrent snapshots must never tear a metric: each observed value
  // is monotonically non-decreasing.
  double last = 0.0;
  for (int i = 0; i < 200; ++i) {
    obs::Snapshot snap = reg.TakeSnapshot();
    ASSERT_EQ(snap.samples.size(), 1u);
    EXPECT_GE(snap.samples[0].value, last);
    last = snap.samples[0].value;
  }
  stop = true;
  for (auto& th : writers) th.join();
  EXPECT_GT(last, 0.0);
}

TEST(MetricsConcurrencyTest, SameNameSameInstance) {
  obs::MetricsRegistry reg;
  EXPECT_EQ(reg.GetCounter("a", {{"k", "v"}}), reg.GetCounter("a", {{"k", "v"}}));
  EXPECT_NE(reg.GetCounter("a", {{"k", "v"}}), reg.GetCounter("a", {{"k", "w"}}));
}

// ---------------------------------------------------------------------------
// Export goldens.

TEST(SnapshotExportTest, JsonGolden) {
  obs::MetricsRegistry reg;
  reg.GetCounter("sqp_events_total", {{"stream", "pkts"}})->Inc(42);
  reg.GetGauge("sqp_depth")->Set(7);
  obs::Snapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.ToJson(),
            "{\"metrics\":["
            "{\"name\":\"sqp_events_total\",\"labels\":{\"stream\":\"pkts\"},"
            "\"type\":\"counter\",\"value\":42},"
            "{\"name\":\"sqp_depth\",\"type\":\"gauge\",\"value\":7}"
            "],\"operators\":[],\"trace\":[]}");
}

TEST(SnapshotExportTest, PrometheusGolden) {
  obs::MetricsRegistry reg;
  reg.GetCounter("sqp_events_total", {{"stream", "pkts"}})->Inc(42);
  obs::Histogram* h = reg.GetHistogram("sqp_lat_ns");
  h->Observe(3);  // bucket 2, le=3
  h->Observe(3);
  h->Observe(12);  // bucket 4, le=15
  obs::Snapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.ToPrometheus(),
            "# TYPE sqp_events_total counter\n"
            "sqp_events_total{stream=\"pkts\"} 42\n"
            "# TYPE sqp_lat_ns histogram\n"
            "sqp_lat_ns_bucket{le=\"3\"} 2\n"
            "sqp_lat_ns_bucket{le=\"15\"} 3\n"
            "sqp_lat_ns_bucket{le=\"+Inf\"} 3\n"
            "sqp_lat_ns_sum 18\n"
            "sqp_lat_ns_count 3\n"
            "# TYPE sqp_lat_ns_p50 gauge\n"
            "sqp_lat_ns_p50 2.75\n"
            "# TYPE sqp_lat_ns_p99 gauge\n"
            "sqp_lat_ns_p99 14.79\n");
}

TEST(SnapshotExportTest, PrometheusGroupsFamiliesAndEmitsHelp) {
  // Two streams interleave with another family in registration order;
  // the exposition must still render each family as one block with a
  // single # TYPE (and # HELP for known families).
  obs::MetricsRegistry reg;
  reg.GetCounter("sqp_stream_ingested_total", {{"stream", "a"}})->Inc(1);
  reg.GetGauge("sqp_other")->Set(9);
  reg.GetCounter("sqp_stream_ingested_total", {{"stream", "b"}})->Inc(2);
  EXPECT_EQ(reg.TakeSnapshot().ToPrometheus(),
            "# HELP sqp_stream_ingested_total Elements ingested per "
            "stream.\n"
            "# TYPE sqp_stream_ingested_total counter\n"
            "sqp_stream_ingested_total{stream=\"a\"} 1\n"
            "sqp_stream_ingested_total{stream=\"b\"} 2\n"
            "# TYPE sqp_other gauge\n"
            "sqp_other 9\n");
}

TEST(SnapshotExportTest, PrometheusEscapesLabelValues) {
  obs::MetricsRegistry reg;
  reg.GetCounter("sqp_events_total", {{"q", "a\\b\"c\nd"}})->Inc(1);
  EXPECT_NE(reg.TakeSnapshot().ToPrometheus().find(
                "sqp_events_total{q=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos);
}

TEST(SnapshotExportTest, JsonEscapesSpecials) {
  EXPECT_EQ(obs::JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

// ---------------------------------------------------------------------------
// Operator instrumentation: a bound plan reports in/out/selectivity,
// self time, and sampled lineage with zero per-operator code.

TEST(OpInstrumentationTest, BoundChainReportsCounts) {
  obs::MetricsRegistry reg;
  Plan plan;
  auto* sel = plan.Make<SelectOp>(Gt(Col(1), Lit(int64_t{499})));
  auto* proj = plan.Make<ProjectOp>(std::vector<ExprRef>{Col(1)});
  auto* sink = plan.Make<CollectorSink>();
  sel->SetOutput(proj);
  proj->SetOutput(sink);
  plan.BindMetrics(reg, "q0");

  int64_t v = 0;
  RunStream(sel, [&] { int64_t i = v++; return T(i, i % 1000); }, 10000);

  obs::Snapshot snap = reg.TakeSnapshot();
  ASSERT_EQ(snap.ops.size(), 3u);
  const obs::OpSnapshot& s0 = snap.ops[0];
  EXPECT_EQ(s0.query, "q0");
  EXPECT_EQ(s0.op, "select");
  EXPECT_EQ(s0.tuples_in, 10000u);
  EXPECT_EQ(s0.tuples_out, 5000u);
  EXPECT_DOUBLE_EQ(s0.Selectivity(), 0.5);
  EXPECT_GT(s0.busy_ns, 0u);
  const obs::OpSnapshot& s1 = snap.ops[1];
  EXPECT_EQ(s1.op, "project");
  EXPECT_EQ(s1.tuples_in, 5000u);
  EXPECT_EQ(s1.tuples_out, 5000u);
  // The sink is a plan operator too.
  EXPECT_EQ(snap.ops[2].tuples_in, 5000u);
  // Renderings include the operators.
  EXPECT_NE(snap.ToPrometheus().find("sqp_op_tuples_in_total{query=\"q0\","
                                     "op=\"select\",index=\"0\"} 10000"),
            std::string::npos);
  EXPECT_NE(snap.Pretty().find("select"), std::string::npos);
}

TEST(OpInstrumentationTest, TracerRecordsLineage) {
  obs::MetricsRegistry reg;
  reg.EnableTracing(100);  // Every 100th tuple.
  Plan plan;
  auto* sel = plan.Make<SelectOp>(Lit(int64_t{1}));  // Pass-through.
  auto* proj = plan.Make<ProjectOp>(std::vector<ExprRef>{Col(1)});
  auto* sink = plan.Make<CollectorSink>();
  sel->SetOutput(proj);
  proj->SetOutput(sink);
  plan.BindMetrics(reg, "q0");

  int64_t v = 0;
  RunStream(sel, [&] { int64_t i = v++; return T(i, i); }, 1000);

  obs::Snapshot snap = reg.TakeSnapshot();
  // 10 sampled tuples x 3 hops each.
  ASSERT_EQ(snap.trace.size(), 30u);
  EXPECT_EQ(snap.trace[0].hop, 0u);
  EXPECT_EQ(snap.trace[0].op, "select");
  EXPECT_EQ(snap.trace[1].hop, 1u);
  EXPECT_EQ(snap.trace[1].op, "project");
  EXPECT_EQ(snap.trace[2].hop, 2u);
  EXPECT_EQ(snap.trace[2].op, "collect");
  // Hops of one trace share an id and have non-decreasing timestamps.
  EXPECT_EQ(snap.trace[0].trace_id, snap.trace[1].trace_id);
  EXPECT_LE(snap.trace[0].ts_ns, snap.trace[1].ts_ns);
  // Path latency histogram observed one value per sampled tuple.
  bool found = false;
  for (const obs::Sample& s : snap.samples) {
    if (s.name == "sqp_trace_path_ns") {
      found = true;
      EXPECT_EQ(s.hist.count, 10u);
    }
  }
  EXPECT_TRUE(found);
}

// Every operator records the watermarks it forwards, but only an
// instrumented one reads the clock to stamp when.
TEST(OpInstrumentationTest, OnlyInstrumentedOperatorsStampWatermarkTime) {
  Plan plan;
  auto* sel = plan.Make<SelectOp>(Lit(int64_t{1}));
  auto* sink = plan.Make<CollectorSink>();
  sel->SetOutput(sink);
  sel->Process(Element(Punctuation::Watermark(7)));
  obs::OpStats s = sel->stats();
  EXPECT_EQ(s.wm_ts, 7);
  EXPECT_EQ(s.wm_count, 1u);
  EXPECT_EQ(s.wm_ns, 0u);

  sel->Instrument();
  sel->Process(Element(Punctuation::Watermark(8)));
  s = sel->stats();
  EXPECT_EQ(s.wm_ts, 8);
  EXPECT_EQ(s.wm_count, 2u);
  EXPECT_GT(s.wm_ns, 0u);
}

TEST(OpInstrumentationTest, TraceRingWraps) {
  obs::Tracer tracer(4);
  tracer.SetSampleEvery(1);
  for (uint64_t i = 1; i <= 10; ++i) tracer.Record(i, 0, "op", i);
  std::vector<obs::TraceEvent> ev = tracer.Events();
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev[0].trace_id, 7u);  // Oldest surviving entry first.
  EXPECT_EQ(ev[3].trace_id, 10u);
}

TEST(OpInstrumentationTest, UnboundOperatorsReportNothing) {
  obs::MetricsRegistry reg;
  Plan plan;
  auto* sel = plan.Make<SelectOp>(Lit(int64_t{1}));
  auto* sink = plan.Make<CollectorSink>();
  sel->SetOutput(sink);
  int64_t v = 0;
  RunStream(sel, [&] { int64_t i = v++; return T(i, i); }, 100);
  obs::Snapshot snap = reg.TakeSnapshot();
  EXPECT_TRUE(snap.ops.empty());
  EXPECT_TRUE(snap.trace.empty());
  // Classic per-operator stats still work.
  EXPECT_EQ(sel->stats().tuples_in, 100u);
}

// ---------------------------------------------------------------------------
// Engine integration: StreamEngine::Metrics() end-to-end, serial and
// parallel, snapshot taken while workers are live.

TEST(EngineMetricsTest, SerialQueryReportsPerOpMetrics) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  auto q = engine.Submit("select ts, len from packets where len > 500");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->metrics_label(), "q0");

  gen::PacketGenerator packets(gen::PacketOptions{});
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(engine.Ingest("packets", packets.Next()).ok());
  }
  engine.FinishAll();

  obs::Snapshot snap = engine.Metrics().TakeSnapshot();
  ASSERT_FALSE(snap.ops.empty());
  uint64_t select_in = 0;
  uint64_t root_out = 0;
  for (const obs::OpSnapshot& o : snap.ops) {
    if (o.op == "select") select_in = o.tuples_in;
    root_out = o.tuples_out;  // Last plan op drives the sink.
  }
  EXPECT_EQ(select_in, 2000u);
  EXPECT_EQ(root_out, (*q)->result_count());
  // The ingest counter rode along.
  bool found = false;
  for (const obs::Sample& s : snap.samples) {
    if (s.name == "sqp_stream_ingested_total") {
      found = true;
      EXPECT_EQ(s.value, 2000.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(EngineMetricsTest, ParallelQueryPublishesStageStats) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  auto q = engine.Submit("select ts, len from packets where len > 500");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(engine.EnableParallel(*q).ok());

  gen::PacketGenerator packets(gen::PacketOptions{});
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(engine.Ingest("packets", packets.Next()).ok());
    if (i == 2500) {
      // Snapshot while the workers are live (ingest still running).
      obs::Snapshot live = engine.Metrics().TakeSnapshot();
      EXPECT_FALSE(live.samples.empty());
    }
  }
  engine.FinishAll();

  obs::Snapshot snap = engine.Metrics().TakeSnapshot();
  uint64_t stage0_processed = 0;
  for (const obs::Sample& s : snap.samples) {
    if (s.name != "sqp_stage_processed") continue;
    for (const auto& kv : s.labels) {
      if (kv.first == "stage" && kv.second == "0") {
        stage0_processed = static_cast<uint64_t>(s.value);
      }
    }
  }
  EXPECT_EQ(stage0_processed, 5000u);
  // Per-op metrics flow from the worker threads too.
  bool saw_select = false;
  for (const obs::OpSnapshot& o : snap.ops) {
    if (o.op == "select") {
      saw_select = true;
      EXPECT_EQ(o.tuples_in, 5000u);
    }
  }
  EXPECT_TRUE(saw_select);
}

TEST(EngineMetricsTest, DisabledMetricsBindNothing) {
  StreamEngine engine;
  engine.SetMetricsEnabled(false);
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  auto q = engine.Submit("select ts, len from packets where len > 500");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE((*q)->metrics_label().empty());
  gen::PacketGenerator packets(gen::PacketOptions{});
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine.Ingest("packets", packets.Next()).ok());
  }
  engine.FinishAll();
  EXPECT_TRUE(engine.Metrics().TakeSnapshot().ops.empty());
}

// A sharded operator's output leaves from its merge thread; its record
// must still report the merged rows as its own output — live, after the
// drain, in the registry and in EXPLAIN ANALYZE.
const obs::OpSnapshot* FindOp(const obs::Snapshot& snap,
                              const std::string& op) {
  for (const obs::OpSnapshot& o : snap.ops) {
    if (o.op == op) return &o;
  }
  return nullptr;
}

TEST(EngineMetricsTest, ShardedOpReportsMergedRowsAsOutput) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  auto q = engine.Submit(
      "select tb, src_ip, count(*) from packets group by ts/60 as tb, "
      "src_ip");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ShardPlanOptions opts;
  opts.shards = 2;
  ASSERT_TRUE(engine.EnableSharding(*q, opts).ok());
  ASSERT_EQ((*q)->sharded_ops().size(), 1u);
  const ShardedOp* sharded = (*q)->sharded_ops()[0];

  gen::PacketGenerator packets(gen::PacketOptions{});
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(engine.Ingest("packets", packets.Next()).ok());
  }

  // Live: the merge publishes after every claim. Read the registry row
  // between two equal reads of merged_tuples(), i.e. while the merge
  // is between claims.
  uint64_t live_out = 0;
  uint64_t live_merged = 0;
  for (int tries = 0; tries < 2000 && live_merged == 0; ++tries) {
    const uint64_t before = sharded->merged_tuples();
    obs::Snapshot snap = engine.Metrics().TakeSnapshot();
    const uint64_t after = sharded->merged_tuples();
    const obs::OpSnapshot* row = FindOp(snap, sharded->name());
    ASSERT_NE(row, nullptr);
    if (before == after && after > 0) {
      live_out = row->tuples_out;
      live_merged = after;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_GT(live_merged, 0u);
  EXPECT_EQ(live_out, live_merged);

  engine.FinishAll();
  obs::Snapshot done = engine.Metrics().TakeSnapshot();
  const obs::OpSnapshot* row = FindOp(done, sharded->name());
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->tuples_in, 5000u);
  EXPECT_EQ(row->tuples_out, sharded->merged_tuples());
  EXPECT_EQ(sharded->stats().tuples_out, sharded->merged_tuples());
  // Every merged row reached the query's output.
  EXPECT_EQ(sharded->merged_tuples(), (*q)->result_count());
  EXPECT_GT(row->Selectivity(), 0.0);

  obs::QueryProfile p;
  ASSERT_TRUE(engine.ProfileSnapshot(*q, &p));
  bool saw = false;
  for (const obs::OpProfileRow& r : p.ops) {
    if (r.op != sharded->name()) continue;
    saw = true;
    EXPECT_EQ(r.tuples_out, sharded->merged_tuples());
  }
  EXPECT_TRUE(saw);
}

// The merge forwards a sharded operator's watermarks; since the engine
// instruments the operator, the merge stamps their wall time too, so
// EXPLAIN ANALYZE keeps a propagation time for the sharded row.
TEST(EngineMetricsTest, ShardedOpStampsForwardedWatermarks) {
  StreamEngine engine;
  StreamOptions opt;
  opt.heartbeat_period = 60;
  ASSERT_TRUE(
      engine.RegisterStream("packets", gen::PacketSchema(), {}, opt).ok());
  auto q = engine.Submit(
      "select tb, src_ip, count(*) from packets group by ts/60 as tb, "
      "src_ip");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ShardPlanOptions opts;
  opts.shards = 2;
  ASSERT_TRUE(engine.EnableSharding(*q, opts).ok());
  ASSERT_EQ((*q)->sharded_ops().size(), 1u);
  const ShardedOp* sharded = (*q)->sharded_ops()[0];

  gen::PacketGenerator packets(gen::PacketOptions{});
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(engine.Ingest("packets", packets.Next()).ok());
  }
  engine.FinishAll();
  const obs::OpStats s = sharded->stats();
  EXPECT_GT(s.wm_count, 0u);
  EXPECT_NE(s.wm_ts, obs::OpStats::kNoWatermark);
  EXPECT_GT(s.wm_ns, 0u);
}

// Scrapes (registry, Prometheus, EXPLAIN ANALYZE) race ingest into a
// sharded query: the caller's thread, the shard workers and the merge
// worker all write records a scraper thread reads (a TSan target).
TEST(EngineMetricsTest, ScrapeWhileIngestingShardedQuery) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  auto q = engine.Submit(
      "select tb, src_ip, count(*) from packets group by ts/60 as tb, "
      "src_ip");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ShardPlanOptions opts;
  opts.shards = 2;
  ASSERT_TRUE(engine.EnableSharding(*q, opts).ok());
  const ShardedOp* sharded = (*q)->sharded_ops()[0];

  std::atomic<bool> stop{false};
  std::atomic<int> scrapes{0};
  std::atomic<bool> monotone{true};
  std::thread scraper([&] {
    uint64_t last_out = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      obs::Snapshot snap = engine.Metrics().TakeSnapshot();
      (void)snap.ToPrometheus();
      obs::QueryProfile p;
      if (engine.ProfileSnapshot(*q, &p)) (void)p.ToJson();
      if (const obs::OpSnapshot* row = FindOp(snap, sharded->name())) {
        if (row->tuples_out < last_out) monotone = false;
        last_out = row->tuples_out;
      }
      scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  gen::PacketGenerator packets(gen::PacketOptions{});
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(engine.Ingest("packets", packets.Next()).ok());
  }
  engine.FinishAll();
  // At least one scrape after the drain.
  const int seen = scrapes.load();
  while (scrapes.load() < seen + 2) std::this_thread::yield();
  stop = true;
  scraper.join();

  EXPECT_TRUE(monotone.load());
  EXPECT_EQ(sharded->stats().tuples_in, 20000u);
  EXPECT_EQ(sharded->merged_tuples(), (*q)->result_count());
}

// Removed queries leave nothing behind: no operator rows, no per-query
// latency histogram, no profile.
TEST(EngineMetricsTest, RemovedQueriesLeaveNoRegistryRows) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  gen::PacketGenerator packets(gen::PacketOptions{});
  const size_t base = engine.Metrics().TakeSnapshot().samples.size();
  for (int i = 0; i < 1000; ++i) {
    auto q = engine.Submit("select ts, len from packets where len > 500");
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE(engine.Ingest("packets", packets.Next()).ok());
    ASSERT_TRUE(engine.Remove(*q).ok());
  }
  obs::Snapshot snap = engine.Metrics().TakeSnapshot();
  EXPECT_TRUE(snap.ops.empty());
  EXPECT_EQ(snap.samples.size(), base);
  for (const obs::Sample& s : snap.samples) {
    for (const auto& kv : s.labels) EXPECT_NE(kv.first, "query") << s.name;
  }
  EXPECT_TRUE(engine.ProfiledQueries().empty());

  // A live query still registers normally after the churn.
  auto q = engine.Submit("select ts, len from packets where len > 500");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(engine.Metrics().TakeSnapshot().ops.empty());
}

// ---------------------------------------------------------------------------
// OpMetrics: the per-operator record's profile fields.

TEST(OpMetricsRecordTest, AggregatesDeliveriesWaitAndStatePeaks) {
  obs::OpMetrics p;
  p.CountSingle();
  p.CountSingle();
  p.ObserveBatch(10);
  p.ObserveBatch(30);
  p.AddQueueWait(500, 5);
  p.SampleState(100);
  p.SampleState(400);
  p.SampleState(200);  // State shrank; the peak must not.
  obs::OpStats d = p.Snapshot();
  EXPECT_EQ(d.singles, 2u);
  EXPECT_EQ(d.batch_rows.count, 2u);
  EXPECT_EQ(d.batch_rows.sum, 40u);
  EXPECT_EQ(d.queue_wait_ns, 500u);
  EXPECT_EQ(d.queued_items, 5u);
  EXPECT_EQ(d.state_bytes, 200u);
  EXPECT_EQ(d.peak_state_bytes, 400u);
  // No watermark forwarded yet: the sentinel survives the snapshot.
  EXPECT_EQ(d.wm_ts, obs::OpStats::kNoWatermark);
  EXPECT_EQ(d.wm_count, 0u);

  p.OnWatermarkForward(42);
  d = p.Snapshot();
  EXPECT_EQ(d.wm_ts, 42);
  EXPECT_EQ(d.wm_count, 1u);
  EXPECT_GT(d.wm_ns, 0u);
}

TEST(OpMetricsRecordTest, StateSamplingBacksOffGeometrically) {
  obs::OpMetrics p;
  int calls = 0;
  for (int i = 0; i < 1000; ++i) {
    p.MaybeSampleState([&] {
      ++calls;
      return 64;
    });
  }
  // Intervals 1, 2, 4, ..., capped at 256: far fewer probes than
  // invocations, but more than a handful.
  EXPECT_GE(calls, 5);
  EXPECT_LE(calls, 20);
  EXPECT_EQ(p.Snapshot().state_bytes, 64u);
}

// ---------------------------------------------------------------------------
// EventLog: bounded ring, sequence-based tailing, JSON export.

TEST(EventLogTest, RingWrapsAndTailResumes) {
  obs::EventLog log(4);
  EXPECT_EQ(log.capacity(), 4u);
  for (int i = 1; i <= 10; ++i) {
    log.Emit(obs::EventKind::kQuerySubmit, "q0",
             "m" + std::to_string(i));
  }
  EXPECT_EQ(log.total(), 10u);

  std::vector<obs::EngineEvent> tail = log.Tail();
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.front().seq, 7u);  // Oldest surviving event first.
  EXPECT_EQ(tail.back().seq, 10u);
  EXPECT_EQ(tail.back().message, "m10");

  // after_seq resumes a tail without re-reading.
  std::vector<obs::EngineEvent> after = log.Tail(0, 8);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after.front().seq, 9u);

  // max keeps only the newest events.
  std::vector<obs::EngineEvent> last2 = log.Tail(2);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_EQ(last2.front().seq, 9u);

  // Tail past the end is empty, not an error.
  EXPECT_TRUE(log.Tail(0, 10).empty());

  std::string json = log.ToJson();
  EXPECT_NE(json.find("\"total\":10"), std::string::npos);
  EXPECT_NE(json.find("\"capacity\":4"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"query_submit\""), std::string::npos);
  EXPECT_NE(json.find("\"query\":\"q0\""), std::string::npos);
}

TEST(EventLogTest, KindNamesAreWireStable) {
  EXPECT_STREQ(obs::EventKindName(obs::EventKind::kQuerySubmit),
               "query_submit");
  EXPECT_STREQ(obs::EventKindName(obs::EventKind::kCheckpointWritten),
               "checkpoint_written");
  EXPECT_STREQ(obs::EventKindName(obs::EventKind::kShardStall),
               "shard_stall");
  EXPECT_STREQ(obs::EventKindName(obs::EventKind::kFlushError),
               "flush_error");
}

// ---------------------------------------------------------------------------
// QueryProfiler: plan-shaped span tree, lag math, EXPLAIN ANALYZE
// consistency with the metrics registry.

TEST(QueryProfilerTest, SnapshotTreeMatchesMetricsCounters) {
  obs::MetricsRegistry reg;
  obs::QueryProfiler profiler;
  Plan plan;
  auto* sel = plan.Make<SelectOp>(Gt(Col(1), Lit(int64_t{499})));
  auto* proj = plan.Make<ProjectOp>(std::vector<ExprRef>{Col(1)});
  auto* sink = plan.Make<CollectorSink>();
  sel->SetOutput(proj);
  proj->SetOutput(sink);
  plan.BindMetrics(reg, "q0");
  obs::QueryProfiler::SourceWatermark* src =
      profiler.Register("q0", "select v from t where v > 499");
  profiler.BindPlan("q0", plan);

  int64_t v = 0;
  RunStream(sel, [&] { int64_t i = v++; return T(i, i % 1000); }, 10000);
  src->OnWatermark(9000);
  sel->Process(Element(Punctuation::Watermark(9000)));

  obs::QueryProfile p;
  ASSERT_TRUE(profiler.Snapshot("q0", &p));
  EXPECT_EQ(p.query, "q0");
  EXPECT_EQ(p.source_wm_ts, 9000);
  EXPECT_EQ(p.source_wm_count, 1u);
  ASSERT_EQ(p.ops.size(), 3u);

  // Pre-order from the sink-most root: collect <- project <- select.
  EXPECT_EQ(p.ops[0].op, "collect");
  EXPECT_EQ(p.ops[0].depth, 0);
  EXPECT_EQ(p.ops[1].op, "project");
  EXPECT_EQ(p.ops[1].depth, 1);
  EXPECT_EQ(p.ops[2].op, "select");
  EXPECT_EQ(p.ops[2].depth, 2);

  // Row counters are the same atomics the registry snapshot renders.
  obs::Snapshot snap = reg.TakeSnapshot();
  ASSERT_EQ(snap.ops.size(), 3u);
  for (const obs::OpProfileRow& row : p.ops) {
    bool matched = false;
    for (const obs::OpSnapshot& o : snap.ops) {
      if (o.op != row.op || o.index != row.index) continue;
      matched = true;
      EXPECT_EQ(row.tuples_in, o.tuples_in);
      EXPECT_EQ(row.tuples_out, o.tuples_out);
      EXPECT_DOUBLE_EQ(row.selectivity, o.Selectivity());
    }
    EXPECT_TRUE(matched) << row.op;
  }
  EXPECT_EQ(p.ops[2].tuples_in, 10000u);
  EXPECT_EQ(p.ops[2].tuples_out, 5000u);

  // Every forwarding operator relayed the watermark: zero lag vs the
  // source, known propagation delay (the source ring still holds ts
  // 9000). The sink forwards nothing, so its row keeps the sentinel.
  for (const obs::OpProfileRow& row : p.ops) {
    // RunStream drives per-element: deliveries fold singles in.
    EXPECT_GT(row.deliveries, 0u) << row.op;
    if (row.op == "collect") {
      EXPECT_FALSE(row.has_watermark);
      EXPECT_FALSE(row.has_lag);
      continue;
    }
    EXPECT_TRUE(row.has_watermark) << row.op;
    EXPECT_TRUE(row.has_lag) << row.op;
    EXPECT_EQ(row.lag, 0) << row.op;
    EXPECT_GE(row.propagation_ms, 0.0) << row.op;
  }

  // Renderings carry the table and the tree.
  std::string pretty = p.Pretty();
  EXPECT_NE(pretty.find("EXPLAIN ANALYZE q0"), std::string::npos);
  EXPECT_NE(pretty.find("select"), std::string::npos);
  std::string json = p.ToJson();
  EXPECT_NE(json.find("\"query\":\"q0\""), std::string::npos);
  EXPECT_NE(json.find("\"watermark_lag\":0"), std::string::npos);
}

TEST(QueryProfilerTest, LagNeedsBothSourceAndOperatorWatermarks) {
  obs::QueryProfiler profiler;
  Plan plan;
  auto* sel = plan.Make<SelectOp>(Lit(int64_t{1}));
  auto* sink = plan.Make<CollectorSink>();
  sel->SetOutput(sink);
  obs::QueryProfiler::SourceWatermark* src = profiler.Register("q0", "t");
  profiler.BindPlan("q0", plan);

  // Source saw a watermark but no operator forwarded one yet: the
  // INT64_MIN sentinel must suppress lag, not produce a huge number.
  src->OnWatermark(100);
  obs::QueryProfile p;
  ASSERT_TRUE(profiler.Snapshot("q0", &p));
  for (const obs::OpProfileRow& row : p.ops) {
    EXPECT_FALSE(row.has_watermark);
    EXPECT_FALSE(row.has_lag);
  }

  // Operators forwarded a watermark the source never tapped: same
  // suppression on a fresh registration (source at the sentinel). Only
  // the forwarding operator records it — the sink keeps the sentinel.
  profiler.Register("q1", "t");
  profiler.BindPlan("q1", plan);
  sel->Process(Element(Punctuation::Watermark(7)));
  ASSERT_TRUE(profiler.Snapshot("q1", &p));
  EXPECT_EQ(p.source_wm_ts, obs::OpStats::kNoWatermark);
  for (const obs::OpProfileRow& row : p.ops) {
    EXPECT_EQ(row.has_watermark, row.op == "select") << row.op;
    EXPECT_FALSE(row.has_lag);
    EXPECT_LT(row.propagation_ms, 0.0);  // Unknown without a source tap.
  }
}

TEST(QueryProfilerTest, UnregisterDropsAndLabelsList) {
  obs::QueryProfiler profiler;
  Plan plan;
  auto* sel = plan.Make<SelectOp>(Lit(int64_t{1}));
  auto* sink = plan.Make<CollectorSink>();
  sel->SetOutput(sink);
  profiler.Register("q0", "t");
  profiler.BindPlan("q0", plan);
  EXPECT_EQ(profiler.Labels(), std::vector<std::string>{"q0"});
  obs::QueryProfile p;
  EXPECT_TRUE(profiler.Snapshot("q0", &p));
  EXPECT_FALSE(profiler.Snapshot("q9", &p));
  profiler.Unregister("q0");
  EXPECT_FALSE(profiler.Snapshot("q0", &p));
  EXPECT_TRUE(profiler.Labels().empty());
}

TEST(EngineProfilerTest, ExplainAnalyzeWindowedAggregate) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  auto q = engine.Submit(
      "select tb, count(*) from packets group by ts/60 as tb");
  ASSERT_TRUE(q.ok());

  gen::PacketGenerator packets(gen::PacketOptions{});
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(engine.Ingest("packets", packets.Next()).ok());
  }
  engine.FinishAll();

  obs::QueryProfile p;
  ASSERT_TRUE(engine.ProfileSnapshot(*q, &p));
  EXPECT_EQ(p.query, "q0");
  ASSERT_FALSE(p.ops.empty());
  // The leaf of the tree is the plan's entry operator: all 2000 tuples
  // entered it, and the numbers agree with the metrics registry.
  EXPECT_EQ(p.ops.back().tuples_in, 2000u);
  obs::Snapshot snap = engine.Metrics().TakeSnapshot();
  for (const obs::OpProfileRow& row : p.ops) {
    for (const obs::OpSnapshot& o : snap.ops) {
      if (o.op == row.op && o.index == row.index) {
        EXPECT_EQ(row.tuples_in, o.tuples_in) << row.op;
        EXPECT_EQ(row.tuples_out, o.tuples_out) << row.op;
      }
    }
  }
  // The engine also answers by label, and lists the query.
  EXPECT_TRUE(engine.ProfileSnapshot("q0", &p));
  EXPECT_EQ(engine.ProfiledQueries(), std::vector<std::string>{"q0"});

  // Submit/stop made it into the event log.
  bool saw_submit = false;
  for (const obs::EngineEvent& e : engine.Events().Tail()) {
    if (e.kind == obs::EventKind::kQuerySubmit && e.query == "q0") {
      saw_submit = true;
    }
  }
  EXPECT_TRUE(saw_submit);
}

// ---------------------------------------------------------------------------
// StageStats satellites: unified rendering + backlog underflow guard.

TEST(StageStatsTest, BacklogClampsTransientUnderflow) {
  sched::StageStats s;
  s.enqueued = 10;
  s.processed = 12;  // Torn concurrent read: processed ran ahead.
  EXPECT_EQ(s.Backlog(), 0u);
  s.enqueued = 20;
  EXPECT_EQ(s.Backlog(), 8u);
}

TEST(StageStatsTest, ToStringMatchesPublishedFields) {
  sched::StageStats s;
  s.enqueued = 5;
  s.processed = 3;
  s.batches = 2;
  s.dropped = 1;
  s.queue_depth = 3;
  s.max_queue_depth = 4;
  s.busy_time = 0.25;
  EXPECT_EQ(s.ToString(),
            "enqueued=5 processed=3 batches=2 dropped=1 backlog=2 "
            "queue_depth=3 max_queue_depth=4 busy_time=0.250000");
  // The obs bridge publishes exactly the same fields.
  obs::Snapshot snap;
  obs::SnapshotBuilder b(&snap);
  sched::PublishStageStats(b, {{"stage", "0"}}, s);
  ASSERT_EQ(snap.samples.size(), 8u);
  EXPECT_EQ(snap.samples[0].name, "sqp_stage_enqueued");
  EXPECT_EQ(snap.samples[0].value, 5.0);
  EXPECT_EQ(snap.samples[2].name, "sqp_stage_batches");
  EXPECT_EQ(snap.samples[2].value, 2.0);
  EXPECT_EQ(snap.samples[4].name, "sqp_stage_backlog");
  EXPECT_EQ(snap.samples[4].value, 2.0);
  EXPECT_EQ(snap.samples[5].name, "sqp_stage_queue_depth");
  EXPECT_EQ(snap.samples[5].value, 3.0);
}

}  // namespace
}  // namespace sqp
