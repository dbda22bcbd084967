#include "workloads.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "arch/engine.h"
#include "checksum.h"
#include "cql/planner.h"
#include "dur/manager.h"
#include "http_client.h"
#include "server/query_server.h"
#include "server/session.h"
#include "stream/generators.h"
#include "trace.h"

namespace perfbench {
namespace {

using sqp::Element;
using sqp::Status;
using sqp::StreamEngine;
using sqp::Tuple;
using sqp::TupleRef;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Seconds(uint64_t from_ns, uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<uint64_t>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

/// Resident set size of this process in bytes.
uint64_t RssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return resident * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

uint64_t RowHash(const Tuple& t) {
  uint64_t h = RowSeed(t.ts());
  for (size_t i = 0; i < t.arity(); ++i) {
    const sqp::Value& v = t.at(i);
    h = v.type() == sqp::ValueType::kInt
            ? RowFoldInt(h, v.AsInt())
            : RowFoldText(h, sqp::server::ValueJson(v));
  }
  return h;
}

// ---------------------------------------------------------------------
// Workload definitions

/// Output roles: each query's row count is reported under its role.
enum Role { kSelectRole, kGroupByRole, kJoinRole, kNumRoles };
const char* const kRoleNames[kNumRoles] = {"select", "groupby", "join"};

struct QueryDef {
  Role role;
  std::string cql;
};

const char kSelect[] =
    "select ts, src_ip, dst_ip, len from packets where len > 400";
const char kGroupBy[] =
    "select tb, protocol, count(*), sum(len) from packets "
    "group by ts/100 as tb, protocol";
// Slide 13's RTT query as a self join of the packet stream.
const char kJoin[] =
    "select s.ts, s.src_ip, s.dst_ip, a.ts - s.ts as rtt "
    "from packets s [range 300], packets a [range 300] "
    "where s.src_ip = a.dst_ip and s.dst_ip = a.src_ip "
    "and s.src_port = a.dst_port and s.dst_port = a.src_port "
    "and s.is_syn = 1 and s.is_ack = 0 and a.is_syn = 1 and a.is_ack = 1";
const char kChain[] =
    "select tb, protocol, count(*), sum(len) from packets "
    "where len > 200 and protocol = 6 group by ts/100 as tb, protocol";
const char kServeSelect[] =
    "select ts, src_ip, dst_ip, src_port, dst_port, len from packets "
    "where protocol = 6";

struct WorkloadDef {
  std::string name;
  std::vector<QueryDef> queries;
  bool parallel = false;
  bool durable = false;
  bool serve = false;
  size_t input_tuples = 0;
  double offered_rate = 0.0;  // Open-loop input tuples per second.
  Layer ingest_layer = Layer::kArch;
};

/// The measured workloads, in BENCHMARK.json order.
std::vector<WorkloadDef> Definitions() {
  std::vector<WorkloadDef> defs(2);
  defs[0].name = "parallel";
  defs[0].queries = {{kGroupByRole, kChain}};
  defs[0].parallel = true;
  defs[0].input_tuples = 200000;
  defs[0].offered_rate = 100000;
  defs[0].ingest_layer = Layer::kSched;

  defs[1].name = "serve";
  defs[1].queries = {{kSelectRole, kServeSelect}, {kGroupByRole, kGroupBy}};
  defs[1].serve = true;
  defs[1].input_tuples = 50000;
  defs[1].offered_rate = 50000;
  defs[1].ingest_layer = Layer::kServer;
  return defs;
}

/// The three hot queries of the serial configurations the traced runs
/// probe: a select, a windowed group-by and the RTT window join. Their
/// end-to-end figures did not repeat on the development host (NOTES.md),
/// so they run as layer probes, not as workloads.
std::vector<QueryDef> HotQueries() {
  return {{kSelectRole, kSelect}, {kGroupByRole, kGroupBy}, {kJoinRole, kJoin}};
}
constexpr int kIdleQueries = 200;

sqp::SchemaRef IdleSchema() {
  return std::make_shared<sqp::Schema>(std::vector<sqp::Field>{
      {"ts", sqp::ValueType::kInt}, {"v", sqp::ValueType::kInt}});
}

std::vector<TupleRef> MakeInput(uint64_t seed, size_t n) {
  sqp::gen::PacketOptions po;
  po.seed = seed;
  sqp::gen::PacketGenerator g(po);
  std::vector<TupleRef> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(g.Next());
  return out;
}

// ---------------------------------------------------------------------
// Consumers, reference, open-loop schedule

/// Open-loop schedule: input element i is due at t0 + i * period.
struct OpenLoop {
  uint64_t t0 = 0;
  double period_ns = 0.0;
  size_t n = 0;
  uint64_t Due(size_t i) const {
    return t0 + static_cast<uint64_t>(static_cast<double>(i) * period_ns);
  }
};

/// Folds one query's rows into digests; in the open-loop phase it also
/// times each row from the due time of the input element that produced
/// it (per the reference's attribution). Used by one thread at a time.
struct Consumer {
  Digest pre;   // Rows before a durable restart.
  Digest post;  // Rows after it (all rows when there is no restart).
  bool after_restart = true;
  uint64_t k = 0;  // Rows seen since Reset.
  const std::vector<uint32_t>* src = nullptr;
  const OpenLoop* ol = nullptr;
  std::vector<uint64_t> latency_ns;

  void Reset(bool restarts, const OpenLoop* open_loop,
             const std::vector<uint32_t>* attribution) {
    pre = Digest{};
    post = Digest{};
    after_restart = !restarts;
    k = 0;
    ol = open_loop;
    src = attribution;
    latency_ns.clear();
  }

  void OnRow(uint64_t h) {
    (after_restart ? post : pre).Add(h);
    if (ol != nullptr && k < src->size() && (*src)[k] < ol->n) {
      const uint64_t due = ol->Due((*src)[k]);
      const uint64_t now = NowNs();
      latency_ns.push_back(now > due ? now - due : 0);
    }
    ++k;
  }
};

/// What the serial engine computes in-process on the same input: each
/// query's digest, and for each of its rows the index of the input
/// element being ingested when it was emitted (input size = emitted at
/// end of stream).
struct Reference {
  std::vector<Digest> digest;
  std::vector<std::vector<uint32_t>> src;
};

Reference ComputeReference(const std::vector<QueryDef>& queries,
                           const std::vector<TupleRef>& input) {
  Reference ref;
  ref.digest.resize(queries.size());
  ref.src.resize(queries.size());
  StreamEngine engine;
  (void)engine.RegisterStream("packets", sqp::gen::PacketSchema());
  uint32_t cur = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    sqp::SubmitOptions so;
    so.collect = false;
    so.on_result = [&ref, &cur, q](const TupleRef& t) {
      ref.digest[q].Add(RowHash(*t));
      ref.src[q].push_back(cur);
    };
    auto h = engine.Submit(queries[q].cql, so);
    if (!h.ok()) {
      std::fprintf(stderr, "reference submit failed: %s\n",
                   h.status().ToString().c_str());
      std::exit(3);
    }
  }
  for (size_t i = 0; i < input.size(); ++i) {
    cur = static_cast<uint32_t>(i);
    (void)engine.Ingest("packets", input[i]);
  }
  cur = static_cast<uint32_t>(input.size());
  engine.FinishAll();
  return ref;
}

// ---------------------------------------------------------------------
// Systems under test

/// Timings a system records about itself, by key.
using Samples = std::map<std::string, std::vector<double>>;

class System {
 public:
  virtual ~System() = default;
  /// Builds a fresh system, ready to accept the first Ingest (timed as
  /// setup_s; on a durable restart it also recovers).
  virtual Status Setup() = 0;
  /// Untimed start of consumers outside the system (HTTP clients).
  virtual void StartConsumers() {}
  virtual Status Ingest(const TupleRef& t) = 0;
  /// Ends input; returns once every output reached its consumer.
  virtual Status Finish() = 0;
  /// Durable only: checkpoint and shut down cleanly before a restart.
  virtual Status Shutdown() { return Status::OK(); }
  virtual void Teardown() = 0;
  virtual StreamEngine* engine() = 0;

  std::vector<std::unique_ptr<Consumer>> consumers;
  Samples samples;
  std::atomic<uint64_t> http_attempted{0};
  std::atomic<uint64_t> http_failed{0};
};

class EngineSystem : public System {
 public:
  explicit EngineSystem(const WorkloadDef& def) : def_(def) {
    for (size_t q = 0; q < def.queries.size(); ++q) {
      consumers.push_back(std::make_unique<Consumer>());
    }
  }
  ~EngineSystem() override { Teardown(); }

  void set_archive_dir(std::string dir) { dir_ = std::move(dir); }

  Status Setup() override {
    engine_ = std::make_unique<StreamEngine>();
    {
      ScopedSpan s(Layer::kArch);
      SQP_RETURN_NOT_OK(
          engine_->RegisterStream("packets", sqp::gen::PacketSchema()));
    }
    for (size_t q = 0; q < def_.queries.size(); ++q) {
      Consumer* c = consumers[q].get();
      sqp::SubmitOptions so;
      so.collect = false;
      so.on_result = [c](const TupleRef& t) { c->OnRow(RowHash(*t)); };
      auto h = [&] {
        ScopedSpan s(Layer::kCql);
        return engine_->Submit(def_.queries[q].cql, std::move(so));
      }();
      SQP_RETURN_NOT_OK(h.status());
      if (def_.parallel) {
        ScopedSpan s(Layer::kSched);
        SQP_RETURN_NOT_OK(engine_->EnableParallel(*h));
      }
    }
    if (def_.durable) {
      sqp::dur::DurabilityOptions opts;
      opts.fsync = false;
      opts.checkpoint_every = 25000;
      const uint64_t t0 = NowNs();
      {
        ScopedSpan s(Layer::kDur);
        SQP_RETURN_NOT_OK(engine_->EnableDurability(dir_, opts));
      }
      const sqp::RecoveryReport& rep = engine_->recovery_report();
      if (rep.recovered) {
        samples["recover_s"].push_back(Seconds(t0, NowNs()));
        samples["replayed_tuples"].push_back(
            static_cast<double>(rep.replayed_tuples));
      }
    }
    return Status::OK();
  }

  Status Ingest(const TupleRef& t) override {
    return engine_->Ingest("packets", t);
  }

  Status Finish() override {
    engine_->FinishAll();
    return Status::OK();
  }

  Status Shutdown() override {
    ScopedSpan s(Layer::kDur);
    sqp::dur::DurabilityManager* m = engine_->durability();
    if (m != nullptr && m->appended() > 0) {
      samples["bytes_per_tuple"].push_back(
          static_cast<double>(m->bytes_buffered_total()) /
          static_cast<double>(m->appended()));
    }
    const uint64_t t0 = NowNs();
    Status st = engine_->CheckpointNow();
    samples["checkpoint_ms"].push_back(Seconds(t0, NowNs()) * 1e3);
    engine_.reset();  // Final group commit in the manager's destructor.
    for (auto& c : consumers) c->after_restart = true;
    return st;
  }

  void Teardown() override {
    engine_.reset();
    if (def_.durable && !dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }

  StreamEngine* engine() override { return engine_.get(); }

 private:
  const WorkloadDef& def_;
  std::string dir_;
  std::unique_ptr<StreamEngine> engine_;
};

/// The serve workload: the engine's HTTP query server with one streaming
/// client thread per query.
class ServeSystem : public System {
 public:
  explicit ServeSystem(const WorkloadDef& def) : def_(def) {
    for (size_t q = 0; q < def.queries.size(); ++q) {
      consumers.push_back(std::make_unique<Consumer>());
    }
  }
  ~ServeSystem() override { Teardown(); }

  Status Setup() override {
    engine_ = std::make_unique<StreamEngine>();
    {
      ScopedSpan s(Layer::kArch);
      SQP_RETURN_NOT_OK(
          engine_->RegisterStream("packets", sqp::gen::PacketSchema()));
    }
    {
      ScopedSpan s(Layer::kServer);
      auto port = engine_->Serve(0);
      if (!port.ok()) return port.status();
      port_ = *port;
    }
    sessions_.clear();
    uint64_t post_ns = 0;
    for (const QueryDef& q : def_.queries) {
      std::string sid;
      const uint64_t t0 = NowNs();
      int code;
      {
        ScopedSpan s(Layer::kServer);
        code = PostQuery(port_, "queue=8192&block_ms=60000", q.cql, &sid);
      }
      post_ns += NowNs() - t0;
      http_attempted.fetch_add(1);
      if (code < 200 || code > 299 || sid.empty()) {
        http_failed.fetch_add(1);
        return Status::Internal("POST /query failed with HTTP " +
                               std::to_string(code));
      }
      sessions_.push_back(sid);
    }
    samples["post_ns"].push_back(static_cast<double>(post_ns));
    return Status::OK();
  }

  void StartConsumers() override {
    finishing_ns_.store(0);
    clients_.clear();
    stats_.assign(sessions_.size(), ClientStats{});
    for (size_t q = 0; q < sessions_.size(); ++q) {
      clients_.emplace_back([this, q] { ClientLoop(q); });
    }
  }

  Status Ingest(const TupleRef& t) override {
    return engine_->Ingest("packets", t);
  }

  Status Finish() override {
    engine_->FinishAll();
    engine_->query_server()->FinishSessions();
    finishing_ns_.store(NowNs());
    JoinClients();
    for (const ClientStats& s : stats_) {
      samples["polls"].push_back(static_cast<double>(s.polls));
      samples["rows"].push_back(static_cast<double>(s.rows));
      samples["body_bytes"].push_back(static_cast<double>(s.bytes));
      samples["parse_ns"].push_back(static_cast<double>(s.parse_ns));
      samples["poll_ns"].push_back(static_cast<double>(s.poll_ns));
    }
    return Status::OK();
  }

  void Teardown() override {
    if (engine_ != nullptr && !clients_.empty()) {
      // Abandoned round (an earlier step failed): end the sessions so
      // the clients see their trailers, then join them.
      engine_->FinishAll();
      engine_->query_server()->FinishSessions();
      finishing_ns_.store(NowNs());
    }
    JoinClients();
    engine_.reset();
  }

  StreamEngine* engine() override { return engine_.get(); }

 private:
  struct ClientStats {
    uint64_t polls = 0, rows = 0, bytes = 0, parse_ns = 0, poll_ns = 0;
  };

  void JoinClients() {
    for (std::thread& t : clients_) t.join();
    clients_.clear();
  }

  void ClientLoop(size_t q) {
    Consumer* c = consumers[q].get();
    ClientStats& st = stats_[q];
    uint64_t cursor = 0;
    for (;;) {
      const uint64_t t0 = NowNs();
      PollResult r;
      {
        ScopedSpan s(Layer::kServer, (uint64_t{q} << 32) | st.polls);
        r = PollResults(port_, sessions_[q], cursor, 1000,
                        [c](const ResultRow& row) { c->OnRow(row.hash); });
      }
      st.poll_ns += NowNs() - t0;
      st.polls += 1;
      st.rows += r.rows;
      st.bytes += r.body_bytes;
      st.parse_ns += r.parse_ns;
      http_attempted.fetch_add(1);
      if (r.code < 200 || r.code > 299 || !r.trailer) {
        http_failed.fetch_add(1);
        return;
      }
      cursor = r.next_cursor;
      if (r.finished) return;
      const uint64_t fin = finishing_ns_.load();
      if (fin != 0 && NowNs() - fin > 30'000'000'000ULL) {
        http_failed.fetch_add(1);  // Never saw the finished trailer.
        return;
      }
    }
  }

  const WorkloadDef& def_;
  std::unique_ptr<StreamEngine> engine_;
  int port_ = 0;
  std::vector<std::string> sessions_;
  std::vector<ClientStats> stats_;
  std::atomic<uint64_t> finishing_ns_{0};
  std::vector<std::thread> clients_;
};

// ---------------------------------------------------------------------
// Rounds

constexpr uint64_t kFinishRequest = ~uint64_t{0};
/// Length of one open-loop round at the offered rate.
constexpr double kOpenRoundS = 0.3;

/// Scheduler counters of a parallel round, summed over the stages.
struct SchedStats {
  double batch_mean = 0.0;  // Elements per ProcessBatch delivery.
  double max_depth = 0.0;   // Deepest stage queue seen.
  double busy_frac = 0.0;   // Stage busy time over stages x round time.
  double dropped = 0.0;
};

SchedStats ReadSchedStats(const StreamEngine& engine, double wall_s) {
  uint64_t processed = 0, batches = 0, depth = 0, drops = 0;
  double busy = 0.0;
  size_t stages = 0;
  for (const auto& q : engine.queries()) {
    const sqp::ParallelExecutor* px = q->parallel_executor();
    if (px == nullptr) continue;
    for (size_t i = 0; i < px->num_stages(); ++i) {
      sqp::sched::StageStats st = px->stage_stats(i);
      processed += st.processed;
      batches += st.batches;
      depth = std::max(depth, st.max_queue_depth);
      drops += st.dropped;
      busy += st.busy_time;
      ++stages;
    }
  }
  SchedStats s;
  if (batches > 0) {
    s.batch_mean =
        static_cast<double>(processed) / static_cast<double>(batches);
  }
  s.max_depth = static_cast<double>(depth);
  if (stages > 0 && wall_s > 0) {
    s.busy_frac = busy / (static_cast<double>(stages) * wall_s);
  }
  s.dropped = static_cast<double>(drops);
  return s;
}

struct RoundResult {
  Status status;
  double setup_s = 0.0;   // Set-up, or the restart when there is one.
  double ingest_s = 0.0;  // Closed-loop window: ingest through Finish.
  uint64_t ingest_failed = 0;
  std::vector<uint64_t> late_ns;  // Open loop: send time - due time.
  uint64_t state_bytes = 0;
  uint64_t rss_bytes = 0;
  SchedStats sched;
};

/// One pass of `input` through a fresh system. With `ol` set the input
/// is offered open-loop on that schedule; otherwise as fast as the system
/// accepts it, and a durable configuration (the durability probe)
/// restarts half-way.
RoundResult RunRound(System& sys, const WorkloadDef& def,
                     const std::vector<TupleRef>& input, OpenLoop* ol,
                     const Reference& ref, uint64_t round_id) {
  RoundResult rr;
  const bool restart = def.durable && ol == nullptr;
  for (size_t q = 0; q < sys.consumers.size(); ++q) {
    sys.consumers[q]->Reset(restart, ol, &ref.src[q]);
  }
  uint64_t t0 = NowNs();
  rr.status = sys.Setup();
  rr.setup_s = Seconds(t0, NowNs());
  if (!rr.status.ok()) return rr;
  sys.StartConsumers();
  // The schedule starts when the system is ready. Consumer threads read
  // t0 only for rows, which reach them through the engine's or server's
  // locked queues after this write.
  if (ol != nullptr) ol->t0 = NowNs();

  const size_t n = input.size();
  const size_t half = restart ? n / 2 : n;
  if (ol != nullptr) rr.late_ns.reserve(n);
  auto window = [&](size_t from, size_t to, bool finish) {
    ScopedSpan root(Layer::kBench, round_id);
    for (size_t i = from; i < to; ++i) {
      if (ol != nullptr) {
        const uint64_t due = ol->Due(i);
        uint64_t now = NowNs();
        while (now < due) now = NowNs();
        rr.late_ns.push_back(now - due);
      }
      ScopedSpan s(def.ingest_layer, round_id);
      if (!sys.Ingest(input[i]).ok()) rr.ingest_failed += 1;
    }
    if (finish) {
      if (!def.parallel && sys.engine() != nullptr) {
        rr.state_bytes = sys.engine()->TotalStateBytes();
      }
      ScopedSpan s(def.ingest_layer, kFinishRequest);
      rr.status = sys.Finish();
    }
  };

  t0 = NowNs();
  window(0, half, !restart);
  rr.ingest_s = Seconds(t0, NowNs());
  if (restart && rr.status.ok()) {
    rr.status = sys.Shutdown();
    if (!rr.status.ok()) return rr;
    t0 = NowNs();
    rr.status = sys.Setup();  // Restart over the same archive.
    rr.setup_s = Seconds(t0, NowNs());
    if (!rr.status.ok()) return rr;
    t0 = NowNs();
    window(half, n, true);
    rr.ingest_s += Seconds(t0, NowNs());
  }
  if (def.parallel && sys.engine() != nullptr) {
    // Workers are joined once Finish returns: operator state and stage
    // counters are safe to read.
    rr.state_bytes = sys.engine()->TotalStateBytes();
    rr.sched = ReadSchedStats(*sys.engine(), rr.ingest_s);
  }
  rr.rss_bytes = RssBytes();
  return rr;
}

/// Correctness gate for one round: each query's output multiset against
/// the reference. A durable query either restored its checkpoint (rows
/// before + after the restart equal the reference) or replayed from seq 0
/// (rows after the restart alone equal it). Returns failed rows.
uint64_t CheckRound(const System& sys, const Reference& ref, bool durable,
                    std::string* why) {
  uint64_t failed = 0;
  for (size_t q = 0; q < ref.digest.size(); ++q) {
    const Consumer& c = *sys.consumers[q];
    Digest both = c.pre;
    both.Merge(c.post);
    const Digest& want = ref.digest[q];
    if (c.post == want && (durable || c.pre.count == 0)) continue;
    if (durable && both == want) continue;
    const Digest& got = durable && c.post.count < want.count ? both : c.post;
    const uint64_t diff = got.count > want.count ? got.count - want.count
                                                 : want.count - got.count;
    failed += std::max<uint64_t>(diff, 1);
    if (why->empty()) {
      *why = "query " + std::to_string(q) + ": got " +
             std::to_string(got.count) + " rows, want " +
             std::to_string(want.count) + " (row digest differs)";
    }
  }
  return failed;
}

// ---------------------------------------------------------------------
// Layer probes (traced runs): each times public calls of one layer on the
// same input, outside the engine.

/// Per-element time of the workload's compiled plans, pushed directly
/// (cql::Compile + CompiledQuery::Push) with digest-folding sinks.
double ChainProbeNs(const WorkloadDef& def, const std::vector<TupleRef>& in) {
  sqp::cql::Catalog cat;
  (void)cat.Register("packets", sqp::gen::PacketSchema());
  std::vector<double> runs;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<std::unique_ptr<sqp::cql::CompiledQuery>> plans;
    std::vector<std::unique_ptr<sqp::CallbackSink>> sinks;
    Digest d;
    for (const QueryDef& q : def.queries) {
      auto cq = sqp::cql::Compile(q.cql, cat);
      if (!cq.ok()) return 0.0;
      sinks.push_back(std::make_unique<sqp::CallbackSink>(
          [&d](const Element& e) {
            if (e.is_tuple()) d.Add(RowHash(*e.tuple()));
          }));
      (*cq)->AttachSink(sinks.back().get());
      plans.push_back(std::move(*cq));
    }
    const uint64_t t0 = NowNs();
    for (const TupleRef& t : in) {
      Element e(t);
      for (auto& p : plans) {
        for (int i = 0; i < p->num_inputs(); ++i) p->Push(e, i);
      }
    }
    for (auto& p : plans) p->Finish();
    runs.push_back(static_cast<double>(NowNs() - t0) /
                   static_cast<double>(in.size()));
  }
  return Median(runs);
}

struct FanoutProbe {
  double submit_ms = 0.0;  // Submit time of the 203 queries, per set-up.
  double ingest_ns = 0.0;  // Ingest into a stream no query reads.
};

/// The engine's per-tuple fan-out cost: 200 idle queries on a second
/// stream plus the hot queries are registered, then tuples are ingested
/// into a third stream that no query reads.
FanoutProbe EngineFanoutProbe(size_t n) {
  FanoutProbe p;
  std::vector<TupleRef> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(sqp::MakeTuple(static_cast<int64_t>(i),
                                  {sqp::Value(static_cast<int64_t>(i)),
                                   sqp::Value(static_cast<int64_t>(i))}));
  }
  std::vector<double> submit, ingest;
  for (int rep = 0; rep < 3; ++rep) {
    StreamEngine engine;
    (void)engine.RegisterStream("packets", sqp::gen::PacketSchema());
    (void)engine.RegisterStream("idle", IdleSchema());
    (void)engine.RegisterStream("void", IdleSchema());
    uint64_t t0 = NowNs();
    for (int k = 0; k < kIdleQueries; ++k) {
      sqp::SubmitOptions so;
      so.collect = false;
      (void)engine.Submit(
          "select ts, v from idle where v = " + std::to_string(k), so);
    }
    for (const QueryDef& q : HotQueries()) {
      sqp::SubmitOptions so;
      so.collect = false;
      (void)engine.Submit(q.cql, so);
    }
    submit.push_back(Seconds(t0, NowNs()) * 1e3);
    t0 = NowNs();
    for (const TupleRef& t : rows) (void)engine.Ingest("void", t);
    ingest.push_back(static_cast<double>(NowNs() - t0) /
                     static_cast<double>(n));
  }
  p.submit_ms = Median(submit);
  p.ingest_ns = Median(ingest);
  return p;
}

struct DurProbe {
  double append_ns = 0.0;
  double flush_ms = 0.0;
  double bytes_per_tuple = 0.0;
  double checkpoint_ms = 0.0;
  double recover_s = 0.0;
  double replayed_tuples = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// DurabilityManager::Append on a standalone manager with the same
/// records, and an explicit Flush every 4096 appends.
DurProbe DurabilityProbe(const std::vector<TupleRef>& in,
                         const std::string& dir) {
  DurProbe p;
  std::vector<double> append, flush;
  for (int rep = 0; rep < 3; ++rep) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    sqp::dur::DurabilityOptions opts;
    opts.flush_interval_ms = 3600 * 1000;  // Flush only when asked.
    sqp::dur::DurabilityManager m(dir, opts, nullptr);
    if (!m.Open().ok()) return p;
    uint64_t append_ns = 0, flush_ns = 0, flushes = 0;
    for (size_t i = 0; i < in.size(); i += 4096) {
      const size_t end = std::min(in.size(), i + 4096);
      uint64_t t0 = NowNs();
      for (size_t j = i; j < end; ++j) (void)m.Append("packets", Element(in[j]));
      append_ns += NowNs() - t0;
      t0 = NowNs();
      (void)m.Flush();
      flush_ns += NowNs() - t0;
      flushes += 1;
    }
    append.push_back(static_cast<double>(append_ns) /
                     static_cast<double>(in.size()));
    flush.push_back(static_cast<double>(flush_ns) / 1e6 /
                    static_cast<double>(flushes));
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  p.append_ns = Median(append);
  p.flush_ms = Median(flush);

  // The hot queries on the archive (group commit, no fsync, periodic
  // checkpoints): ingest half the slice, checkpoint and shut down,
  // restart a fresh engine over the same archive, ingest the rest.
  // Checked against the serial reference like every round.
  WorkloadDef def;
  def.name = "durable";
  def.queries = HotQueries();
  def.durable = true;
  const Reference ref = ComputeReference(def.queries, in);
  EngineSystem sys(def);
  for (int rep = 0; rep < 3; ++rep) {
    sys.set_archive_dir(dir + "-" + std::to_string(rep));
    RoundResult rr = RunRound(sys, def, in, nullptr, ref, 0);
    for (const Digest& d : ref.digest) p.attempted += d.count;
    p.attempted += in.size();
    std::string why;
    p.failed += rr.ingest_failed +
                (rr.status.ok() ? CheckRound(sys, ref, true, &why) : 1);
    if (!why.empty()) std::fprintf(stderr, "durable probe: %s\n", why.c_str());
    sys.Teardown();
  }
  p.bytes_per_tuple = Median(sys.samples["bytes_per_tuple"]);
  p.checkpoint_ms = Median(sys.samples["checkpoint_ms"]);
  p.recover_s = Median(sys.samples["recover_s"]);
  p.replayed_tuples = Median(sys.samples["replayed_tuples"]);
  return p;
}

struct ServerProbe {
  double json_ns = 0.0;
  double queue_ns = 0.0;
};

/// server::RowJson and ResultQueue Push+Ack, called directly on the
/// serve workload's select rows.
ServerProbe ServerLayerProbe(const std::vector<TupleRef>& in) {
  ServerProbe p;
  sqp::cql::Catalog cat;
  (void)cat.Register("packets", sqp::gen::PacketSchema());
  auto cq = sqp::cql::Compile(kServeSelect, cat);
  if (!cq.ok()) return p;
  sqp::CollectorSink sink;
  (*cq)->AttachSink(&sink);
  for (const TupleRef& t : in) (*cq)->Push(Element(t));
  (*cq)->Finish();
  const std::vector<TupleRef>& rows = sink.tuples();
  if (rows.empty()) return p;
  std::vector<double> json, queue;
  for (int rep = 0; rep < 3; ++rep) {
    size_t bytes = 0;
    uint64_t t0 = NowNs();
    for (const TupleRef& t : rows) bytes += sqp::server::RowJson(*t).size();
    json.push_back(static_cast<double>(NowNs() - t0) /
                   static_cast<double>(rows.size()));
    if (bytes == 0) return p;
    sqp::server::ResultQueueOptions qo;
    qo.limit = 1024;
    sqp::server::ResultQueue q(qo);
    t0 = NowNs();
    for (size_t i = 0; i < rows.size(); ++i) {
      (void)q.Push(rows[i]);
      if ((i + 1) % 256 == 0) q.Ack(q.next_seq());
    }
    q.Ack(q.next_seq());
    queue.push_back(static_cast<double>(NowNs() - t0) /
                    static_cast<double>(rows.size()));
  }
  p.json_ns = Median(json);
  p.queue_ns = Median(queue);
  return p;
}

// ---------------------------------------------------------------------
// Traced-round analysis

struct TraceTotals {
  uint64_t elements = 0;
  uint64_t root_ns = 0;
  uint64_t root_self_ns = 0;
  uint64_t layer_ns[kNumLayers] = {};
  uint64_t ingest_calls = 0;
  uint64_t ingest_ns = 0;
};

/// Adds one traced round's main-thread spans: self time per layer
/// below the round's root spans, plus the Ingest calls' own durations.
void AddTracedRound(const std::vector<Span>& spans, uint32_t main_thread,
                    Layer ingest_layer, uint64_t elements, TraceTotals* t) {
  SelfTimes st = ComputeSelfTimes(spans, main_thread);
  t->elements += elements;
  t->root_ns += st.root_ns;
  t->root_self_ns += st.root_self_ns;
  for (int l = 0; l < kNumLayers; ++l) t->layer_ns[l] += st.layer_ns[l];
  for (const Span& s : spans) {
    if (s.thread == main_thread && s.parent >= 0 && s.layer == ingest_layer &&
        s.request != kFinishRequest) {
      t->ingest_calls += 1;
      t->ingest_ns += s.end_ns - s.start_ns;
    }
  }
}

// ---------------------------------------------------------------------
// JSON helpers

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

}  // namespace

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadDef& d : Definitions()) names.push_back(d.name);
  return names;
}

RunResult RunWorkload(const Options& o) {
  RunResult res;
  WorkloadDef def;
  bool found = false;
  for (const WorkloadDef& d : Definitions()) {
    if (d.name == o.workload) {
      def = d;
      found = true;
    }
  }
  if (!found) {
    res.error = "unknown workload '" + o.workload + "'";
    return res;
  }
  if (o.quick) def.input_tuples /= 20;
  if (o.offered_rate > 0) def.offered_rate = o.offered_rate;
  const uint64_t run_t0 = NowNs();

  // Input first, before any clock; the memory baseline follows it.
  const std::vector<TupleRef> input = MakeInput(o.seed, def.input_tuples);

  std::unique_ptr<System> sys;
  if (def.serve) {
    sys = std::make_unique<ServeSystem>(def);
  } else {
    sys = std::make_unique<EngineSystem>(def);
  }
  std::filesystem::create_directories(o.workdir);

  // Open-loop rounds offer a prefix of the input at the fixed rate, for
  // a fixed time each; they alternate with closed-loop rounds so both
  // see the same host conditions.
  const size_t open_n = std::min(
      input.size(),
      static_cast<size_t>(def.offered_rate * (o.quick ? 0.05 : kOpenRoundS)));
  const std::vector<TupleRef> open_input(
      input.begin(), input.begin() + static_cast<long>(open_n));

  // References are computed before any clock starts, so every round can
  // be checked; the memory baseline is taken after them and the input,
  // with freed heap returned to the system.
  Reference ref = ComputeReference(def.queries, input);
  Reference open_ref = ComputeReference(def.queries, open_input);
  if (o.corrupt_ref) {
    ref.digest[0].sum ^= 1;
    open_ref.digest[0].sum ^= 1;
  }
  ::malloc_trim(0);
  const uint64_t rss_base = RssBytes();

  uint64_t round_id = 0;
  uint64_t peak_rss = rss_base;
  std::string first_error;
  auto account = [&](const RoundResult& rr, const std::vector<TupleRef>& in,
                     const Reference& r) {
    uint64_t rows_expected = 0;
    for (const Digest& d : r.digest) rows_expected += d.count;
    res.attempted += in.size() + rows_expected;
    res.failed += rr.ingest_failed;
    if (!rr.status.ok()) {
      res.failed += rows_expected;
      if (first_error.empty()) first_error = rr.status.ToString();
      return;
    }
    std::string why;
    res.failed += CheckRound(*sys, r, /*durable=*/false, &why);
    if (first_error.empty() && !why.empty()) first_error = why;
    peak_rss = std::max(peak_rss, rr.rss_bytes);
  };
  auto one_round = [&](const std::vector<TupleRef>& in, const Reference& r,
                       OpenLoop* ol) {
    RoundResult rr = RunRound(*sys, def, in, ol, r, ++round_id);
    account(rr, in, r);
    sys->Teardown();
    return rr;
  };

  Tracer& tracer = Tracer::Get();
  const uint32_t main_thread = ThreadIndex();
  TraceTotals totals;
  std::vector<double> tps, tps_traced, setup_s, round_p50_ms;
  std::vector<uint64_t> state_bytes, latency_ns, late_ns;
  std::vector<SchedStats> sched;
  double closed_s = 0.0, open_s = 0.0;
  OpenLoop ol;
  ol.period_ns = 1e9 / def.offered_rate;
  ol.n = open_input.size();

  // Each cycle: a closed-loop round, a traced one (traced runs only), and
  // an open-loop round. Rounds repeat until --seconds is used up.
  const int min_cycles = o.quick ? 1 : 5;
  const uint64_t run_start = NowNs();
  for (int cycle = 0;
       cycle < min_cycles || Seconds(run_start, NowNs()) < o.seconds;
       ++cycle) {
    uint64_t t0 = NowNs();
    RoundResult rr = one_round(input, ref, nullptr);
    if (!rr.status.ok()) break;
    tps.push_back(static_cast<double>(input.size()) / rr.ingest_s);
    setup_s.push_back(rr.setup_s);
    state_bytes.push_back(rr.state_bytes);
    sched.push_back(rr.sched);

    if (o.trace) {
      // Same work with spans on, analysed round by round so the span
      // buffers hold one round at a time.
      tracer.Clear();
      tracer.Enable(true);
      RoundResult tr = one_round(input, ref, nullptr);
      tracer.Enable(false);
      if (!tr.status.ok()) break;
      tps_traced.push_back(static_cast<double>(input.size()) / tr.ingest_s);
      AddTracedRound(tracer.Collect(), main_thread, def.ingest_layer, input.size(),
                     &totals);
    }
    closed_s += Seconds(t0, NowNs());

    t0 = NowNs();
    RoundResult orr = one_round(open_input, open_ref, &ol);
    open_s += Seconds(t0, NowNs());
    if (!orr.status.ok()) break;
    std::vector<uint64_t> round_lat;
    for (auto& c : sys->consumers) {
      round_lat.insert(round_lat.end(), c->latency_ns.begin(),
                       c->latency_ns.end());
    }
    latency_ns.insert(latency_ns.end(), round_lat.begin(), round_lat.end());
    late_ns.insert(late_ns.end(), orr.late_ns.begin(), orr.late_ns.end());
    round_p50_ms.push_back(Percentile(round_lat, 0.50) / 1e6);
  }
  {
    // Per-round figures behind the medians, for whoever reads stderr.
    std::string line = "rounds: tps";
    for (double v : tps) line += " " + std::to_string(static_cast<int64_t>(v));
    line += " | p50_us";
    for (double v : round_p50_ms) line += " " + std::to_string(v * 1e3);
    std::fprintf(stderr, "%s\n", line.c_str());
  }

  res.attempted += sys->http_attempted.load();
  res.failed += sys->http_failed.load();
  res.correct = res.failed == 0 && !tps.empty() && !round_p50_ms.empty();
  if (!first_error.empty()) {
    std::fprintf(stderr, "correctness: %s\n", first_error.c_str());
  }

  const size_t lat_samples = latency_ns.size();
  const size_t late_samples = late_ns.size();
  // p50: median over open-loop rounds of each round's p50, so one
  // round hit by a host stall does not move it; the tail is pooled.
  const double p50_ms = Median(round_p50_ms);
  const double p99_ms = Percentile(latency_ns, 0.99) / 1e6;
  const double late_p99_ms = Percentile(late_ns, 0.99) / 1e6;
  const double ok_ratio =
      res.attempted == 0 ? 0.0
                         : 1.0 - static_cast<double>(res.failed) /
                                     static_cast<double>(res.attempted);

  double probe_s = 0.0;
  if (!o.trace) {
    res.metrics.push_back({"throughput_tps", Median(tps), "1/s"});
    res.metrics.push_back({"latency_p50_ms", p50_ms, "ms"});
    res.metrics.push_back({"setup_s", Median(setup_s), "s"});
    res.metrics.push_back(
        {"mem_mb",
         static_cast<double>(peak_rss > rss_base ? peak_rss - rss_base
                                                     : 0) /
             (1024.0 * 1024.0),
         "MB"});
    res.metrics.push_back({"ok_ratio", ok_ratio, "ratio"});
  } else {
    const uint64_t probe_t0 = NowNs();
    const size_t probe_n = std::min<size_t>(input.size(), 50000);
    const std::vector<TupleRef> slice(input.begin(),
                                      input.begin() + static_cast<long>(probe_n));
    const double chain_ns = ChainProbeNs(def, slice);
    const FanoutProbe fp = EngineFanoutProbe(probe_n);
    const DurProbe dp = DurabilityProbe(slice, o.workdir + "/durprobe");
    res.attempted += dp.attempted;
    res.failed += dp.failed;
    res.correct = res.correct && dp.failed == 0;
    const ServerProbe sp = ServerLayerProbe(slice);
    probe_s = Seconds(probe_t0, NowNs());

    // Split each Ingest call's self time: the plan work measured by the
    // chain probe is exec's, and the rest stays with the layer the call
    // was charged to. Parallel ingest only enqueues (the plan runs on the
    // workers), so nothing moves there.
    double self_ns[kNumLayers];
    for (int l = 0; l < kNumLayers; ++l) {
      self_ns[l] = static_cast<double>(totals.layer_ns[l]);
    }
    const double calls = static_cast<double>(totals.ingest_calls);
    auto move = [&](Layer to, double ns_per_call) {
      double& from = self_ns[static_cast<int>(def.ingest_layer)];
      const double amount = std::min(from, ns_per_call * calls);
      from -= amount;
      self_ns[static_cast<int>(to)] += amount;
    };
    if (!def.parallel) move(Layer::kExec, chain_ns);
    self_ns[static_cast<int>(Layer::kBench)] +=
        static_cast<double>(totals.root_self_ns);

    const double elems = std::max<double>(1.0, static_cast<double>(totals.elements));
    double covered = 0.0;
    for (int l = 0; l < kNumLayers; ++l) {
      if (l != static_cast<int>(Layer::kBench)) covered += self_ns[l];
    }
    covered += static_cast<double>(totals.layer_ns[static_cast<int>(Layer::kBench)]);
    const double coverage =
        totals.root_ns == 0 ? 0.0 : covered / static_cast<double>(totals.root_ns);
    const double overhead_pct =
        tps.empty() || tps_traced.empty()
            ? 0.0
            : (Median(tps) - Median(tps_traced)) / Median(tps) * 100.0;

    auto S = [&](const char* key) -> const std::vector<double>& {
      static const std::vector<double> kEmpty;
      auto it = sys->samples.find(key);
      return it == sys->samples.end() ? kEmpty : it->second;
    };
    const double ingest_ns =
        totals.ingest_calls == 0
            ? 0.0
            : static_cast<double>(totals.ingest_ns) / calls;
    auto& m = res.metrics;
    m.push_back({"cql.submit_ms", fp.submit_ms, "ms"});
    m.push_back({"arch.ingest_ns", ingest_ns, "ns"});
    m.push_back({"arch.fanout_ns", fp.ingest_ns, "ns"});
    m.push_back({"exec.chain_ns", chain_ns, "ns"});
    for (int r : {kSelectRole, kGroupByRole}) {
      double rows = 0.0;
      for (size_t q = 0; q < def.queries.size(); ++q) {
        if (def.queries[q].role == r) rows += static_cast<double>(ref.digest[q].count);
      }
      m.push_back({std::string("exec.rows_out.") + kRoleNames[r], rows, "count"});
    }
    std::vector<double> sb(state_bytes.begin(), state_bytes.end());
    m.push_back({"exec.state_bytes", Median(sb), "B"});

    auto sched_median = [&](double SchedStats::*field) {
      std::vector<double> v;
      for (const SchedStats& st : sched) v.push_back(st.*field);
      return Median(v);
    };
    double dropped = 0.0;
    for (const SchedStats& st : sched) dropped += st.dropped;
    m.push_back({"sched.enqueue_ns", def.parallel ? ingest_ns : 0.0, "ns"});
    m.push_back({"sched.batch_mean", sched_median(&SchedStats::batch_mean),
                 "count"});
    m.push_back({"sched.max_depth", sched_median(&SchedStats::max_depth),
                 "count"});
    m.push_back({"sched.busy_frac", sched_median(&SchedStats::busy_frac),
                 "ratio"});
    m.push_back({"sched.dropped", dropped, "count"});

    m.push_back({"dur.append_ns", dp.append_ns, "ns"});
    m.push_back({"dur.flush_ms", dp.flush_ms, "ms"});
    m.push_back({"dur.bytes_per_tuple", dp.bytes_per_tuple, "B"});
    m.push_back({"dur.checkpoint_ms", dp.checkpoint_ms, "ms"});
    m.push_back({"dur.recover_s", dp.recover_s, "s"});
    m.push_back({"dur.replayed_tuples", dp.replayed_tuples, "count"});

    double polls = 0, rows = 0, bytes = 0, parse = 0, poll_ns = 0;
    for (double v : S("polls")) polls += v;
    for (double v : S("rows")) rows += v;
    for (double v : S("body_bytes")) bytes += v;
    for (double v : S("parse_ns")) parse += v;
    for (double v : S("poll_ns")) poll_ns += v;
    m.push_back({"server.submit_ms", Median(S("post_ns")) / 1e6, "ms"});
    m.push_back({"server.ingest_ns", def.serve ? ingest_ns : 0.0, "ns"});
    m.push_back({"server.poll_ms", polls == 0 ? 0.0 : poll_ns / polls / 1e6, "ms"});
    m.push_back({"server.rows_per_poll", polls == 0 ? 0.0 : rows / polls, "count"});
    m.push_back({"server.bytes_per_row", rows == 0 ? 0.0 : bytes / rows, "B"});
    m.push_back({"server.json_ns", sp.json_ns, "ns"});
    m.push_back({"server.queue_ns", sp.queue_ns, "ns"});
    m.push_back({"server.client_parse_ns", rows == 0 ? 0.0 : parse / rows, "ns"});

    m.push_back({"e2e.latency_p99_ms", p99_ms, "ms"});
    m.push_back({"e2e.latency_samples", static_cast<double>(lat_samples), "count"});
    m.push_back({"gen.late_p99_ms", late_p99_ms, "ms"});
    m.push_back({"trace.overhead_pct", overhead_pct, "%"});
    m.push_back({"layers.coverage", coverage, "ratio"});
    for (Layer l :
         {Layer::kBench, Layer::kExec, Layer::kSched, Layer::kServer}) {
      m.push_back({std::string("self.") + LayerName(l) + "_ns",
                   self_ns[static_cast<int>(l)] / elems, "ns"});
    }

    // The last traced round's spans are still in memory; write them out
    // now that the run is over.
    const std::string path =
        o.workdir + "/spans-" + def.name + "-" + std::to_string(o.seed) + ".csv";
    if (!tracer.WriteCsv(path, 50000)) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
    }
  }

  std::ostringstream pv;
  pv << "{\"commit\":\"" << JsonEscape(o.commit) << "\""
     << ",\"source_digest\":\"" << JsonEscape(o.source_digest) << "\""
     << ",\"compiler\":\"" << JsonEscape(PERFBENCH_COMPILER) << "\""
     << ",\"build_type\":\"" << JsonEscape(PERFBENCH_BUILD_TYPE) << "\""
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"workload\":\"" << def.name << "\""
     << ",\"seed\":" << o.seed << ",\"trace\":" << (o.trace ? 1 : 0)
     << ",\"input_tuples\":" << input.size()
     << ",\"closed_rounds\":" << tps.size()
     << ",\"traced_rounds\":" << tps_traced.size()
     << ",\"open_rounds\":" << round_p50_ms.size()
     << ",\"open_round_tuples\":" << open_input.size()
     << ",\"offered_rate_tps\":" << def.offered_rate
     << ",\"phase_s\":{\"closed\":" << closed_s << ",\"open\":" << open_s
     << ",\"probes\":" << probe_s
     << ",\"total\":" << Seconds(run_t0, NowNs()) << "}"
     << ",\"latency_samples\":" << lat_samples
     << ",\"late_samples\":" << late_samples
     << ",\"setup_samples\":" << setup_s.size()
     << ",\"rss_baseline_mb\":"
     << static_cast<double>(rss_base) / (1024.0 * 1024.0)
     << ",\"failed\":" << res.failed << ",\"attempted\":" << res.attempted
     << "}";
  res.provenance_json = pv.str();
  return res;
}

}  // namespace perfbench
