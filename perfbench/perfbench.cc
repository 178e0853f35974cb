// Self-checking benchmark of the sharding middleware (see README.md).
//
// One process runs one workload over 4 storage nodes x 4 tables = 16 shards
// (MOD(id)), with a zero-latency network, no storage delay and no IO-slot
// cap, so every measured microsecond is the program's own CPU or real
// waiting. Clients run a closed loop of fixed rounds of operations; each
// operation's answer is checked against a model kept by the benchmark, and
// after the run every physical table is read straight from its node and
// audited against the same model.
//
//   perfbench --workload point_rw|scatter_agg|proxy_xa_transfer --seed N
//             --seconds S [--trace-out FILE] [--plant]
//
// Without --trace-out the run reports the end-to-end metrics. With it, the
// run is the traced run: a counting half (counter deltas per op) and a span
// half, in which every op is replayed layer by layer (parse, cache lookup,
// route, rewrite, execute, merge) and read units also run directly on a node
// session. Spans are kept in memory and written to FILE at exit.
// --plant corrupts one physical row after loading (the self-check): the run
// must then report a failed op and a failed audit.
//
// The last line of stdout is one JSON report.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adaptor/jdbc.h"
#include "adaptor/proxy.h"
#include "common/arena.h"
#include "common/metrics.h"
#include "core/execute.h"
#include "core/merge.h"
#include "core/rewrite.h"
#include "core/route.h"
#include "engine/pipeline.h"
#include "engine/result_set.h"
#include "engine/storage_node.h"
#include "net/framing.h"
#include "net/packet.h"
#include "sql/parser.h"
#ifdef PERFBENCH_ALLOC_HOOK
#include "bench/alloc_hook.h"
#endif

namespace perfbench {

using sphere::Result;
using sphere::Row;
using sphere::Status;
using sphere::Value;
namespace adaptor = sphere::adaptor;
namespace core = sphere::core;
namespace engine = sphere::engine;
namespace net = sphere::net;

constexpr int kNodes = 4;
constexpr int kShards = 16;
constexpr int kClients = 4;
constexpr int kSetups = 3;
constexpr double kWarmupSeconds = 1.0;
constexpr size_t kSpanCapPerClient = 50000;
// The measured window is cut into slices, taken in order of the CPU time
// the host stole from this machine during them (/proc/stat `steal`): on a
// shared host, stolen time stalls threads that hand work to each other and
// swamps the program's own cost. Throughput and CPU per op pool the
// kQuietSlices quietest slices. Each latency percentile is the median over
// groups of consecutive quiet slices holding kGroupSamples ops each (so a
// p99 has 10 samples beyond it), taking slices until there are kMinGroups
// groups: one burst of stolen time then moves one group, not the figure.
constexpr int kSlices = 40;
constexpr int kQuietSlices = 10;
constexpr uint64_t kGroupSamples = 1000;
constexpr size_t kMinGroups = 5;
// Latency samples kept per client, slice and op class (reservoir sampling).
constexpr size_t kReservoir = 4096;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t AllocCount() {
#ifdef PERFBENCH_ALLOC_HOOK
  return sphere::bench::AllocationCount();
#else
  return 0;
#endif
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// Host CPU time stolen from this machine (all CPUs), in clock ticks: the
// `steal` column of /proc/stat. Reported next to the figures it disturbs.
int64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  int64_t v[8] = {0};
  in >> cpu;
  for (int64_t& x : v) in >> x;
  return v[7];
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// SplitMix64: the benchmark's own generator, so inputs depend on --seed only.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  int64_t Uniform(int64_t lo, int64_t hi) {  // inclusive
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  std::string Text(size_t n) {
    static const char kAlpha[] = "abcdefghijklmnopqrstuvwxyz0123456789";
    std::string s(n, 'x');
    for (char& ch : s) ch = kAlpha[Next() % 36];
    return s;
  }

 private:
  uint64_t s_;
};

// Uniform sample of a stream of latencies. The buffer is allocated and
// touched up front, so peak RSS does not grow with the number of ops.
class Reservoir {
 public:
  Reservoir() : buf_(kReservoir, 0.0) {}
  void Add(double x, Rng& rng) {
    if (seen_ < buf_.size()) {
      buf_[seen_] = x;
    } else {
      uint64_t j = rng.Next() % (seen_ + 1);
      if (j < buf_.size()) buf_[j] = x;
    }
    ++seen_;
  }
  std::vector<double> values() const {
    return {buf_.begin(), buf_.begin() + static_cast<long>(std::min<uint64_t>(seen_, buf_.size()))};
  }
  uint64_t seen() const { return seen_; }

 private:
  std::vector<double> buf_;
  uint64_t seen_ = 0;
};

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ValueText(const Value& v) {
  if (v.is_null()) return "NULL";
  if (v.is_string()) return "'" + v.AsString() + "'";
  if (v.is_int()) return std::to_string(v.AsInt());
  return Num(v.ToDouble());
}

std::string RowText(const Row& r) {
  std::string s = "(";
  for (size_t i = 0; i < r.size(); ++i) {
    if (i) s += ", ";
    s += ValueText(r[i]);
  }
  return s + ")";
}

bool SameNumber(const Value& got, double want) {
  if (!got.is_numeric()) return false;
  double g = got.ToDouble();
  return std::fabs(g - want) <= 1e-9 * std::max(1.0, std::fabs(want));
}

// ---------------------------------------------------------------------------
// Spans (traced run only)
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  int64_t op;
};

// Per-client in-memory span recorder. Spans nest by construction: Open
// pushes, Close pops, so `parent` is the innermost open span.
class Tracer {
 public:
  bool on = false;
  std::vector<Span> spans;

  int32_t Open(const char* name, int64_t op) {
    if (!on || spans.size() >= kSpanCapPerClient) return -1;
    spans.push_back({name, NowNs(), 0, current_, op});
    current_ = static_cast<int32_t>(spans.size() - 1);
    return current_;
  }
  // Returns the span's duration in microseconds (0 when not recorded).
  double Close(int32_t idx) {
    if (idx < 0) return 0;
    Span& s = spans[static_cast<size_t>(idx)];
    s.end_ns = NowNs();
    current_ = s.parent;
    return static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
  }
  // Leaves room for the spans of one op started below the cap.
  bool full() const { return spans.size() + 256 >= kSpanCapPerClient; }

 private:
  int32_t current_ = -1;
};

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

struct Cluster {
  std::vector<std::unique_ptr<engine::StorageNode>> nodes;
  std::unique_ptr<adaptor::ShardingDataSource> ds;
  net::LatencyModel client_net{net::NetworkConfig::Zero()};
  std::unique_ptr<adaptor::ShardingProxy> proxy;

  core::ShardingRuntime* runtime() { return ds->runtime(); }
  engine::StorageNode* NodeOf(const std::string& data_source) {
    for (auto& n : nodes) {
      if (n->name() == data_source) return n.get();
    }
    return nullptr;
  }
};

std::string ShardTable(const std::string& logic, int shard) {
  return logic + "_" + std::to_string(shard);
}

// The layout the audit expects, computed here rather than read from the
// rule: shard k of MOD(id) lives in table <logic>_k on node ds_{k % 4}.
int ShardOf(int64_t id) { return static_cast<int>(id % kShards); }
int NodeOfShard(int shard) { return shard % kNodes; }

Result<std::unique_ptr<Cluster>> BuildCluster(const std::string& logic,
                                              const std::string& ddl,
                                              bool with_proxy) {
  auto c = std::make_unique<Cluster>();
  c->ds = std::make_unique<adaptor::ShardingDataSource>(
      core::RuntimeConfig(), net::NetworkConfig::Zero());
  std::vector<std::string> names;
  for (int i = 0; i < kNodes; ++i) {
    names.push_back("ds_" + std::to_string(i));
    c->nodes.push_back(std::make_unique<engine::StorageNode>(names.back()));
    Status st = c->ds->AttachNode(names.back(), c->nodes.back().get());
    if (!st.ok()) return st;
  }
  core::ShardingRuleConfig rule;
  rule.default_data_source = "ds_0";
  core::TableRuleConfig t;
  t.logic_table = logic;
  t.auto_resources = names;
  t.auto_sharding_count = kShards;
  t.table_strategy.columns = {"id"};
  t.table_strategy.algorithm_type = "MOD";
  t.table_strategy.props.Set("sharding-count", std::to_string(kShards));
  rule.tables.push_back(t);
  Status st = c->ds->SetRule(rule);
  if (!st.ok()) return st;
  auto conn = c->ds->GetConnection();
  auto r = conn->ExecuteSQL(ddl);
  if (!r.ok()) return r.status();
  if (with_proxy) {
    c->proxy = std::make_unique<adaptor::ShardingProxy>(c->ds.get(),
                                                        &c->client_net);
  }
  return c;
}

// Loads rows through the embedded adaptor in parameterized multi-row
// INSERTs (one cached text per batch size).
Status LoadRows(Cluster* c, const std::string& logic,
                const std::vector<std::string>& cols,
                const std::vector<Row>& rows) {
  constexpr size_t kBatch = 256;
  auto conn = c->ds->GetConnection();
  std::string head = "INSERT INTO " + logic + " (";
  std::string tuple = "(";
  for (size_t i = 0; i < cols.size(); ++i) {
    head += (i ? ", " : "") + cols[i];
    tuple += i ? ", ?" : "?";
  }
  head += ") VALUES ";
  tuple += ")";
  for (size_t at = 0; at < rows.size(); at += kBatch) {
    size_t n = std::min(kBatch, rows.size() - at);
    std::string sql = head;
    std::vector<Value> params;
    params.reserve(n * cols.size());
    for (size_t i = 0; i < n; ++i) {
      sql += (i ? ", " : "") + tuple;
      for (const Value& v : rows[at + i]) params.push_back(v);
    }
    auto r = conn->ExecuteSQL(sql, std::move(params));
    if (!r.ok()) return r.status();
    if (r->affected_rows != static_cast<int64_t>(n)) {
      return Status::Internal("load: inserted " +
                              std::to_string(r->affected_rows) + " of " +
                              std::to_string(n) + " rows");
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Answers and the layer-by-layer replay
// ---------------------------------------------------------------------------

struct Answer {
  Status status;
  bool is_query = false;
  int64_t affected = 0;
  std::vector<std::string> columns;
  std::vector<Row> rows;
};

Answer FromResult(Result<engine::ExecResult> r) {
  Answer a;
  if (!r.ok()) {
    a.status = r.status();
    return a;
  }
  a.is_query = r->is_query;
  if (a.is_query) {
    a.columns = r->result_set->columns();
    a.rows = engine::DrainResultSet(r->result_set.get());
  } else {
    a.affected = r->affected_rows;
  }
  return a;
}

// Forwards a unit's cursor to the merger and counts the rows it pulls.
class CountingResultSet : public engine::ResultSet {
 public:
  CountingResultSet(engine::ResultSetPtr inner, int64_t* pulled)
      : inner_(std::move(inner)), pulled_(pulled) {}
  const std::vector<std::string>& columns() const override {
    return inner_->columns();
  }
  bool Next(Row* row) override {
    bool more = inner_->Next(row);
    if (more) ++*pulled_;
    return more;
  }
  size_t NextBatch(std::vector<Row>* out, size_t max) override {
    size_t n = inner_->NextBatch(out, max);
    *pulled_ += static_cast<int64_t>(n);
    return n;
  }

 private:
  engine::ResultSetPtr inner_;
  int64_t* pulled_;
};

// Samples of one traced run, per client; merged at the end.
struct LayerSamples {
  std::map<std::string, std::vector<double>> us;  // per-layer durations
  std::vector<double> units_per_stmt;
  std::vector<double> rows_per_unit;
  std::vector<double> participants;
  int64_t rows_pulled = 0;
  int64_t rows_returned = 0;

  void Merge(const LayerSamples& o) {
    for (const auto& [k, v] : o.us) us[k].insert(us[k].end(), v.begin(), v.end());
    units_per_stmt.insert(units_per_stmt.end(), o.units_per_stmt.begin(),
                          o.units_per_stmt.end());
    rows_per_unit.insert(rows_per_unit.end(), o.rows_per_unit.begin(),
                         o.rows_per_unit.end());
    participants.insert(participants.end(), o.participants.begin(),
                        o.participants.end());
    rows_pulled += o.rows_pulled;
    rows_returned += o.rows_returned;
  }
};

// Calls each layer's public entry point in pipeline order, timing each call
// in its own span. Reads are replayed in full (they change nothing); writes
// stop after rewrite, so no write is applied twice.
class Replayer {
 public:
  Replayer(Cluster* c, Tracer* tracer, LayerSamples* samples)
      : c_(c), tracer_(tracer), samples_(samples),
        executor_(c->runtime()->data_sources(),
                  c->runtime()->max_connections_per_query()) {
    for (auto& n : c->nodes) sessions_[n->name()] = n->OpenSession();
  }

  double Time(const char* name, int64_t op, const std::function<void()>& fn) {
    int32_t s = tracer_->Open(name, op);
    fn();
    double us = tracer_->Close(s);
    samples_->us[name].push_back(us);
    return us;
  }

  // Returns the replayed answer's rows (reads) for a cross-check.
  Answer Replay(std::string_view sql, const std::vector<Value>& params,
                bool is_read, int64_t op) {
    Answer out;
    core::ShardingRuntime* rt = c_->runtime();
    int32_t root = tracer_->Open("replay", op);
    Time("sql.parse", op, [&] {
      sphere::sql::Parser parser(rt->dialect());
      auto parsed = parser.Parse(sql);
      if (!parsed.ok()) out.status = parsed.status();
    });
    std::shared_ptr<const core::StatementPlan> plan;
    Time("core.cache.lookup", op, [&] {
      auto p = rt->GetOrParse(sql);
      if (p.ok()) plan = *p;
      else out.status = p.status();
    });
    if (plan == nullptr) {
      tracer_->Close(root);
      return out;
    }
    sphere::ArenaScope arena(engine::PipelineConfig::arena_statements_enabled());
    core::RouteResult route;
    Time("core.route", op, [&] {
      auto r = core::RouteEngine(rt->rule()).Route(plan->stmt(), params);
      if (r.ok()) route = std::move(*r);
      else out.status = r.status();
    });
    core::RewriteResult rewritten;
    if (out.status.ok()) {
      Time("core.rewrite", op, [&] {
        auto r = core::RewriteEngine(rt->dialect())
                     .Rewrite(plan->stmt(), route, params);
        if (r.ok()) rewritten = std::move(*r);
        else out.status = r.status();
      });
    }
    if (!is_read || !out.status.ok()) {
      tracer_->Close(root);
      return out;
    }
    samples_->units_per_stmt.push_back(
        static_cast<double>(route.units.size()));
    core::ExecutionOutcome outcome;
    double exec_us = Time("core.execute", op, [&] {
      auto r = executor_.Execute(rewritten.units, nullptr, nullptr);
      if (r.ok()) outcome = std::move(*r);
      else out.status = r.status();
    });
    if (!out.status.ok()) {
      tracer_->Close(root);
      return out;
    }
    int64_t pulled = 0;
    Time("core.merge", op, [&] {
      for (auto& res : outcome.results) {
        if (res.is_query) {
          res.result_set = std::make_unique<CountingResultSet>(
              std::move(res.result_set), &pulled);
        }
      }
      out = FromResult(core::MergeEngine().Merge(std::move(outcome.results),
                                                 rewritten.merge));
    });
    tracer_->Close(root);
    samples_->rows_pulled += pulled;
    samples_->rows_returned += static_cast<int64_t>(out.rows.size());

    // Each read unit once more, straight on its node's session: the node's
    // own time, without the executor's dispatch around it.
    double slowest = 0;
    int32_t direct = tracer_->Open("node_direct", op);
    for (const core::SQLUnit& unit : rewritten.units) {
      auto it = sessions_.find(unit.data_source);
      if (it == sessions_.end()) continue;
      size_t rows = 0;
      double us = Time("engine.node_execute", op, [&] {
        Answer a = FromResult(
            it->second->Execute(unit.RenderSQL(rt->dialect()), unit.params));
        rows = a.rows.size();
      });
      slowest = std::max(slowest, us);
      samples_->rows_per_unit.push_back(static_cast<double>(rows));
    }
    tracer_->Close(direct);
    samples_->us["core.execute.dispatch"].push_back(exec_us - slowest);
    return out;
  }

 private:
  Cluster* c_;
  Tracer* tracer_;
  LayerSamples* samples_;
  core::ExecutionEngine executor_;
  std::map<std::string, std::unique_ptr<engine::StorageNode::Session>> sessions_;
};

// ---------------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------------

enum Phase : int { kWarmup = 0, kWindow = 1, kSpans = 2, kStop = 3 };

struct OpCount {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string first_error;
};

class Client {
 public:
  Client(Cluster* c, int index, uint64_t seed, bool traced)
      : cluster_(c), index_(index), rng_(seed * 1000003 + index * 7919 + 17),
        conn_(c->ds->GetConnection()) {
    if (traced) {
      tracer_.spans.reserve(kSpanCapPerClient);
      replayer_ = std::make_unique<Replayer>(c, &tracer_, &samples_);
    }
  }
  virtual ~Client() = default;

  // One round: the same fixed sequence of op kinds every time.
  virtual void Round() = 0;

  // `window_start` is stored before the phase moves to kWindow.
  void Run(const std::atomic<int>& phase, const std::atomic<int64_t>& window_start,
           int64_t slice_ns) {
    slice_ns_ = slice_ns;
    for (;;) {
      int p = phase.load(std::memory_order_acquire);
      if (p == kStop) break;
      phase_ = p;
      window_start_ = window_start.load(std::memory_order_relaxed);
      tracer_.on = p == kSpans;
      Round();
      if (p != kWarmup) {
        ++rounds_;
        if (p == kWindow) window_ops_.fetch_add(ops_this_round_, std::memory_order_relaxed);
      }
      ops_this_round_ = 0;
    }
  }

  std::map<std::string, OpCount> counts;
  // Per slice of the measured window: latency samples and ops completed.
  std::vector<Reservoir> read_us{kSlices}, write_us{kSlices};
  std::vector<int64_t> slice_ops = std::vector<int64_t>(kSlices, 0);
  Tracer tracer_;
  LayerSamples samples_;
  int64_t window_ops() const { return window_ops_.load(std::memory_order_relaxed); }
  int64_t rounds() const { return rounds_; }

 protected:
  bool traced_phase() const {
    return phase_ == kSpans && replayer_ != nullptr && !tracer_.full();
  }

  // Records one finished op. `why` empty = the answer matched the model.
  void Record(const char* kind, bool is_write, int64_t ns,
              const std::string& why) {
    ++ops_this_round_;
    if (phase_ == kWarmup) return;
    OpCount& oc = counts[kind];
    ++oc.attempted;
    if (!why.empty()) {
      ++oc.failed;
      if (oc.first_error.empty()) oc.first_error = why;
    }
    if (phase_ == kWindow) {
      int64_t slice = slice_ns_ > 0 ? (NowNs() - window_start_) / slice_ns_ : 0;
      size_t i = static_cast<size_t>(std::clamp<int64_t>(slice, 0, kSlices - 1));
      (is_write ? write_us : read_us)[i].Add(static_cast<double>(ns) / 1000.0,
                                             sample_rng_);
      ++slice_ops[i];
    }
  }

  int64_t NextOpId() { return (static_cast<int64_t>(index_) << 40) | ++op_seq_; }

  // A statement through the embedded adaptor; in the span phase it is
  // wrapped in an adaptor.jdbc.execute span and then replayed layer by layer.
  Answer Jdbc(std::string_view sql, std::vector<Value> params, bool is_read,
              int64_t op, int64_t* ns) {
    int32_t s = tracer_.Open("adaptor.jdbc.execute", op);
    int64_t t0 = NowNs();
    Answer a = FromResult(conn_->ExecuteSQL(sql, params));
    *ns += NowNs() - t0;
    double us = tracer_.Close(s);
    if (traced_phase()) {
      if (is_read) samples_.us["adaptor.jdbc.execute"].push_back(us);
      Answer again = replayer_->Replay(sql, params, is_read, op);
      if (is_read && a.status.ok() &&
          (!again.status.ok() || again.rows != a.rows)) {
        replay_mismatch_ = true;
      }
      Codec(sql, params, a, op);
    }
    return a;
  }

  // Times the wire codec on this statement and its answer: what the proxy
  // front end would encode, frame and decode for it.
  void Codec(std::string_view sql, const std::vector<Value>& params,
             const Answer& a, int64_t op) {
    engine::ExecResult result =
        a.is_query ? engine::ExecResult::Query(
                         std::make_unique<engine::VectorResultSet>(a.columns, a.rows))
                   : engine::ExecResult::Update(a.affected);
    int32_t s = tracer_.Open("net.codec", op);
    std::string req = net::EncodeQuery(sql, params);
    std::string framed = net::FramePacket(req);
    auto decoded = net::DecodeRequest(req);
    std::string resp = net::EncodeExecResult(&result);
    std::string framed_resp = net::FramePacket(resp);
    auto back = net::DecodeResponse(resp);
    double us = tracer_.Close(s);
    samples_.us["net.codec"].push_back(us);
    (void)decoded;
    (void)back;
    (void)framed;
    (void)framed_resp;
  }

  Cluster* cluster_;
  const int index_;
  Rng rng_;
  std::unique_ptr<adaptor::ShardingConnection> conn_;
  std::unique_ptr<Replayer> replayer_;
  int phase_ = kWarmup;
  int64_t op_seq_ = 0;
  int64_t ops_this_round_ = 0;
  std::atomic<int64_t> window_ops_{0};
  int64_t rounds_ = 0;
  int64_t window_start_ = 0;
  int64_t slice_ns_ = 0;
  // Separate from rng_, so sampling never changes the generated ops.
  Rng sample_rng_{0x5a3d1e};

 public:
  bool replay_mismatch_ = false;
  // Self-check: the first op of client 0 reads this id (-1 = none).
  int64_t planted_id = -1;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct AuditResult {
  bool ok = true;
  int64_t rows_checked = 0;
  std::vector<std::string> errors;
  void Fail(const std::string& why) {
    ok = false;
    if (errors.size() < 5) errors.push_back(why);
  }
};

// Reads one physical table straight from its node (bypassing the
// middleware) and checks every row's shard.
std::vector<Row> ReadShard(Cluster* c, const std::string& logic, int shard,
                           const std::string& cols, AuditResult* audit) {
  engine::StorageNode* node = c->nodes[static_cast<size_t>(NodeOfShard(shard))].get();
  auto session = node->OpenSession();
  Answer a = FromResult(session->Execute("SELECT " + cols + " FROM " +
                                         ShardTable(logic, shard)));
  if (!a.status.ok()) {
    audit->Fail("read " + ShardTable(logic, shard) + ": " + a.status.ToString());
    return {};
  }
  for (const Row& r : a.rows) {
    int64_t id = r[0].ToInt();
    if (ShardOf(id) != shard) {
      audit->Fail("id " + std::to_string(id) + " sits in shard " +
                  std::to_string(shard) + ", MOD names " +
                  std::to_string(ShardOf(id)));
    }
  }
  return std::move(a.rows);
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string logic() const = 0;
  virtual std::string ddl() const = 0;
  virtual bool with_proxy() const { return false; }
  // Ops of these kinds are known to get wrong answers today.
  virtual std::set<std::string> known_faults() const { return {}; }
  // Regenerates the model from the seed and loads it.
  virtual Status Load(Cluster* c, uint64_t seed) = 0;
  virtual std::unique_ptr<Client> MakeClient(Cluster* c, int index,
                                             uint64_t seed, bool traced) = 0;
  // Self-check: corrupts one physical row; returns its id.
  virtual int64_t Plant(Cluster* c) = 0;
  virtual void Audit(Cluster* c, const std::vector<std::unique_ptr<Client>>& clients,
                     AuditResult* audit) = 0;
};

// Corrupts one column of one row directly on its node.
int64_t PlantValue(Cluster* c, const std::string& logic, int64_t id,
                   const std::string& assignment) {
  int shard = ShardOf(id);
  auto session = c->nodes[static_cast<size_t>(NodeOfShard(shard))]->OpenSession();
  auto r = session->Execute("UPDATE " + ShardTable(logic, shard) + " SET " +
                            assignment + " WHERE id = " + std::to_string(id));
  if (!r.ok() || r->affected_rows != 1) {
    std::fprintf(stderr, "perfbench: plant failed\n");
    std::exit(3);
  }
  return id;
}

// --- point_rw ---------------------------------------------------------------

constexpr int64_t kKvRows = 100000;

struct KvRow {
  int64_t k;
  std::string c;
  std::string pad;
};

KvRow MakeKvRow(Rng& rng) {
  return {rng.Uniform(0, 999999), rng.Text(32), rng.Text(16)};
}

class PointRwClient : public Client {
 public:
  PointRwClient(Cluster* c, int index, uint64_t seed, bool traced,
                std::vector<KvRow> shadow, int64_t first)
      : Client(c, index, seed, traced), shadow_(std::move(shadow)),
        first_(first) {}

  void Round() override {
    // 9 point reads and one of each write kind: 3/4 reads.
    for (int i = 0; i < 12; ++i) {
      switch (i % 4) {
        case 3:
          if (i == 3) UpdateK();
          else if (i == 7) UpdateC();
          else DeleteInsert();
          break;
        default:
          Select();
      }
    }
  }

  const std::vector<KvRow>& shadow() const { return shadow_; }
  int64_t first() const { return first_; }

 private:
  int64_t PickId(bool for_write) {
    for (;;) {
      int64_t id = first_ + rng_.Uniform(0, static_cast<int64_t>(shadow_.size()) - 1);
      if (!for_write || id != planted_id) return id;
    }
  }
  KvRow& Shadow(int64_t id) { return shadow_[static_cast<size_t>(id - first_)]; }

  void Select() {
    int64_t id = planted_id >= 0 && !planted_read_ ? planted_id : PickId(false);
    planted_read_ = true;
    int64_t op = NextOpId(), ns = 0;
    Answer a = Jdbc("SELECT id, k, c, pad FROM t_kv WHERE id = ?", {Value(id)},
                    true, op, &ns);
    std::string why;
    const KvRow& m = Shadow(id);
    Row want = {Value(id), Value(m.k), Value(m.c), Value(m.pad)};
    if (!a.status.ok()) why = a.status.ToString();
    else if (a.rows.size() != 1 || a.rows[0] != want)
      why = "id " + std::to_string(id) + ": got " +
            (a.rows.empty() ? std::string("no row") : RowText(a.rows[0])) +
            ", model " + RowText(want);
    Record("select", false, ns, why);
  }

  std::string CheckAffected(const Answer& a, int64_t want) {
    if (!a.status.ok()) return a.status.ToString();
    if (a.affected != want) {
      return "affected " + std::to_string(a.affected) + ", model " +
             std::to_string(want);
    }
    return "";
  }

  void UpdateK() {
    int64_t id = PickId(true), op = NextOpId(), ns = 0;
    Answer a = Jdbc("UPDATE t_kv SET k = k + 1 WHERE id = ?", {Value(id)},
                    false, op, &ns);
    Shadow(id).k += 1;
    Record("update_k", true, ns, CheckAffected(a, 1));
  }

  void UpdateC() {
    int64_t id = PickId(true), op = NextOpId(), ns = 0;
    std::string c = rng_.Text(32);
    Answer a = Jdbc("UPDATE t_kv SET c = ? WHERE id = ?", {Value(c), Value(id)},
                    false, op, &ns);
    Shadow(id).c = c;
    Record("update_c", true, ns, CheckAffected(a, 1));
  }

  void DeleteInsert() {
    int64_t id = PickId(true), op = NextOpId(), ns = 0;
    KvRow fresh = MakeKvRow(rng_);
    Answer d = Jdbc("DELETE FROM t_kv WHERE id = ?", {Value(id)}, false, op, &ns);
    Answer i = Jdbc("INSERT INTO t_kv (id, k, c, pad) VALUES (?, ?, ?, ?)",
                    {Value(id), Value(fresh.k), Value(fresh.c), Value(fresh.pad)},
                    false, op, &ns);
    Shadow(id) = fresh;
    std::string why = CheckAffected(d, 1);
    if (why.empty()) why = CheckAffected(i, 1);
    Record("delete_insert", true, ns, why);
  }

  std::vector<KvRow> shadow_;
  const int64_t first_;
  bool planted_read_ = false;
};

class PointRw : public Workload {
 public:
  std::string logic() const override { return "t_kv"; }
  std::string ddl() const override {
    return "CREATE TABLE t_kv (id BIGINT PRIMARY KEY, k BIGINT, "
           "c VARCHAR(64), pad VARCHAR(32))";
  }
  Status Load(Cluster* c, uint64_t seed) override {
    Rng rng(seed);
    rows_.clear();
    std::vector<Row> load;
    for (int64_t id = 0; id < kKvRows; ++id) {
      rows_.push_back(MakeKvRow(rng));
      const KvRow& r = rows_.back();
      load.push_back({Value(id), Value(r.k), Value(r.c), Value(r.pad)});
    }
    return LoadRows(c, "t_kv", {"id", "k", "c", "pad"}, load);
  }
  std::unique_ptr<Client> MakeClient(Cluster* c, int index, uint64_t seed,
                                     bool traced) override {
    int64_t per = kKvRows / kClients, first = per * index;
    std::vector<KvRow> slice(rows_.begin() + first, rows_.begin() + first + per);
    return std::make_unique<PointRwClient>(c, index, seed, traced,
                                           std::move(slice), first);
  }
  int64_t Plant(Cluster* c) override {
    return PlantValue(c, "t_kv", 4242, "pad = 'planted'");
  }
  void Audit(Cluster* c, const std::vector<std::unique_ptr<Client>>& clients,
             AuditResult* audit) override {
    std::vector<const KvRow*> model(static_cast<size_t>(kKvRows), nullptr);
    for (const auto& cl : clients) {
      auto* p = static_cast<PointRwClient*>(cl.get());
      for (size_t i = 0; i < p->shadow().size(); ++i) {
        model[static_cast<size_t>(p->first()) + i] = &p->shadow()[i];
      }
    }
    std::vector<bool> seen(model.size(), false);
    for (int s = 0; s < kShards; ++s) {
      for (const Row& r : ReadShard(c, "t_kv", s, "id, k, c, pad", audit)) {
        int64_t id = r[0].ToInt();
        ++audit->rows_checked;
        if (id < 0 || id >= kKvRows || seen[static_cast<size_t>(id)]) {
          audit->Fail("unexpected or duplicate id " + std::to_string(id));
          continue;
        }
        seen[static_cast<size_t>(id)] = true;
        const KvRow& m = *model[static_cast<size_t>(id)];
        Row want = {Value(id), Value(m.k), Value(m.c), Value(m.pad)};
        if (r != want) audit->Fail("row " + RowText(r) + ", model " + RowText(want));
      }
    }
    if (audit->rows_checked != kKvRows) {
      audit->Fail("found " + std::to_string(audit->rows_checked) + " rows, model " +
                  std::to_string(kKvRows));
    }
  }

 private:
  std::vector<KvRow> rows_;
};

// --- scatter_agg ------------------------------------------------------------

constexpr int64_t kScanRows = 8000;
// Ids a range query covers: about 50 rows per shard.
constexpr int64_t kScanRange = 800;
constexpr int kScanStrings = 32;

struct ScanRow {
  int64_t g, v, w;
  std::string s;
  int64_t u;
};

// g and v depend on the id alone, so the two known-faulty queries (which
// read only g and v) see the same data for every seed; w and s come from
// the seed.
ScanRow MakeScanRow(int64_t id, Rng& rng) {
  Rng fixed(static_cast<uint64_t>(id) + 0x5eed);
  return {id % 10, static_cast<int64_t>(fixed.Next() % 1000), rng.Uniform(0, 9999),
          "s" + std::to_string(rng.Uniform(0, kScanStrings - 1)), 0};
}

class ScatterClient : public Client {
 public:
  ScatterClient(Cluster* c, int index, uint64_t seed, bool traced,
                const std::vector<ScanRow>* base,
                const std::vector<std::vector<int64_t>>* by_s,
                const std::vector<Row>* top_groups)
      : Client(c, index, seed, traced), base_(base), by_s_(by_s),
        top_groups_(top_groups),
        u_(static_cast<size_t>(kScanRows / kClients), 0) {}

  void Round() override {
    // 20 ops: 16 scatter reads, the two known-faulty kinds, two writes.
    RangeAgg();
    GroupBy();
    OrderLimit();
    FilterScan();
    PointUpdate();
    RangeAgg();
    Distinct();
    OrderLimit();
    CountDistinct();
    GroupBy();
    FilterScan();
    RangeAgg();
    OrderLimit();
    PointUpdate();
    GroupBy();
    FilterScan();
    GroupTopN();
    Distinct();
    OrderLimit();
    FilterScan();
  }

  int64_t u(int64_t id) const { return u_[static_cast<size_t>(id - first())]; }
  int64_t first() const { return kScanRows / kClients * index_; }

 private:
  const ScanRow& At(int64_t id) const { return (*base_)[static_cast<size_t>(id)]; }

  void Range(int64_t* a, int64_t* b) {
    if (planted_id >= 0 && !planted_read_) {
      planted_read_ = true;
      *a = std::max<int64_t>(0, planted_id - 100);
      *b = std::min<int64_t>(kScanRows - 1, planted_id + 100);
      return;
    }
    *a = rng_.Uniform(0, kScanRows - kScanRange);
    *b = *a + kScanRange - 1;
  }

  std::string Between(int64_t a, int64_t b) {
    return "id BETWEEN " + std::to_string(a) + " AND " + std::to_string(b);
  }

  void Read(const char* kind, const std::string& sql,
            const std::function<std::string(const Answer&)>& check) {
    int64_t op = NextOpId(), ns = 0;
    Answer a = Jdbc(sql, {}, true, op, &ns);
    std::string why = a.status.ok() ? check(a) : a.status.ToString();
    if (!why.empty()) why += " [" + sql + "]";
    Record(kind, false, ns, why);
  }

  static std::string Expect(const Answer& a, const std::vector<Row>& want) {
    if (a.rows == want) return "";
    std::string got = a.rows.empty() ? "no rows" : RowText(a.rows[0]);
    std::string exp = want.empty() ? "no rows" : RowText(want[0]);
    return std::to_string(a.rows.size()) + " rows, first " + got + "; model " +
           std::to_string(want.size()) + " rows, first " + exp;
  }

  void RangeAgg() {
    int64_t a, b;
    Range(&a, &b);
    int64_t n = 0, sum = 0, mn = INT64_MAX, mx = INT64_MIN;
    for (int64_t id = a; id <= b; ++id) {
      int64_t w = At(id).w;
      ++n;
      sum += w;
      mn = std::min(mn, w);
      mx = std::max(mx, w);
    }
    Read("range_agg",
         "SELECT COUNT(*), SUM(w), MIN(w), MAX(w), AVG(w) FROM t_scan WHERE " +
             Between(a, b),
         [&](const Answer& ans) -> std::string {
           if (ans.rows.size() != 1 || ans.rows[0].size() != 5) return "shape";
           const Row& r = ans.rows[0];
           if (!SameNumber(r[0], static_cast<double>(n)) ||
               !SameNumber(r[1], static_cast<double>(sum)) ||
               !SameNumber(r[2], static_cast<double>(mn)) ||
               !SameNumber(r[3], static_cast<double>(mx)) ||
               !SameNumber(r[4], static_cast<double>(sum) / static_cast<double>(n))) {
             return "got " + RowText(r) + ", model (" + std::to_string(n) + ", " +
                    std::to_string(sum) + ", " + std::to_string(mn) + ", " +
                    std::to_string(mx) + ", " +
                    Num(static_cast<double>(sum) / static_cast<double>(n)) + ")";
           }
           return "";
         });
  }

  void GroupBy() {
    int64_t a, b;
    Range(&a, &b);
    std::map<int64_t, std::pair<int64_t, int64_t>> groups;
    for (int64_t id = a; id <= b; ++id) {
      auto& gsum = groups[At(id).g];
      ++gsum.first;
      gsum.second += At(id).w;
    }
    Read("group_by",
         "SELECT g, COUNT(*), SUM(w) FROM t_scan WHERE " + Between(a, b) +
             " GROUP BY g ORDER BY g",
         [&](const Answer& ans) -> std::string {
           if (ans.rows.size() != groups.size()) {
             return std::to_string(ans.rows.size()) + " groups, model " +
                    std::to_string(groups.size());
           }
           size_t i = 0;
           for (const auto& [g, cs] : groups) {
             const Row& r = ans.rows[i++];
             if (r.size() != 3 || !SameNumber(r[0], static_cast<double>(g)) ||
                 !SameNumber(r[1], static_cast<double>(cs.first)) ||
                 !SameNumber(r[2], static_cast<double>(cs.second))) {
               return "group " + std::to_string(g) + ": got " + RowText(r);
             }
           }
           return "";
         });
  }

  void OrderLimit() {
    int64_t a, b;
    Range(&a, &b);
    int64_t off = rng_.Uniform(0, 40), cnt = rng_.Uniform(5, 20);
    std::vector<std::pair<int64_t, int64_t>> all;  // (-w, id)
    for (int64_t id = a; id <= b; ++id) all.push_back({-At(id).w, id});
    std::sort(all.begin(), all.end());
    std::vector<Row> want;
    for (int64_t i = off; i < off + cnt && i < static_cast<int64_t>(all.size()); ++i) {
      want.push_back({Value(all[static_cast<size_t>(i)].second),
                      Value(-all[static_cast<size_t>(i)].first)});
    }
    Read("order_limit",
         "SELECT id, w FROM t_scan WHERE " + Between(a, b) +
             " ORDER BY w DESC, id LIMIT " + std::to_string(off) + ", " +
             std::to_string(cnt),
         [&](const Answer& ans) { return Expect(ans, want); });
  }

  void Distinct() {
    int64_t a, b;
    Range(&a, &b);
    std::set<std::string> ss;
    for (int64_t id = a; id <= b; ++id) ss.insert(At(id).s);
    std::vector<Row> want;
    for (const auto& s : ss) want.push_back({Value(s)});
    Read("distinct",
         "SELECT DISTINCT s FROM t_scan WHERE " + Between(a, b) + " ORDER BY s",
         [&](const Answer& ans) { return Expect(ans, want); });
  }

  void FilterScan() {
    int64_t s = rng_.Uniform(0, kScanStrings - 1), lim = rng_.Uniform(1800, 2200);
    if (planted_id >= 0 && !planted_read_) {
      planted_read_ = true;
      s = std::stoll(At(planted_id).s.substr(1));
      lim = 10000;
    }
    std::string sv = "s" + std::to_string(s);
    std::vector<Row> want;
    for (int64_t id : (*by_s_)[static_cast<size_t>(s)]) {
      const ScanRow& r = At(id);
      if (r.w < lim) want.push_back({Value(id), Value(r.g), Value(r.w)});
    }
    Read("filter_scan",
         "SELECT id, g, w FROM t_scan WHERE s = '" + sv + "' AND w < " +
             std::to_string(lim) + " ORDER BY id",
         [&](const Answer& ans) { return Expect(ans, want); });
  }

  // Known fault 1: per-shard distinct counts are summed.
  void CountDistinct() {
    Read("count_distinct", "SELECT COUNT(DISTINCT g) FROM t_scan",
         [&](const Answer& ans) -> std::string {
           if (ans.rows.size() == 1 && SameNumber(ans.rows[0][0], 10)) return "";
           return "got " + (ans.rows.empty() ? std::string("no rows")
                                             : RowText(ans.rows[0])) +
                  ", model (10)";
         });
  }

  // Known fault 2: the LIMIT reaches the shards before groups are complete.
  void GroupTopN() {
    const std::vector<Row>& want = *top_groups_;
    Read("group_topn",
         "SELECT g, SUM(v) FROM t_scan GROUP BY g ORDER BY SUM(v) DESC LIMIT 3",
         [&](const Answer& ans) -> std::string {
           bool ok = ans.rows.size() == want.size();
           for (size_t i = 0; ok && i < want.size(); ++i) {
             ok = ans.rows[i].size() == 2 && ans.rows[i][0] == want[i][0] &&
                  SameNumber(ans.rows[i][1], want[i][1].ToDouble());
           }
           return ok ? "" : Expect(ans, want);
         });
  }

  void PointUpdate() {
    int64_t id = first() + rng_.Uniform(0, kScanRows / kClients - 1);
    int64_t d = rng_.Uniform(1, 9);
    int64_t op = NextOpId(), ns = 0;
    Answer a = Jdbc("UPDATE t_scan SET u = u + " + std::to_string(d) +
                        " WHERE id = " + std::to_string(id),
                    {}, false, op, &ns);
    u_[static_cast<size_t>(id - first())] += d;
    std::string why;
    if (!a.status.ok()) why = a.status.ToString();
    else if (a.affected != 1) why = "affected " + std::to_string(a.affected);
    Record("point_update", true, ns, why);
  }

  const std::vector<ScanRow>* base_;
  const std::vector<std::vector<int64_t>>* by_s_;
  const std::vector<Row>* top_groups_;
  std::vector<int64_t> u_;
  bool planted_read_ = false;
};

class ScatterAgg : public Workload {
 public:
  std::string logic() const override { return "t_scan"; }
  std::string ddl() const override {
    return "CREATE TABLE t_scan (id BIGINT PRIMARY KEY, g BIGINT, v BIGINT, "
           "w BIGINT, s VARCHAR(16), u BIGINT)";
  }
  std::set<std::string> known_faults() const override {
    return {"count_distinct", "group_topn"};
  }
  Status Load(Cluster* c, uint64_t seed) override {
    Rng rng(seed);
    rows_.clear();
    by_s_.assign(kScanStrings, {});
    std::vector<Row> load;
    for (int64_t id = 0; id < kScanRows; ++id) {
      rows_.push_back(MakeScanRow(id, rng));
      const ScanRow& r = rows_.back();
      by_s_[static_cast<size_t>(std::stoll(r.s.substr(1)))].push_back(id);
      load.push_back({Value(id), Value(r.g), Value(r.v), Value(r.w), Value(r.s),
                      Value(r.u)});
    }
    // The answer to the top-groups query: groups and v never change.
    std::map<int64_t, int64_t> sums;
    for (const ScanRow& r : rows_) sums[r.g] += r.v;
    std::vector<std::pair<int64_t, int64_t>> order;  // (-sum, g)
    for (const auto& [g, sum] : sums) order.push_back({-sum, g});
    std::sort(order.begin(), order.end());
    top_groups_.clear();
    for (size_t i = 0; i < 3; ++i) {
      top_groups_.push_back({Value(order[i].second), Value(-order[i].first)});
    }
    return LoadRows(c, "t_scan", {"id", "g", "v", "w", "s", "u"}, load);
  }
  std::unique_ptr<Client> MakeClient(Cluster* c, int index, uint64_t seed,
                                     bool traced) override {
    return std::make_unique<ScatterClient>(c, index, seed, traced, &rows_, &by_s_,
                                           &top_groups_);
  }
  int64_t Plant(Cluster* c) override {
    return PlantValue(c, "t_scan", 4242, "w = w + 100000");
  }
  void Audit(Cluster* c, const std::vector<std::unique_ptr<Client>>& clients,
             AuditResult* audit) override {
    std::vector<bool> seen(static_cast<size_t>(kScanRows), false);
    for (int s = 0; s < kShards; ++s) {
      for (const Row& r : ReadShard(c, "t_scan", s, "id, g, v, w, s, u", audit)) {
        int64_t id = r[0].ToInt();
        ++audit->rows_checked;
        if (id < 0 || id >= kScanRows || seen[static_cast<size_t>(id)]) {
          audit->Fail("unexpected or duplicate id " + std::to_string(id));
          continue;
        }
        seen[static_cast<size_t>(id)] = true;
        const ScanRow& m = rows_[static_cast<size_t>(id)];
        auto* owner = static_cast<ScatterClient*>(
            clients[static_cast<size_t>(id / (kScanRows / kClients))].get());
        Row want = {Value(id), Value(m.g), Value(m.v), Value(m.w), Value(m.s),
                    Value(owner->u(id))};
        if (r != want) audit->Fail("row " + RowText(r) + ", model " + RowText(want));
      }
    }
    if (audit->rows_checked != kScanRows) {
      audit->Fail("found " + std::to_string(audit->rows_checked) +
                  " rows, model " + std::to_string(kScanRows));
    }
  }

 private:
  std::vector<ScanRow> rows_;
  std::vector<std::vector<int64_t>> by_s_;
  std::vector<Row> top_groups_;
};

// --- proxy_xa_transfer ------------------------------------------------------

constexpr int64_t kAccountsPerSession = 4096;

int DataSourceOf(int64_t id) { return NodeOfShard(ShardOf(id)); }

class TransferClient : public Client {
 public:
  TransferClient(Cluster* c, int index, uint64_t seed, bool traced,
                 std::vector<int64_t> ledger)
      : Client(c, index, seed, traced), ledger_(std::move(ledger)),
        session_(c->proxy->Connect()) {
    if (traced) read_session_ = c->proxy->Connect();
    for (auto* s : {session_.get(), read_session_.get()}) {
      if (s == nullptr) continue;
      auto r = s->Execute("SET VARIABLE transaction_type = XA");
      if (!r.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", r.status().ToString().c_str());
        std::exit(3);
      }
    }
  }

  void Round() override {
    // 4 transfers (3 across two data sources, 1 within one) and 4 reads.
    Transfer(true);
    ReadIn();
    Transfer(true);
    ReadIn();
    Transfer(false);
    ReadIn();
    Transfer(true);
    ReadIn();
  }

  int64_t first() const { return kAccountsPerSession * index_; }
  const std::vector<int64_t>& ledger() const { return ledger_; }

 private:
  int64_t Pick() { return first() + rng_.Uniform(0, kAccountsPerSession - 1); }

  // A proxy statement, timed into `ns`; in the span phase also its own span.
  Answer Proxy(const char* span, std::string_view sql,
               const std::vector<Value>& params, int64_t op, int64_t* ns) {
    int32_t s = tracer_.Open(span, op);
    int64_t t0 = NowNs();
    Answer a = FromResult(session_->Execute(sql, params));
    *ns += NowNs() - t0;
    double us = tracer_.Close(s);
    if (traced_phase()) {
      samples_.us[span].push_back(us);
      Codec(sql, params, a, op);
    }
    return a;
  }

  void Transfer(bool cross) {
    int64_t a = Pick(), b;
    do {
      b = Pick();
    } while (b == a || (DataSourceOf(a) != DataSourceOf(b)) != cross);
    int64_t amount = rng_.Uniform(1, 500);
    int64_t op = NextOpId(), ns = 0;
    const char* kDebit = "UPDATE t_acct SET balance = balance - ? WHERE id = ?";
    const char* kCredit = "UPDATE t_acct SET balance = balance + ? WHERE id = ?";
    std::string why;
    auto step = [&](const char* span, std::string_view sql,
                    const std::vector<Value>& params, int64_t want) {
      Answer r = Proxy(span, sql, params, op, &ns);
      if (!why.empty()) return;
      if (!r.status.ok()) why = std::string(sql) + ": " + r.status.ToString();
      else if (want >= 0 && r.affected != want)
        why = std::string(sql) + ": affected " + std::to_string(r.affected);
    };
    step("adaptor.proxy.execute", "BEGIN", {}, -1);
    step("adaptor.proxy.execute", kDebit, {Value(amount), Value(a)}, 1);
    step("adaptor.proxy.execute", kCredit, {Value(amount), Value(b)}, 1);
    step("transaction.commit", "COMMIT", {}, -1);
    if (why.empty()) {
      ledger_[static_cast<size_t>(a - first())] -= amount;
      ledger_[static_cast<size_t>(b - first())] += amount;
    }
    if (traced_phase()) {
      // Data sources the two UPDATEs route to: the XA participants.
      std::set<std::string> sources;
      for (int64_t id : {a, b}) {
        sphere::sql::Parser parser(cluster_->runtime()->dialect());
        auto stmt = parser.Parse(kDebit);
        if (!stmt.ok()) continue;
        auto route = cluster_->runtime()->PreviewRoute(**stmt, {Value(amount), Value(id)});
        if (!route.ok()) continue;
        for (const auto& u : route->units) sources.insert(u.data_source);
      }
      samples_.participants.push_back(static_cast<double>(sources.size()));
    }
    Record(cross ? "transfer_cross" : "transfer_single", true, ns, why);
  }

  void ReadIn() {
    std::set<int64_t> ids;
    if (planted_id >= 0 && !planted_read_) {
      planted_read_ = true;
      ids.insert(planted_id);
    }
    while (ids.size() < 8) ids.insert(Pick());
    std::vector<Value> params(ids.begin(), ids.end());
    const char* kSql =
        "SELECT id, balance FROM t_acct WHERE id IN (?, ?, ?, ?, ?, ?, ?, ?)";
    int64_t op = NextOpId(), ns = 0;
    Answer ans = Jdbc(kSql, params, true, op, &ns);
    if (traced_phase()) {
      // The same read through the proxy: the adaptor overhead baseline.
      int32_t s = tracer_.Open("adaptor.proxy.read", op);
      Answer p = FromResult(read_session_->Execute(kSql, params));
      samples_.us["adaptor.proxy.read"].push_back(tracer_.Close(s));
      (void)p;
    }
    std::string why;
    if (!ans.status.ok()) {
      why = ans.status.ToString();
    } else {
      std::vector<Row> got = ans.rows, want;
      std::sort(got.begin(), got.end());
      for (int64_t id : ids) {
        want.push_back({Value(id), Value(ledger_[static_cast<size_t>(id - first())])});
      }
      if (got != want) {
        why = "got " + std::to_string(got.size()) + " rows, first " +
              (got.empty() ? std::string("none") : RowText(got[0])) +
              "; model first " + RowText(want[0]);
      }
    }
    Record("read_in", false, ns, why);
  }

  std::vector<int64_t> ledger_;
  std::unique_ptr<adaptor::ShardingProxy::Connection> session_;
  std::unique_ptr<adaptor::ShardingProxy::Connection> read_session_;
  bool planted_read_ = false;
};

class ProxyXaTransfer : public Workload {
 public:
  std::string logic() const override { return "t_acct"; }
  std::string ddl() const override {
    return "CREATE TABLE t_acct (id BIGINT PRIMARY KEY, balance BIGINT)";
  }
  bool with_proxy() const override { return true; }
  Status Load(Cluster* c, uint64_t seed) override {
    Rng rng(seed);
    balances_.clear();
    total_ = 0;
    std::vector<Row> load;
    for (int64_t id = 0; id < kAccountsPerSession * kClients; ++id) {
      balances_.push_back(rng.Uniform(1000, 9999));
      total_ += balances_.back();
      load.push_back({Value(id), Value(balances_.back())});
    }
    return LoadRows(c, "t_acct", {"id", "balance"}, load);
  }
  std::unique_ptr<Client> MakeClient(Cluster* c, int index, uint64_t seed,
                                     bool traced) override {
    int64_t first = kAccountsPerSession * index;
    std::vector<int64_t> ledger(balances_.begin() + first,
                                balances_.begin() + first + kAccountsPerSession);
    return std::make_unique<TransferClient>(c, index, seed, traced, std::move(ledger));
  }
  int64_t Plant(Cluster* c) override {
    return PlantValue(c, "t_acct", 42, "balance = balance + 1");
  }
  void Audit(Cluster* c, const std::vector<std::unique_ptr<Client>>& clients,
             AuditResult* audit) override {
    const int64_t n = kAccountsPerSession * kClients;
    std::vector<bool> seen(static_cast<size_t>(n), false);
    int64_t sum = 0;
    for (int s = 0; s < kShards; ++s) {
      for (const Row& r : ReadShard(c, "t_acct", s, "id, balance", audit)) {
        int64_t id = r[0].ToInt();
        ++audit->rows_checked;
        if (id < 0 || id >= n || seen[static_cast<size_t>(id)]) {
          audit->Fail("unexpected or duplicate id " + std::to_string(id));
          continue;
        }
        seen[static_cast<size_t>(id)] = true;
        sum += r[1].ToInt();
        auto* owner = static_cast<TransferClient*>(
            clients[static_cast<size_t>(id / kAccountsPerSession)].get());
        int64_t want = owner->ledger()[static_cast<size_t>(id - owner->first())];
        if (r[1].ToInt() != want) {
          audit->Fail("account " + std::to_string(id) + " balance " +
                      std::to_string(r[1].ToInt()) + ", ledger " +
                      std::to_string(want));
        }
      }
    }
    if (audit->rows_checked != n) {
      audit->Fail("found " + std::to_string(audit->rows_checked) +
                  " accounts, model " + std::to_string(n));
    }
    if (sum != total_) {
      audit->Fail("balances add up to " + std::to_string(sum) + ", loaded " +
                  std::to_string(total_));
    }
    auto unresolved = c->ds->transaction_context()->xa_log()->Unresolved();
    if (!unresolved.empty()) {
      audit->Fail(std::to_string(unresolved.size()) + " unresolved XA transactions");
    }
    for (auto& node : c->nodes) {
      if (!node->InDoubtXids().empty()) {
        audit->Fail(node->name() + " holds in-doubt XA branches");
      }
    }
  }

 private:
  std::vector<int64_t> balances_;
  int64_t total_ = 0;
};

// ---------------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string trace_out;
  bool plant = false;
};

struct Counters {
  int64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  int64_t messages = 0, bytes = 0;
  int64_t node_hits = 0, node_misses = 0;
  uint64_t allocs = 0;
  int64_t ops = 0;

  static Counters Take(Cluster* c, const std::vector<std::unique_ptr<Client>>& clients) {
    Counters k;
    sphere::CacheStats cs = c->runtime()->statement_cache_stats();
    k.cache_hits = static_cast<int64_t>(cs.hits);
    k.cache_misses = static_cast<int64_t>(cs.misses);
    k.cache_evictions = static_cast<int64_t>(cs.evictions);
    k.messages = c->runtime()->network().messages() + c->client_net.messages();
    k.bytes = c->runtime()->network().bytes_transferred() +
              c->client_net.bytes_transferred();
    for (auto& n : c->nodes) {
      k.node_hits += n->parse_cache_hits();
      k.node_misses += n->parse_cache_misses();
    }
    k.allocs = AllocCount();
    for (const auto& cl : clients) k.ops += cl->window_ops();
    return k;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "point_rw") return std::make_unique<PointRw>();
  if (name == "scatter_agg") return std::make_unique<ScatterAgg>();
  if (name == "proxy_xa_transfer") return std::make_unique<ProxyXaTransfer>();
  return nullptr;
}

void WriteTrace(const Args& args, const std::vector<std::unique_ptr<Client>>& clients,
                const std::map<std::string, double>& metrics) {
  std::ofstream out(args.trace_out);
  out << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
      << ",\n \"span_fields\": [\"client\", \"name\", \"start_ns\", \"end_ns\", "
         "\"parent\", \"op\"],\n \"spans\": [";
  // Self time per span name: duration minus the time its children cover.
  std::map<std::string, std::vector<double>> self_us, dur_us;
  bool first = true;
  for (size_t ci = 0; ci < clients.size(); ++ci) {
    const auto& spans = clients[ci]->tracer_.spans;
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0 && s.end_ns > 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.end_ns == 0) continue;
      out << (first ? "\n  " : ",\n  ") << "[" << ci << ", \"" << s.name << "\", "
          << s.start_ns << ", " << s.end_ns << ", " << s.parent << ", " << s.op << "]";
      first = false;
      double d = static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
      dur_us[s.name].push_back(d);
      self_us[s.name].push_back(d - static_cast<double>(child_ns[i]) / 1000.0);
    }
  }
  out << "],\n \"self_time_us\": {";
  first = true;
  for (const auto& [name, v] : self_us) {
    out << (first ? "\n  " : ",\n  ") << "\"" << name << "\": {\"count\": " << v.size()
        << ", \"p50_duration\": " << Num(Percentile(dur_us[name], 0.5))
        << ", \"p50_self\": " << Num(Percentile(v, 0.5))
        << ", \"total_self\": " << Num(std::accumulate(v.begin(), v.end(), 0.0)) << "}";
    first = false;
  }
  out << "},\n \"per_layer\": {";
  first = true;
  for (const auto& [name, v] : metrics) {
    out << (first ? "\n  " : ",\n  ") << "\"" << name << "\": " << Num(v);
    first = false;
  }
  out << "},\n \"stage_histograms\": [";
  first = true;
  for (const auto& s : sphere::metrics::Registry::Instance().Snapshot("stage.%")) {
    out << (first ? "\n  " : ",\n  ") << "{\"name\": \"" << s.name
        << "\", \"count\": " << s.value << ", \"p50_ms\": " << Num(s.p50_ms)
        << ", \"p99_ms\": " << Num(s.p99_ms) << ", \"avg_ms\": " << Num(s.avg_ms) << "}";
    first = false;
  }
  out << "]}\n";
}

int Run(const Args& args) {
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const bool traced = !args.trace_out.empty();

  // Set up several times; setup_s is the median of the CPU seconds (user +
  // sys, all threads) each set-up costs. Wall time is reported beside it:
  // on a shared host it swings with the CPU time the host steals.
  std::vector<double> setup_s, setup_wall_s;
  std::vector<int64_t> setup_steal;
  std::unique_ptr<Cluster> cluster;
  for (int i = 0; i < kSetups; ++i) {
    cluster.reset();
    int64_t steal0 = StealTicks();
    int64_t t0 = NowNs();
    double cpu0 = CpuSeconds();
    auto built = BuildCluster(w->logic(), w->ddl(), w->with_proxy());
    Status st = built.ok() ? w->Load(built->get(), args.seed) : built.status();
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n", st.ToString().c_str());
      return 3;
    }
    cluster = std::move(*built);
    setup_s.push_back(CpuSeconds() - cpu0);
    setup_wall_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_steal.push_back(StealTicks() - steal0);
  }
  Cluster* c = cluster.get();

  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(w->MakeClient(c, i, args.seed, traced));
  }
  if (args.plant) clients[0]->planted_id = w->Plant(c);

  std::atomic<int> phase{kWarmup};
  std::atomic<int64_t> window_start{0};
  const int64_t slice_ns = static_cast<int64_t>(args.seconds * 1e9 / kSlices);
  std::vector<std::thread> threads;
  for (auto& cl : clients) {
    threads.emplace_back(
        [&phase, &window_start, slice_ns, p = cl.get()] {
          p->Run(phase, window_start, slice_ns);
        });
  }
  auto sleep_until = [](int64_t ns) {
    int64_t left = ns - NowNs();
    if (left > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(left));
  };
  sleep_until(NowNs() + static_cast<int64_t>(kWarmupSeconds * 1e9));

  Counters k0 = Counters::Take(c, clients);
  // Wall clock and process CPU at every slice boundary.
  std::vector<int64_t> slice_wall;
  std::vector<double> slice_cpu;
  std::vector<int64_t> slice_steal;
  const int64_t t0 = NowNs();
  window_start.store(t0, std::memory_order_relaxed);
  slice_wall.push_back(t0);
  slice_cpu.push_back(CpuSeconds());
  slice_steal.push_back(StealTicks());
  phase.store(kWindow, std::memory_order_release);
  Counters k1;
  if (traced) {
    sleep_until(t0 + slice_ns * kSlices / 2);
    k1 = Counters::Take(c, clients);
    phase.store(kSpans, std::memory_order_release);
    sleep_until(t0 + slice_ns * kSlices);
  } else {
    for (int i = 1; i < kSlices; ++i) {
      sleep_until(t0 + slice_ns * i);
      slice_wall.push_back(NowNs());
      slice_cpu.push_back(CpuSeconds());
      slice_steal.push_back(StealTicks());
    }
    sleep_until(t0 + slice_ns * kSlices);
  }
  phase.store(kStop, std::memory_order_release);
  for (auto& t : threads) t.join();
  slice_wall.push_back(NowNs());
  slice_cpu.push_back(CpuSeconds());
  slice_steal.push_back(StealTicks());
  double wall_s = static_cast<double>(slice_wall.back() - t0) / 1e9;
  if (!traced) k1 = Counters::Take(c, clients);
  int64_t mvcc_versions = 0;
  for (const auto& s : sphere::metrics::Registry::Instance().Snapshot("storage.mvcc.versions")) {
    mvcc_versions = s.value;
  }

  AuditResult audit;
  w->Audit(c, clients, &audit);

  // Op accounting.
  std::map<std::string, OpCount> ops;
  int64_t read_samples = 0, write_samples = 0, pooled_reads = 0, pooled_writes = 0;
  int64_t quiet_steal = 0;
  LayerSamples samples;
  int64_t attempted = 0, failed = 0, unexpected = 0, rounds = 0;
  bool replay_mismatch = false;
  std::set<std::string> faults = w->known_faults();
  for (auto& cl : clients) {
    for (const auto& [kind, oc] : cl->counts) {
      OpCount& t = ops[kind];
      t.attempted += oc.attempted;
      t.failed += oc.failed;
      if (t.first_error.empty()) t.first_error = oc.first_error;
    }
    for (int i = 0; i < kSlices; ++i) {
      read_samples += static_cast<int64_t>(cl->read_us[static_cast<size_t>(i)].seen());
      write_samples += static_cast<int64_t>(cl->write_us[static_cast<size_t>(i)].seen());
    }
    samples.Merge(cl->samples_);
    rounds += cl->rounds();
    replay_mismatch |= cl->replay_mismatch_;
  }
  for (const auto& [kind, oc] : ops) {
    attempted += oc.attempted;
    failed += oc.failed;
    if (!faults.count(kind)) unexpected += oc.failed;
  }
  bool correct = audit.ok && unexpected == 0 && !replay_mismatch && attempted > 0;

  std::map<std::string, double> m;
  std::ostringstream slice_detail;
  if (!traced) {
    m["setup_s"] = Percentile(setup_s, 0.5);
    for (size_t i = 0; !traced && i < kSlices; ++i) {
      std::vector<double> r, wv;
      int64_t n = 0;
      for (const auto& cl : clients) {
        auto a = cl->read_us[i].values(), b = cl->write_us[i].values();
        r.insert(r.end(), a.begin(), a.end());
        wv.insert(wv.end(), b.begin(), b.end());
        n += cl->slice_ops[i];
      }
      slice_detail << (i ? ", " : "") << "[" << slice_steal[i + 1] - slice_steal[i] << ", " << n
                   << ", " << Num(static_cast<double>(slice_wall[i + 1] - slice_wall[i]) / 1e9)
                   << ", " << Num(slice_cpu[i + 1] - slice_cpu[i]) << ", "
                   << Num(Percentile(r, 0.5)) << ", " << Num(Percentile(r, 0.99)) << ", "
                   << Num(Percentile(wv, 0.5)) << ", " << Num(Percentile(wv, 0.99)) << "]";
    }
    // The quietest slices, pooled.
    std::vector<size_t> order(kSlices);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return slice_steal[a + 1] - slice_steal[a] < slice_steal[b + 1] - slice_steal[b];
    });
    int64_t ops = 0;
    double secs = 0, cpu = 0;
    for (int q = 0; q < kQuietSlices; ++q) {
      size_t i = order[static_cast<size_t>(q)];
      for (const auto& cl : clients) ops += cl->slice_ops[i];
      secs += static_cast<double>(slice_wall[i + 1] - slice_wall[i]) / 1e9;
      cpu += slice_cpu[i + 1] - slice_cpu[i];
      quiet_steal += slice_steal[i + 1] - slice_steal[i];
    }
    m["ops_per_s"] = static_cast<double>(ops) / secs;
    m["cpu_us_per_op"] = cpu * 1e6 / static_cast<double>(std::max<int64_t>(ops, 1));
    auto percentiles = [&](std::vector<Reservoir> Client::*cls, const char* p50,
                           const char* p99, int64_t* pooled) {
      std::vector<double> g50, g99, group;
      uint64_t seen = 0;
      for (size_t i : order) {
        for (const auto& cl : clients) {
          const Reservoir& r = ((*cl).*cls)[i];
          auto v = r.values();
          group.insert(group.end(), v.begin(), v.end());
          seen += r.seen();
          *pooled += static_cast<int64_t>(r.seen());
        }
        if (seen >= kGroupSamples) {
          g50.push_back(Percentile(group, 0.5));
          g99.push_back(Percentile(group, 0.99));
          group.clear();
          seen = 0;
          if (g50.size() >= kMinGroups) break;
        }
      }
      if (g50.empty()) {  // fewer ops than one group in the whole window
        g50.push_back(Percentile(group, 0.5));
        g99.push_back(Percentile(group, 0.99));
      }
      m[p50] = Percentile(g50, 0.5);
      m[p99] = Percentile(g99, 0.5);
    };
    percentiles(&Client::read_us, "read_p50_us", "read_p99_us", &pooled_reads);
    percentiles(&Client::write_us, "write_p50_us", "write_p99_us", &pooled_writes);
    m["peak_rss_mb"] = PeakRssMiB();
  } else {
    // Counting half: counter deltas over [k0, k1].
    double opsA = static_cast<double>(std::max<int64_t>(k1.ops - k0.ops, 1));
    int64_t hits = k1.cache_hits - k0.cache_hits;
    int64_t lookups = hits + k1.cache_misses - k0.cache_misses;
    double hit_ratio = Ratio(static_cast<double>(hits), static_cast<double>(lookups));
    auto p50 = [&](const char* name) { return Percentile(samples.us[name], 0.5); };
    m["sql.parse_us"] = p50("sql.parse");
    m["core.cache.lookup_us"] = p50("core.cache.lookup");
    m["core.cache.hits_per_lookup"] = hit_ratio;
    m["core.cache.evictions_per_op"] =
        static_cast<double>(k1.cache_evictions - k0.cache_evictions) / opsA;
    m["core.route_us"] = p50("core.route");
    m["core.route.units_per_stmt"] = Mean(samples.units_per_stmt);
    m["core.rewrite_us"] = p50("core.rewrite");
    m["core.execute_us"] = p50("core.execute");
    m["core.execute.dispatch_us"] = p50("core.execute.dispatch");
    m["engine.node_execute_us"] = p50("engine.node_execute");
    m["engine.rows_per_unit"] = Mean(samples.rows_per_unit);
    int64_t nh = k1.node_hits - k0.node_hits;
    m["engine.node_parse_hits_per_lookup"] =
        Ratio(static_cast<double>(nh), static_cast<double>(nh + k1.node_misses - k0.node_misses));
    m["core.merge_us"] = p50("core.merge");
    m["core.merge.rows_in_per_row_out"] =
        Ratio(static_cast<double>(samples.rows_pulled), static_cast<double>(samples.rows_returned));
    m["storage.mvcc.versions"] = static_cast<double>(mvcc_versions);
    m["net.messages_per_op"] = static_cast<double>(k1.messages - k0.messages) / opsA;
    m["net.bytes_per_op"] = static_cast<double>(k1.bytes - k0.bytes) / opsA;
    m["net.codec_us"] = p50("net.codec");
    m["adaptor.jdbc.execute_us"] = p50("adaptor.jdbc.execute");
    bool proxy = w->with_proxy();
    m["adaptor.proxy.execute_us"] = proxy ? p50("adaptor.proxy.execute") : 0;
    m["adaptor.proxy.overhead_us"] =
        proxy ? p50("adaptor.proxy.read") - p50("adaptor.jdbc.execute") : 0;
    double queue_wait = 0;
    if (proxy) {
      queue_wait = 1000.0 * sphere::metrics::Registry::Instance()
                                .GetHistogram("proxy.queue_wait")
                                ->PercentileMillis(50);
    }
    m["adaptor.proxy.queue_wait_us"] = queue_wait;
    m["transaction.commit_us"] = proxy ? p50("transaction.commit") : 0;
    m["transaction.participants_per_txn"] = Mean(samples.participants);
    m["common.allocs_per_op"] = static_cast<double>(k1.allocs - k0.allocs) / opsA;
    // Read statements through ExecuteSQL minus the layers on their path;
    // parse is on the path only for cache misses.
    m["core.unattributed_us"] =
        p50("adaptor.jdbc.execute") -
        (m["core.cache.lookup_us"] + (1 - hit_ratio) * m["sql.parse_us"] +
         m["core.route_us"] + m["core.rewrite_us"] + m["core.execute_us"] +
         m["core.merge_us"]);
    WriteTrace(args, clients, m);
  }

  // Report: one JSON object on the last line of stdout.
  std::ostringstream o;
  o << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
    << ", \"seconds\": " << Num(args.seconds) << ", \"traced\": "
    << (traced ? "true" : "false") << ", \"planted\": " << (args.plant ? "true" : "false")
    << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"clients\": " << kClients
    << ", \"rounds\": " << rounds << ", \"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"unexpected_failures\": " << unexpected
    << ", \"replay_mismatch\": " << (replay_mismatch ? "true" : "false")
    << ", \"setup_cpu_s\": [";
  for (size_t i = 0; i < setup_s.size(); ++i) o << (i ? ", " : "") << Num(setup_s[i]);
  o << "], \"setup_wall_s\": [";
  for (size_t i = 0; i < setup_wall_s.size(); ++i) o << (i ? ", " : "") << Num(setup_wall_s[i]);
  o << "], \"setup_steal_ticks\": [";
  for (size_t i = 0; i < setup_steal.size(); ++i) o << (i ? ", " : "") << setup_steal[i];
  o << "], \"slice_fields\": [\"steal_ticks\", \"ops\", \"seconds\", \"cpu_s\", "
       "\"read_p50_us\", \"read_p99_us\", \"write_p50_us\", \"write_p99_us\"], "
       "\"slice_detail\": [" << slice_detail.str() << "]";
  o << ", \"read_samples\": " << read_samples << ", \"write_samples\": "
    << write_samples << ", \"pooled_read_samples\": " << pooled_reads
    << ", \"pooled_write_samples\": " << pooled_writes << ", \"window_s\": " << Num(wall_s)
    << ", \"slices\": " << kSlices << ", \"quiet_slices\": " << kQuietSlices
    << ", \"steal_ticks\": " << (slice_steal.back() - slice_steal.front())
    << ", \"quiet_steal_ticks\": " << quiet_steal;
  int64_t hits = k1.cache_hits - k0.cache_hits;
  o << ", \"cache_hit_share\": "
    << Num(Ratio(static_cast<double>(hits),
                 static_cast<double>(hits + k1.cache_misses - k0.cache_misses)));
  o << ", \"ops\": {";
  bool first = true;
  for (const auto& [kind, oc] : ops) {
    o << (first ? "" : ", ") << "\"" << kind << "\": {\"attempted\": " << oc.attempted
      << ", \"failed\": " << oc.failed << ", \"known_fault\": "
      << (faults.count(kind) ? "true" : "false");
    if (!oc.first_error.empty()) o << ", \"first_error\": \"" << JsonEscape(oc.first_error) << "\"";
    o << "}";
    first = false;
  }
  o << "}, \"audit\": {\"ok\": " << (audit.ok ? "true" : "false")
    << ", \"rows_checked\": " << audit.rows_checked << ", \"errors\": [";
  for (size_t i = 0; i < audit.errors.size(); ++i) {
    o << (i ? ", " : "") << "\"" << JsonEscape(audit.errors[i]) << "\"";
  }
  o << "]}, \"metrics\": {";
  first = true;
  for (const auto& [name, v] : m) {
    o << (first ? "" : ", ") << "\"" << name << "\": " << Num(v);
    first = false;
  }
  o << "}}";
  std::printf("%s\n", o.str().c_str());
  std::fflush(stdout);

  // Tear down in order: clients (sessions), then the cluster.
  clients.clear();
  cluster.reset();
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench: refusing to run an unoptimised build\n");
  return 4;
#endif
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") args.workload = value();
    else if (a == "--seed") args.seed = std::stoull(value());
    else if (a == "--seconds") args.seconds = std::stod(value());
    else if (a == "--trace-out") args.trace_out = value();
    else if (a == "--plant") args.plant = true;
    else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing to report numbers from a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 4;
  }
  return perfbench::Run(args);
}
