#ifndef SPHERE_CORE_RUNTIME_H_
#define SPHERE_CORE_RUNTIME_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/execute.h"
#include "core/merge.h"
#include "core/rewrite.h"
#include "core/route.h"
#include "core/rule.h"
#include "core/statement_cache.h"
#include "net/latency.h"
#include "sql/parser.h"

namespace sphere::core {

/// Pluggable feature hook on the SQL engine pipeline (paper: "all of the
/// features are pluggable to the SQL engine"). Features (encrypt, read-write
/// splitting, shadow, throttling...) implement the stages they need.
class StatementInterceptor {
 public:
  virtual ~StatementInterceptor() = default;

  /// Before routing. May return a replacement statement (nullptr = keep).
  /// `params` may be rewritten in place (e.g. encrypting a compared value).
  virtual Result<sql::StatementPtr> BeforeRoute(const sql::Statement& stmt,
                                                std::vector<Value>* params) {
    (void)stmt;
    (void)params;
    return sql::StatementPtr(nullptr);
  }

  /// After rewrite: may redirect units to other data sources (read-write
  /// splitting, shadow DB) or veto execution (circuit breaker / throttle).
  virtual Status AfterRewrite(const sql::Statement& stmt,
                              std::vector<SQLUnit>* units, bool in_transaction) {
    (void)stmt;
    (void)units;
    (void)in_transaction;
    return Status::OK();
  }

  /// After merging: may transform the merged result (e.g. decrypt columns).
  virtual Result<engine::ExecResult> DecorateResult(
      const sql::Statement& stmt, engine::ExecResult result) {
    (void)stmt;
    return result;
  }
};

/// Runtime configuration (the paper's user-facing knobs).
struct RuntimeConfig {
  int max_connections_per_query = 1;  ///< MaxCon (paper §VI-D / Fig. 15)
  int pool_size_per_source = 128;
  sql::DialectType dialect = sql::DialectType::kMySQL;
  /// SQL parse/plan cache entries kept per runtime (0 disables caching).
  size_t statement_cache_capacity = 2048;
};

/// The assembled SQL engine: parser -> router -> rewriter -> executor ->
/// merger over a set of network-attached data sources. Both adaptors
/// (embedded driver and proxy) call into this.
class ShardingRuntime {
 public:
  ShardingRuntime(RuntimeConfig config, net::NetworkConfig network);

  /// Attaches a storage node as data source `name`. The node is owned by the
  /// caller and must outlive the runtime.
  Status AttachNode(const std::string& name, engine::StorageNode* node);

  /// Installs the sharding rule (replaces any previous one).
  Status SetRule(ShardingRuleConfig config);
  const ShardingRule* rule() const { return rule_.get(); }

  void SetMaxConnectionsPerQuery(int n) { executor_.set_max_connections_per_query(n); }
  int max_connections_per_query() const {
    return executor_.max_connections_per_query();
  }

  /// Registers a pluggable feature. Interceptors run in registration order
  /// (result decoration in reverse order).
  void AddInterceptor(std::shared_ptr<StatementInterceptor> interceptor) {
    interceptors_.push_back(std::move(interceptor));
  }

  /// Runs the full pipeline for a parsed statement. `txn_source` provides
  /// transaction-affine connections (nullptr = auto-commit); `observer` hooks
  /// each physical unit (BASE transactions use it).
  Result<engine::ExecResult> ExecuteStatement(const sql::Statement& stmt,
                                              std::vector<Value> params,
                                              ConnectionSource* txn_source,
                                              UnitObserver* observer = nullptr);

  /// Parse + execute (auto-commit convenience). Repeated statements hit the
  /// parse/plan cache and skip the parser entirely.
  Result<engine::ExecResult> Execute(std::string_view sql_text,
                                     std::vector<Value> params = {});

  /// Cache-aware parse: returns the cached plan for `sql_text` or parses and
  /// admits it. The plan's AST is immutable and shared; adaptors hold it
  /// across executions (prepared statements) and feed it to ExecutePlan.
  Result<std::shared_ptr<const StatementPlan>> GetOrParse(
      std::string_view sql_text);

  /// Runs the pipeline for a cached plan. Zero-parameter SELECTs outside of
  /// feature interceptors reuse the plan's routed/rewritten form (computed at
  /// most once per rule epoch) and jump straight to the executor; everything
  /// else takes the regular ExecuteStatement pipeline on the shared AST.
  Result<engine::ExecResult> ExecutePlan(const StatementPlan& plan,
                                         std::vector<Value> params,
                                         ConnectionSource* txn_source,
                                         UnitObserver* observer = nullptr);

  /// The route a statement would take (DistSQL PREVIEW / tests).
  Result<RouteResult> PreviewRoute(const sql::Statement& stmt,
                                   const std::vector<Value>& params) const;

  DataSourceRegistry* data_sources() { return &registry_; }
  const net::LatencyModel& network() const { return network_; }
  const sql::Dialect& dialect() const { return dialect_; }
  const RuntimeConfig& config() const { return config_; }

  /// Parse/plan cache observability: hits, misses, evictions, residency.
  CacheStats statement_cache_stats() const { return stmt_cache_.stats(); }
  const StatementCache& statement_cache() const { return stmt_cache_; }

  /// Last chosen connection mode (observability for Fig. 15 analysis).
  ConnectionMode last_connection_mode() const {
    return last_mode_.load(std::memory_order_relaxed);
  }

 private:
  /// Fills generated keys into INSERTs on tables with a key generator: the
  /// keys are appended to `params` behind new placeholders, so the statement
  /// stays stable across executions.
  Result<sql::StatementPtr> ApplyKeyGeneration(const sql::Statement& stmt,
                                               std::vector<Value>* params,
                                               int64_t* generated) const;

  RuntimeConfig config_;
  net::LatencyModel network_;
  const sql::Dialect& dialect_;
  DataSourceRegistry registry_;
  std::unique_ptr<ShardingRule> rule_;
  ExecutionEngine executor_;
  StatementCache stmt_cache_;
  MergeEngine merger_;
  std::vector<std::shared_ptr<StatementInterceptor>> interceptors_;
  std::atomic<ConnectionMode> last_mode_{ConnectionMode::kMemoryStrictly};
};

}  // namespace sphere::core

#endif  // SPHERE_CORE_RUNTIME_H_
