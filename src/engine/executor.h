#ifndef SPHERE_ENGINE_EXECUTOR_H_
#define SPHERE_ENGINE_EXECUTOR_H_

#include <optional>
#include <vector>

#include "common/result.h"
#include "engine/evaluator.h"
#include "engine/pipeline.h"
#include "engine/result_set.h"
#include "engine/scan_cursor.h"
#include "sql/ast.h"
#include "storage/database.h"
#include "storage/txn.h"

namespace sphere::engine {

/// Executes one parsed statement against a storage::Database — the SQL
/// execution layer that makes every storage node a small standalone RDBMS.
///
/// Supported surface: SELECT with joins (inner/left/cross, hash join on
/// equi-conditions), WHERE, GROUP BY + HAVING, the five SQL aggregates
/// (including DISTINCT), ORDER BY, LIMIT/OFFSET, DISTINCT; INSERT (multi-row),
/// UPDATE, DELETE; CREATE/DROP/TRUNCATE TABLE, CREATE INDEX. Point and range
/// predicates on the primary key and equality on secondarily indexed columns
/// use index scans.
class Executor {
 public:
  Executor(storage::Database* db, storage::TransactionManager* txn_manager)
      : db_(db), txn_manager_(txn_manager) {}

  /// Executes `stmt`. When `txn` is non-null, DML changes append undo records
  /// to it; otherwise each statement is atomic by itself (auto-commit).
  Result<ExecResult> Execute(const sql::Statement& stmt,
                             const std::vector<Value>& params,
                             storage::Transaction* txn);

 private:
  struct SourceRows {
    BoundColumns columns;
    std::vector<Row> rows;
  };

  Result<ExecResult> ExecuteSelect(const sql::SelectStatement& stmt,
                                   const std::vector<Value>& params);
  Result<ExecResult> ExecuteInsert(const sql::InsertStatement& stmt,
                                   const std::vector<Value>& params,
                                   storage::Transaction* txn);
  Result<ExecResult> ExecuteUpdate(const sql::UpdateStatement& stmt,
                                   const std::vector<Value>& params,
                                   storage::Transaction* txn);
  Result<ExecResult> ExecuteDelete(const sql::DeleteStatement& stmt,
                                   const std::vector<Value>& params,
                                   storage::Transaction* txn);
  Result<ExecResult> ExecuteDDL(const sql::Statement& stmt);

  /// Picks the access path (PK point/range, secondary index, or full scan)
  /// for one table reference under `where`.
  Result<ScanPlan> PlanScan(const sql::TableRef& ref, const sql::Expr* where,
                            const std::vector<Value>& params);

  /// Streaming fast path for single-table, non-aggregated SELECTs: drives a
  /// lazy scan cursor through filter → projection with LIMIT-aware early
  /// termination, index-order sort elision and bounded top-k (DESIGN.md §9).
  /// Returns nullopt when the statement needs the materializing path.
  Result<std::optional<ExecResult>> TryStreamSelect(
      const sql::SelectStatement& stmt, const std::vector<Value>& params);

  /// Scans one table (index-assisted when `where` permits) into memory.
  Result<SourceRows> ScanTable(const sql::TableRef& ref,
                               const sql::Expr* where,
                               const std::vector<Value>& params);

  /// Builds the joined/filtered source relation of a SELECT.
  Result<SourceRows> BuildSource(const sql::SelectStatement& stmt,
                                 const std::vector<Value>& params);

  /// Auto-commit epilogue: restamps the statement's pending versions with a
  /// fresh commit epoch. Takes the commit section *before* the table latch
  /// (lock-rank order), so the statement's writer latch must already be
  /// released.
  void CommitAutoCommit(storage::Table* table, const std::vector<Value>& pks,
                        int64_t writer);

  storage::Database* db_;
  storage::TransactionManager* txn_manager_;
  /// Snapshot view for this statement's reads: the transaction's Begin-time
  /// snapshot, a statement-scoped pin (auto-commit SELECT under mvcc), or
  /// latest-committed. Executor is constructed per statement, so these are
  /// statement-scoped.
  storage::ReadView read_view_;
  storage::Snapshot stmt_snapshot_;
  /// The statement's concurrency-control mode, read once by Execute.
  ConcurrencyControl concurrency_ = ConcurrencyControl::kMvcc;
};

}  // namespace sphere::engine

#endif  // SPHERE_ENGINE_EXECUTOR_H_
