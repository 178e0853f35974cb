#include "transaction/manager.h"

#include "common/metrics.h"
#include "common/strings.h"
#include "sql/condition.h"

namespace sphere::transaction {

namespace {

/// Branch/outcome accounting (DESIGN.md §13). Pointers resolve once; the
/// registry owns the counters for the process lifetime.
metrics::Counter* TxnCounter(const char* name) {
  return metrics::Registry::Instance().GetCounter(name);
}

}  // namespace

DistributedTransaction::DistributedTransaction(TransactionType type,
                                               TransactionContext* context)
    : type_(type), context_(context) {
  switch (type_) {
    case TransactionType::kLocal:
      xid_ = "";
      break;
    case TransactionType::kXa:
      xid_ = context_->NewXid();
      break;
    case TransactionType::kBase:
      xid_ = context_->tc()->BeginGlobal();
      break;
  }
}

DistributedTransaction::~DistributedTransaction() {
  if (active_) {
    (void)Rollback();
  }
}

std::vector<std::string> DistributedTransaction::Participants() const {
  std::vector<std::string> out;
  out.reserve(branches_.size());
  for (const auto& [ds, lease] : branches_) out.push_back(ds);
  return out;
}

Result<net::RemoteConnection*> DistributedTransaction::TransactionConnection(
    const std::string& data_source) {
  if (!active_) {
    return Status::TransactionError("transaction already completed");
  }
  auto it = branches_.find(data_source);
  if (it != branches_.end()) return it->second.get();

  net::DataSource* ds = context_->registry()->Find(data_source);
  if (ds == nullptr) return Status::NotFound("data source " + data_source);
  net::ConnectionPool::Lease lease = ds->pool().Acquire();
  net::RemoteConnection* conn = lease.get();
  switch (type_) {
    case TransactionType::kLocal:
      SPHERE_RETURN_NOT_OK(conn->Begin());
      break;
    case TransactionType::kXa:
      SPHERE_RETURN_NOT_OK(conn->Begin(xid_));
      break;
    case TransactionType::kBase:
      // AT mode: no long-lived local transaction — statements commit locally
      // with per-statement transactions; register the branch with the TC.
      SPHERE_RETURN_NOT_OK(context_->tc()->RegisterBranch(xid_, data_source));
      break;
  }
  branches_.emplace(data_source, std::move(lease));
  static metrics::Counter* opened = TxnCounter("txn.branches.opened");
  opened->Increment();
  return conn;
}

// ---------------------------------------------------------------------------
// BASE (Seata-AT) per-unit hooks
// ---------------------------------------------------------------------------

Status DistributedTransaction::BeforeUnit(net::RemoteConnection* conn,
                                          const core::SQLUnit& unit) {
  if (type_ != TransactionType::kBase) return Status::OK();
  // DML units always carry their rewritten AST (DESIGN.md §10); text units
  // are reads or DDL, which need no undo.
  const sql::Statement* stmt = unit.stmt.get();
  if (stmt == nullptr) return Status::OK();

  switch (stmt->kind()) {
    case sql::StatementKind::kInsert: {
      // Undo = delete the inserted rows (matched on all inserted columns).
      const auto& ins = static_cast<const sql::InsertStatement&>(*stmt);
      UndoRecord undo;
      undo.kind = UndoRecord::Kind::kInsert;
      undo.data_source = unit.data_source;
      undo.table = ins.table.name;
      undo.columns = ins.columns;
      for (const auto& row : ins.rows) {
        Row values;
        for (const auto& e : row) {
          auto v = sql::EvalConstExpr(e.get(), unit.params);
          values.push_back(v.value_or(Value::Null()));
        }
        undo.rows.push_back(std::move(values));
      }
      SPHERE_RETURN_NOT_OK(context_->tc()->AddUndo(xid_, std::move(undo)));
      break;
    }
    case sql::StatementKind::kUpdate:
    case sql::StatementKind::kDelete: {
      // Undo = before image captured by an extra query (the AT-mode image
      // select of Fig. 6's "save redo and undo logs" step).
      std::string table;
      const sql::Expr* where = nullptr;
      if (stmt->kind() == sql::StatementKind::kUpdate) {
        const auto& up = static_cast<const sql::UpdateStatement&>(*stmt);
        table = up.table.name;
        where = up.where.get();
      } else {
        const auto& del = static_cast<const sql::DeleteStatement&>(*stmt);
        table = del.table.name;
        where = del.where.get();
      }
      UndoRecord undo;
      undo.kind = UndoRecord::Kind::kMutate;
      undo.data_source = unit.data_source;
      undo.table = table;
      std::string image_sql = "SELECT * FROM " + table;
      if (where != nullptr) {
        sql::ExprPtr inlined = sql::InlineParamsExpr(where, unit.params);
        undo.where_sql = inlined->ToSQL(sql::Dialect::MySQL());
        image_sql += " WHERE " + undo.where_sql;
      }
      SPHERE_ASSIGN_OR_RETURN(engine::ExecResult image, conn->Execute(image_sql));
      if (!image.is_query) {
        return Status::Internal("image query returned non-query result");
      }
      undo.columns = image.result_set->columns();
      undo.rows = engine::DrainResultSet(image.result_set.get());
      SPHERE_RETURN_NOT_OK(context_->tc()->AddUndo(xid_, std::move(undo)));
      break;
    }
    default:
      return Status::OK();  // reads need no undo
  }
  // Statement-local transaction: commits in AfterUnit (branch-local commit).
  return conn->Begin();
}

Status DistributedTransaction::AfterUnit(net::RemoteConnection* conn,
                                         const core::SQLUnit& unit,
                                         const Result<engine::ExecResult>& result) {
  if (type_ != TransactionType::kBase) return Status::OK();
  if (!result.ok()) {
    // The unit failed: roll back its statement-local transaction and report
    // the branch as failed so CommitBase turns into a global rollback.
    if (conn->in_transaction()) {
      (void)conn->Rollback();
    }
    // The unit's original error must be what propagates; ReportBranch can
    // only fail if the global txn is already gone from the coordinator, in
    // which case there is nothing left to mark failed.
    (void)context_->tc()->ReportBranch(xid_, unit.data_source, false);
    static metrics::Counter* failures = TxnCounter("txn.branch.failures");
    failures->Increment();
    return result.status();
  }
  if (!conn->in_transaction()) return Status::OK();  // read-only unit
  Status st = conn->Commit();
  static metrics::Counter* commits = TxnCounter("txn.branch.commits");
  static metrics::Counter* failures = TxnCounter("txn.branch.failures");
  (st.ok() ? commits : failures)->Increment();
  SPHERE_RETURN_NOT_OK(
      context_->tc()->ReportBranch(xid_, unit.data_source, st.ok()));
  return st;
}

// ---------------------------------------------------------------------------
// Completion
// ---------------------------------------------------------------------------

void DistributedTransaction::ReleaseBranches() {
  branches_.clear();
  active_ = false;
}

Status DistributedTransaction::CommitLocal() {
  // 1PC: forward commit everywhere; failures are deliberately ignored
  // (paper Fig. 5(d): "Even if some data source commits fail, ShardingSphere
  // will ignore it").
  for (auto& [ds, lease] : branches_) {
    (void)lease->Commit();
  }
  ReleaseBranches();
  return Status::OK();
}

Status DistributedTransaction::CommitXa() {
  std::vector<std::string> participants = Participants();
  XaLogStore* log = context_->xa_log();
  log->Record(xid_, XaLogStore::State::kPreparing, participants);

  // Phase 1: prepare votes.
  std::vector<std::string> prepared;
  for (auto& [ds, lease] : branches_) {
    Status st = lease->PrepareXa();
    if (!st.ok()) {
      // Vote NO: the failing branch already rolled back; roll back the rest.
      log->Transition(xid_, XaLogStore::State::kAborting);
      for (auto& [other, other_lease] : branches_) {
        if (other == ds) continue;
        bool was_prepared = false;
        for (const auto& p : prepared) was_prepared = was_prepared || p == other;
        if (was_prepared) {
          (void)other_lease->RollbackPrepared(xid_);
        } else {
          (void)other_lease->Rollback();
        }
      }
      // Build the error before ReleaseBranches(): `ds` references the map
      // key, which dies when the branch map is cleared.
      Status err = Status::TransactionError("XA prepare failed on " + ds +
                                            ": " + st.message());
      log->Transition(xid_, XaLogStore::State::kAborted);
      log->Forget(xid_);
      ReleaseBranches();
      return err;
    }
    prepared.push_back(ds);
  }

  // Decision is durable before phase 2 (paper Fig. 5(c) "record logs").
  log->Transition(xid_, XaLogStore::State::kCommitting);

  // Phase 2: commit prepared branches.
  bool all_acked = true;
  for (auto& [ds, lease] : branches_) {
    Status st = lease->CommitPrepared(xid_);
    if (!st.ok()) all_acked = false;  // stays in log; recovery re-commits
  }
  if (all_acked) {
    log->Transition(xid_, XaLogStore::State::kCommitted);
    log->Forget(xid_);
  }
  ReleaseBranches();
  return Status::OK();
}

Status DistributedTransaction::CommitBase() {
  if (context_->tc()->HasFailedBranch(xid_)) {
    SPHERE_RETURN_NOT_OK(RollbackBase());
    return Status::TransactionError("BASE branch failed; rolled back " + xid_);
  }
  SPHERE_ASSIGN_OR_RETURN(std::vector<std::string> branch_names,
                          context_->tc()->GlobalCommit(xid_));
  // Phase 2: each data source deletes its undo logs (paper Fig. 6); modeled
  // as one cheap command round trip per branch.
  for (const auto& ds : branch_names) {
    auto it = branches_.find(ds);
    if (it != branches_.end()) {
      (void)it->second->Execute("SET base_undo_cleanup = 1");
    }
  }
  ReleaseBranches();
  return Status::OK();
}

std::vector<std::string> CompensationSQL(const UndoRecord& undo) {
  std::vector<std::string> out;
  auto insert_rows = [&undo](std::vector<std::string>* sqls) {
    if (undo.rows.empty()) return;
    std::string sql_text = "INSERT INTO " + undo.table + " (";
    for (size_t i = 0; i < undo.columns.size(); ++i) {
      if (i) sql_text += ", ";
      sql_text += undo.columns[i];
    }
    sql_text += ") VALUES ";
    for (size_t r = 0; r < undo.rows.size(); ++r) {
      if (r) sql_text += ", ";
      sql_text += "(";
      for (size_t i = 0; i < undo.rows[r].size(); ++i) {
        if (i) sql_text += ", ";
        sql_text += undo.rows[r][i].ToSQLLiteral();
      }
      sql_text += ")";
    }
    sqls->push_back(std::move(sql_text));
  };

  if (undo.kind == UndoRecord::Kind::kInsert) {
    // Delete each inserted row, matching all inserted columns.
    for (const auto& row : undo.rows) {
      std::string sql_text = "DELETE FROM " + undo.table + " WHERE ";
      for (size_t i = 0; i < undo.columns.size() && i < row.size(); ++i) {
        if (i) sql_text += " AND ";
        sql_text += undo.columns[i];
        sql_text += row[i].is_null() ? " IS NULL" : (" = " + row[i].ToSQLLiteral());
      }
      out.push_back(std::move(sql_text));
    }
    return out;
  }
  // kMutate: remove the (possibly updated) rows the predicate selects, then
  // restore the before image. Assumes the predicate is stable under the
  // update (true for key-based writes, the AT-mode sweet spot).
  std::string del = "DELETE FROM " + undo.table;
  if (!undo.where_sql.empty()) del += " WHERE " + undo.where_sql;
  out.push_back(std::move(del));
  insert_rows(&out);
  return out;
}

Status DistributedTransaction::RollbackBase() {
  SPHERE_ASSIGN_OR_RETURN(std::vector<UndoRecord> undos,
                          context_->tc()->GlobalRollback(xid_));
  Status first_error = Status::OK();
  for (const UndoRecord& undo : undos) {
    auto conn_it = branches_.find(undo.data_source);
    if (conn_it == branches_.end()) continue;
    net::RemoteConnection* conn = conn_it->second.get();
    for (const std::string& sql_text : CompensationSQL(undo)) {
      auto r = conn->Execute(sql_text);
      if (!r.ok() && first_error.ok()) first_error = r.status();
    }
  }
  ReleaseBranches();
  return first_error;
}

Status DistributedTransaction::Commit() {
  if (!active_) return Status::TransactionError("transaction not active");
  Status st = Status::Internal("bad transaction type");
  switch (type_) {
    case TransactionType::kLocal:
      st = CommitLocal();
      break;
    case TransactionType::kXa:
      st = CommitXa();
      break;
    case TransactionType::kBase:
      st = CommitBase();
      break;
  }
  // A failed global commit always rolled the branches back (XA vote-no,
  // BASE failed-branch), so it counts as a rollback outcome.
  static metrics::Counter* commits = TxnCounter("txn.commits");
  static metrics::Counter* rollbacks = TxnCounter("txn.rollbacks");
  (st.ok() ? commits : rollbacks)->Increment();
  return st;
}

Status DistributedTransaction::Rollback() {
  if (!active_) return Status::TransactionError("transaction not active");
  static metrics::Counter* rollbacks = TxnCounter("txn.rollbacks");
  rollbacks->Increment();
  if (type_ == TransactionType::kBase) {
    return RollbackBase();
  }
  for (auto& [ds, lease] : branches_) {
    (void)lease->Rollback();
  }
  ReleaseBranches();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

Result<int> XaRecoveryManager::RecoverAll() {
  int resolved = 0;
  for (const auto& [xid, entry] : context_->xa_log()->Unresolved()) {
    bool commit = entry.state == XaLogStore::State::kCommitting;
    bool all_ok = true;
    for (const auto& ds_name : entry.participants) {
      net::DataSource* ds = context_->registry()->Find(ds_name);
      if (ds == nullptr) {
        all_ok = false;
        continue;
      }
      auto lease = ds->pool().Acquire();
      Status st = commit ? lease->CommitPrepared(xid)
                         : lease->RollbackPrepared(xid);
      // NotFound = the branch already completed phase 2 before the crash.
      if (!st.ok() && st.code() != StatusCode::kNotFound) all_ok = false;
    }
    if (all_ok) {
      context_->xa_log()->Transition(xid, commit ? XaLogStore::State::kCommitted
                                                 : XaLogStore::State::kAborted);
      context_->xa_log()->Forget(xid);
      ++resolved;
    }
  }
  return resolved;
}

}  // namespace sphere::transaction
