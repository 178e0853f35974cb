#include <gtest/gtest.h>

#include "adaptor/jdbc.h"
#include "common/strings.h"
#include "transaction/manager.h"

namespace sphere::transaction {
namespace {

using adaptor::ShardingConnection;
using adaptor::ShardingDataSource;

/// Fixture: t_acct MOD-sharded by id into 4 tables over 2 nodes, seeded with
/// balances.
class TransactionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = std::make_unique<ShardingDataSource>(core::RuntimeConfig(),
                                               net::NetworkConfig::Zero());
    for (int i = 0; i < 2; ++i) {
      nodes_.push_back(
          std::make_unique<engine::StorageNode>("ds_" + std::to_string(i)));
      ASSERT_TRUE(ds_->AttachNode(nodes_.back()->name(), nodes_.back().get()).ok());
    }
    core::ShardingRuleConfig config;
    config.default_data_source = "ds_0";
    core::TableRuleConfig t;
    t.logic_table = "t_acct";
    t.auto_resources = {"ds_0", "ds_1"};
    t.auto_sharding_count = 4;
    t.table_strategy.columns = {"id"};
    t.table_strategy.algorithm_type = "MOD";
    t.table_strategy.props.Set("sharding-count", "4");
    config.tables.push_back(std::move(t));
    ASSERT_TRUE(ds_->SetRule(std::move(config)).ok());

    conn_ = ds_->GetConnection();
    ASSERT_TRUE(conn_->ExecuteSQL("CREATE TABLE t_acct (id BIGINT PRIMARY KEY, "
                                  "balance DOUBLE, owner VARCHAR(32))")
                    .ok());
    for (int id = 0; id < 8; ++id) {
      ASSERT_TRUE(conn_->ExecuteSQL(StrFormat(
                          "INSERT INTO t_acct (id, balance, owner) VALUES "
                          "(%d, 100.0, 'o%d')", id, id))
                      .ok());
    }
  }

  double BalanceOf(int id) {
    auto rs = conn_->ExecuteQuery("SELECT balance FROM t_acct WHERE id = ?",
                                  {Value(id)});
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    if (!rs.ok() || !rs->Next()) return -1;
    return rs->GetDouble(0);
  }

  int64_t CountRows() {
    auto rs = conn_->ExecuteQuery("SELECT COUNT(*) FROM t_acct");
    EXPECT_TRUE(rs.ok());
    rs->Next();
    return rs->GetInt(0);
  }

  void SetType(TransactionType type) {
    ASSERT_TRUE(conn_->SetTransactionType(type).ok());
  }

  std::unique_ptr<ShardingDataSource> ds_;
  std::vector<std::unique_ptr<engine::StorageNode>> nodes_;
  std::unique_ptr<ShardingConnection> conn_;
};

class TypedTransactionTest
    : public TransactionTest,
      public ::testing::WithParamInterface<TransactionType> {};

TEST_P(TypedTransactionTest, CommitMakesMultiShardWritesDurable) {
  SetType(GetParam());
  ASSERT_TRUE(conn_->Begin().ok());
  // ids 1 and 2 live on different shards/data sources.
  ASSERT_TRUE(conn_->ExecuteSQL(
                  "UPDATE t_acct SET balance = balance - 30 WHERE id = 1")
                  .ok());
  ASSERT_TRUE(conn_->ExecuteSQL(
                  "UPDATE t_acct SET balance = balance + 30 WHERE id = 2")
                  .ok());
  ASSERT_TRUE(conn_->Commit().ok());
  EXPECT_DOUBLE_EQ(BalanceOf(1), 70.0);
  EXPECT_DOUBLE_EQ(BalanceOf(2), 130.0);
}

TEST_P(TypedTransactionTest, RollbackRestoresAllShards) {
  SetType(GetParam());
  ASSERT_TRUE(conn_->Begin().ok());
  ASSERT_TRUE(conn_->ExecuteSQL(
                  "UPDATE t_acct SET balance = balance - 30 WHERE id = 1")
                  .ok());
  ASSERT_TRUE(conn_->ExecuteSQL(
                  "UPDATE t_acct SET balance = balance + 30 WHERE id = 2")
                  .ok());
  ASSERT_TRUE(conn_->ExecuteSQL("INSERT INTO t_acct (id, balance, owner) "
                                "VALUES (100, 5.0, 'new')")
                  .ok());
  ASSERT_TRUE(conn_->Rollback().ok());
  EXPECT_DOUBLE_EQ(BalanceOf(1), 100.0);
  EXPECT_DOUBLE_EQ(BalanceOf(2), 100.0);
  EXPECT_EQ(CountRows(), 8);
}

TEST_P(TypedTransactionTest, DeleteRolledBack) {
  SetType(GetParam());
  ASSERT_TRUE(conn_->Begin().ok());
  ASSERT_TRUE(conn_->ExecuteSQL("DELETE FROM t_acct WHERE id IN (0, 1, 2, 3)").ok());
  EXPECT_EQ(CountRows(), 4);
  ASSERT_TRUE(conn_->Rollback().ok());
  EXPECT_EQ(CountRows(), 8);
}

TEST_P(TypedTransactionTest, ConnectionDropRollsBack) {
  SetType(GetParam());
  {
    auto conn2 = ds_->GetConnection();
    ASSERT_TRUE(conn2->SetTransactionType(GetParam()).ok());
    ASSERT_TRUE(conn2->Begin().ok());
    ASSERT_TRUE(conn2->ExecuteSQL(
                    "UPDATE t_acct SET balance = 0 WHERE id = 5").ok());
    // conn2 destroyed without commit.
  }
  EXPECT_DOUBLE_EQ(BalanceOf(5), 100.0);
}

INSTANTIATE_TEST_SUITE_P(AllTypes, TypedTransactionTest,
                         ::testing::Values(TransactionType::kLocal,
                                           TransactionType::kXa,
                                           TransactionType::kBase),
                         [](const auto& info) {
                           return TransactionTypeName(info.param);
                         });

TEST_F(TransactionTest, XaPrepareFailureAbortsEverything) {
  SetType(TransactionType::kXa);
  nodes_[1]->InjectPrepareFailure();
  ASSERT_TRUE(conn_->Begin().ok());
  ASSERT_TRUE(conn_->ExecuteSQL(
                  "UPDATE t_acct SET balance = 1 WHERE id = 4").ok());  // ds_0
  ASSERT_TRUE(conn_->ExecuteSQL(
                  "UPDATE t_acct SET balance = 1 WHERE id = 5").ok());  // ds_1
  Status st = conn_->Commit();
  EXPECT_FALSE(st.ok());
  // Atomicity: the branch that voted OK must also roll back.
  EXPECT_DOUBLE_EQ(BalanceOf(4), 100.0);
  EXPECT_DOUBLE_EQ(BalanceOf(5), 100.0);
  EXPECT_EQ(ds_->transaction_context()->xa_log()->size(), 0u);
}

TEST_F(TransactionTest, XaLocalDivergenceOnCommitFailure) {
  // The contrast the paper draws (Fig. 5(d)): LOCAL (1PC) ignores a failing
  // participant and diverges, XA would have aborted.
  SetType(TransactionType::kLocal);
  nodes_[1]->InjectCommitFailure();
  ASSERT_TRUE(conn_->Begin().ok());
  ASSERT_TRUE(conn_->ExecuteSQL(
                  "UPDATE t_acct SET balance = 7 WHERE id = 4").ok());  // ds_0
  ASSERT_TRUE(conn_->ExecuteSQL(
                  "UPDATE t_acct SET balance = 7 WHERE id = 5").ok());  // ds_1
  EXPECT_TRUE(conn_->Commit().ok());  // LOCAL reports success regardless
  EXPECT_DOUBLE_EQ(BalanceOf(4), 7.0);    // committed
  EXPECT_DOUBLE_EQ(BalanceOf(5), 100.0);  // silently rolled back
}

TEST_F(TransactionTest, XaRecoveryCommitsInDoubtBranches) {
  // Drive the 2PC manually so we can "crash" between phase 1 and phase 2.
  auto* txn_ctx = ds_->transaction_context();
  {
    DistributedTransaction txn(TransactionType::kXa, txn_ctx);
    auto c0 = txn.TransactionConnection("ds_0");
    ASSERT_TRUE(c0.ok());
    ASSERT_TRUE((*c0)->Execute("UPDATE t_acct_0 SET balance = 66 WHERE id = 4").ok());
    auto c1 = txn.TransactionConnection("ds_1");
    ASSERT_TRUE(c1.ok());
    ASSERT_TRUE((*c1)->Execute("UPDATE t_acct_1 SET balance = 66 WHERE id = 5").ok());
    // Prepare both branches, then "crash" before phase 2 completes.
    ASSERT_TRUE((*c0)->PrepareXa().ok());
    ASSERT_TRUE((*c1)->PrepareXa().ok());
    txn_ctx->xa_log()->Record(txn.xid(), XaLogStore::State::kCommitting,
                              {"ds_0", "ds_1"});
    // Transaction object dies without completing (destructor rollback is a
    // no-op for already-prepared branches: they are owned by the RM now).
  }
  EXPECT_EQ(nodes_[0]->InDoubtXids().size(), 1u);
  EXPECT_EQ(nodes_[1]->InDoubtXids().size(), 1u);

  XaRecoveryManager recovery(txn_ctx);
  auto resolved = recovery.RecoverAll();
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, 1);
  EXPECT_TRUE(nodes_[0]->InDoubtXids().empty());
  EXPECT_TRUE(nodes_[1]->InDoubtXids().empty());
  EXPECT_DOUBLE_EQ(BalanceOf(4), 66.0);
  EXPECT_DOUBLE_EQ(BalanceOf(5), 66.0);
}

TEST_F(TransactionTest, XaRecoveryRollsBackPreparingState) {
  auto* txn_ctx = ds_->transaction_context();
  {
    DistributedTransaction txn(TransactionType::kXa, txn_ctx);
    auto c0 = txn.TransactionConnection("ds_0");
    ASSERT_TRUE(c0.ok());
    ASSERT_TRUE((*c0)->Execute("UPDATE t_acct_0 SET balance = 1 WHERE id = 0").ok());
    ASSERT_TRUE((*c0)->PrepareXa().ok());
    // Crash during prepare phase: log still says kPreparing.
    txn_ctx->xa_log()->Record(txn.xid(), XaLogStore::State::kPreparing, {"ds_0"});
  }
  XaRecoveryManager recovery(txn_ctx);
  ASSERT_TRUE(recovery.RecoverAll().ok());
  EXPECT_DOUBLE_EQ(BalanceOf(0), 100.0);  // rolled back
  EXPECT_TRUE(nodes_[0]->InDoubtXids().empty());
}

TEST_F(TransactionTest, BaseUndoInsertCompensation) {
  UndoRecord undo;
  undo.kind = UndoRecord::Kind::kInsert;
  undo.table = "t_acct_0";
  undo.columns = {"id", "balance"};
  undo.rows = {{Value(1), Value(2.5)}, {Value(2), Value::Null()}};
  auto sqls = CompensationSQL(undo);
  ASSERT_EQ(sqls.size(), 2u);
  EXPECT_EQ(sqls[0], "DELETE FROM t_acct_0 WHERE id = 1 AND balance = 2.5");
  EXPECT_EQ(sqls[1], "DELETE FROM t_acct_0 WHERE id = 2 AND balance IS NULL");
}

TEST_F(TransactionTest, BaseUndoMutateCompensation) {
  UndoRecord undo;
  undo.kind = UndoRecord::Kind::kMutate;
  undo.table = "t_acct_0";
  undo.columns = {"id", "balance"};
  undo.rows = {{Value(4), Value(100.0)}};
  undo.where_sql = "(id = 4)";
  auto sqls = CompensationSQL(undo);
  ASSERT_EQ(sqls.size(), 2u);
  EXPECT_EQ(sqls[0], "DELETE FROM t_acct_0 WHERE (id = 4)");
  EXPECT_EQ(sqls[1], "INSERT INTO t_acct_0 (id, balance) VALUES (4, 100)");
}

TEST_F(TransactionTest, BaseBranchLocalCommitVisibleEarly) {
  // BASE relaxes isolation: branch-local commits are visible before global
  // commit (soft state / eventual consistency, paper §IV-B).
  SetType(TransactionType::kBase);
  ASSERT_TRUE(conn_->Begin().ok());
  ASSERT_TRUE(conn_->ExecuteSQL(
                  "UPDATE t_acct SET balance = 42 WHERE id = 6").ok());
  {
    auto other = ds_->GetConnection();
    auto rs = other->ExecuteQuery("SELECT balance FROM t_acct WHERE id = 6");
    ASSERT_TRUE(rs.ok());
    ASSERT_TRUE(rs->Next());
    EXPECT_DOUBLE_EQ(rs->GetDouble(0), 42.0);  // already visible
  }
  ASSERT_TRUE(conn_->Commit().ok());
  EXPECT_EQ(ds_->transaction_context()->tc()->active_transactions(), 0u);
}

TEST_F(TransactionTest, BaseFailedUnitForcesGlobalRollback) {
  // Regression: a unit that FAILS mid-transaction must reach the observer so
  // the branch is reported failed — previously failed units were skipped and
  // Commit() reported success while a participant had silently failed.
  SetType(TransactionType::kBase);
  ASSERT_TRUE(conn_->Begin().ok());
  ASSERT_TRUE(conn_->ExecuteSQL(
                  "UPDATE t_acct SET balance = 42 WHERE id = 1").ok());
  // Duplicate primary key: this unit fails on its shard. The balance value
  // differs from the existing row's so the insert-compensation DELETE (which
  // matches all inserted columns) cannot touch the pre-existing row.
  EXPECT_FALSE(conn_->ExecuteSQL("INSERT INTO t_acct (id, balance, owner) "
                                 "VALUES (2, 55.0, 'dup')")
                   .ok());
  Status commit = conn_->Commit();
  EXPECT_FALSE(commit.ok());
  EXPECT_EQ(commit.code(), StatusCode::kTransactionError);
  // The successful first write was compensated; nothing leaked.
  EXPECT_DOUBLE_EQ(BalanceOf(1), 100.0);
  EXPECT_DOUBLE_EQ(BalanceOf(2), 100.0);
  EXPECT_EQ(CountRows(), 8);
  EXPECT_EQ(ds_->transaction_context()->tc()->active_transactions(), 0u);
}

TEST_F(TransactionTest, BaseBranchCommitFailureSurfacesOnCommit) {
  // A branch-local commit failure (injected at the storage node) must mark
  // the branch failed and turn the global commit into a rollback.
  SetType(TransactionType::kBase);
  ASSERT_TRUE(conn_->Begin().ok());
  for (auto& node : nodes_) node->InjectCommitFailure();
  EXPECT_FALSE(conn_->ExecuteSQL(
                   "UPDATE t_acct SET balance = 7 WHERE id = 1").ok());
  Status commit = conn_->Commit();
  EXPECT_FALSE(commit.ok());
  EXPECT_EQ(commit.code(), StatusCode::kTransactionError);
  EXPECT_DOUBLE_EQ(BalanceOf(1), 100.0);
}

// BASE image queries re-run a DML's WHERE as standalone text, so every
// parameter must be inlined, including ones nested in a function call or a
// CASE. The WHERE below cannot be routed by value, so every shard takes an
// image; a later failing branch then forces compensation from those images.
TEST_F(TransactionTest, BaseImageQueryInlinesParamInsideFunction) {
  SetType(TransactionType::kBase);
  ASSERT_TRUE(conn_->Begin().ok());
  auto up = conn_->ExecuteSQL("UPDATE t_acct SET balance = ? WHERE id = ABS(?)",
                              {Value(42.0), Value(-3)});
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  EXPECT_EQ(up->affected_rows, 1);
  EXPECT_DOUBLE_EQ(BalanceOf(3), 42.0);  // branch-local commit is visible
  EXPECT_FALSE(conn_->ExecuteSQL("INSERT INTO t_acct (id, balance, owner) "
                                 "VALUES (2, 55.0, 'dup')")
                   .ok());
  EXPECT_FALSE(conn_->Commit().ok());
  EXPECT_DOUBLE_EQ(BalanceOf(3), 100.0);  // pre-image restored
  EXPECT_EQ(CountRows(), 8);
  EXPECT_EQ(ds_->transaction_context()->tc()->active_transactions(), 0u);
}

TEST_F(TransactionTest, BaseImageQueryInlinesParamInsideCase) {
  SetType(TransactionType::kBase);
  ASSERT_TRUE(conn_->Begin().ok());
  auto up = conn_->ExecuteSQL(
      "UPDATE t_acct SET balance = balance + 1 "
      "WHERE id = CASE WHEN ? > 0 THEN 5 ELSE 6 END",
      {Value(1)});
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  EXPECT_EQ(up->affected_rows, 1);
  EXPECT_DOUBLE_EQ(BalanceOf(5), 101.0);
  EXPECT_FALSE(conn_->ExecuteSQL("INSERT INTO t_acct (id, balance, owner) "
                                 "VALUES (2, 55.0, 'dup')")
                   .ok());
  EXPECT_FALSE(conn_->Commit().ok());
  EXPECT_DOUBLE_EQ(BalanceOf(5), 100.0);  // pre-image restored
  EXPECT_DOUBLE_EQ(BalanceOf(6), 100.0);
  EXPECT_EQ(CountRows(), 8);
  EXPECT_EQ(ds_->transaction_context()->tc()->active_transactions(), 0u);
}

TEST_F(TransactionTest, ParseTransactionTypeNames) {
  EXPECT_EQ(*ParseTransactionType("local"), TransactionType::kLocal);
  EXPECT_EQ(*ParseTransactionType("XA"), TransactionType::kXa);
  EXPECT_EQ(*ParseTransactionType("Base"), TransactionType::kBase);
  EXPECT_FALSE(ParseTransactionType("2PC").ok());
  EXPECT_STREQ(TransactionTypeName(TransactionType::kXa), "XA");
}

TEST_F(TransactionTest, SwitchTypeInsideTransactionRejected) {
  ASSERT_TRUE(conn_->Begin().ok());
  ASSERT_TRUE(conn_->ExecuteSQL(
                  "UPDATE t_acct SET balance = 1 WHERE id = 1").ok());
  EXPECT_FALSE(conn_->SetTransactionType(TransactionType::kXa).ok());
  ASSERT_TRUE(conn_->Rollback().ok());
  EXPECT_TRUE(conn_->SetTransactionType(TransactionType::kXa).ok());
}

}  // namespace
}  // namespace sphere::transaction
