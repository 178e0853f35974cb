#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>

#include "adaptor/jdbc.h"
#include "adaptor/proxy.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/strings.h"

namespace sphere::adaptor {
namespace {

class AdaptorTest : public ::testing::Test {
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
    t.logic_table = "t_user";
    t.auto_resources = {"ds_0", "ds_1"};
    t.auto_sharding_count = 4;
    t.table_strategy.columns = {"uid"};
    t.table_strategy.algorithm_type = "MOD";
    t.table_strategy.props.Set("sharding-count", "4");
    t.keygen_column = "uid";
    t.keygen_type = "SNOWFLAKE";
    config.tables.push_back(std::move(t));
    ASSERT_TRUE(ds_->SetRule(std::move(config)).ok());
    conn_ = ds_->GetConnection();
    ASSERT_TRUE(conn_->ExecuteSQL("CREATE TABLE t_user (uid BIGINT PRIMARY KEY, "
                                  "name VARCHAR(32))")
                    .ok());
  }

  std::unique_ptr<ShardingDataSource> ds_;
  std::vector<std::unique_ptr<engine::StorageNode>> nodes_;
  std::unique_ptr<ShardingConnection> conn_;
};

TEST_F(AdaptorTest, StatementExecuteQueryAndUpdate) {
  auto stmt = conn_->CreateStatement();
  auto n = stmt->ExecuteUpdate(
      "INSERT INTO t_user (uid, name) VALUES (1, 'ann'), (2, 'bob')");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2);
  auto rs = stmt->ExecuteQuery("SELECT name FROM t_user WHERE uid = 1");
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rs->Next());
  EXPECT_EQ(rs->GetString(0), "ann");
  EXPECT_FALSE(rs->Next());
}

TEST_F(AdaptorTest, ResultSetTypedGettersByName) {
  ASSERT_TRUE(conn_->ExecuteSQL(
                  "INSERT INTO t_user (uid, name) VALUES (7, 'carol')").ok());
  auto rs = conn_->ExecuteQuery("SELECT uid, name FROM t_user WHERE uid = 7");
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rs->Next());
  EXPECT_EQ(rs->GetInt("uid"), 7);
  EXPECT_EQ(rs->GetString("NAME"), "carol");
  EXPECT_EQ(rs->ColumnIndex("missing"), -1);
}

TEST_F(AdaptorTest, PreparedStatementReuse) {
  auto ps = conn_->PrepareStatement("INSERT INTO t_user (uid, name) VALUES (?, ?)");
  ASSERT_TRUE(ps.ok());
  for (int i = 10; i < 15; ++i) {
    (*ps)->SetInt(1, i);
    (*ps)->SetString(2, "u" + std::to_string(i));
    auto n = (*ps)->ExecuteUpdate();
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 1);
  }
  auto q = conn_->PrepareStatement("SELECT COUNT(*) FROM t_user WHERE uid >= ?");
  ASSERT_TRUE(q.ok());
  (*q)->SetInt(1, 12);
  auto rs = (*q)->ExecuteQuery();
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rs->Next());
  EXPECT_EQ(rs->GetInt(0), 3);
}

TEST_F(AdaptorTest, GeneratedKeysFilledIn) {
  // uid is the generated key column: inserting without it must work and
  // produce snowflake ids.
  auto r = conn_->ExecuteSQL("INSERT INTO t_user (name) VALUES ('keyless')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->last_insert_id, 0);
  auto rs = conn_->ExecuteQuery("SELECT uid FROM t_user WHERE name = 'keyless'");
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rs->Next());
  EXPECT_EQ(rs->GetInt(0), r->last_insert_id);
}

TEST_F(AdaptorTest, AutoCommitOffOpensImplicitTransaction) {
  ASSERT_TRUE(conn_->SetAutoCommit(false).ok());
  ASSERT_TRUE(conn_->ExecuteSQL(
                  "INSERT INTO t_user (uid, name) VALUES (20, 'x')").ok());
  EXPECT_TRUE(conn_->in_transaction());
  ASSERT_TRUE(conn_->Rollback().ok());
  auto rs = conn_->ExecuteQuery("SELECT COUNT(*) FROM t_user");
  rs->Next();
  EXPECT_EQ(rs->GetInt(0), 0);
  ASSERT_TRUE(conn_->SetAutoCommit(true).ok());
}

TEST_F(AdaptorTest, TclThroughSQLText) {
  ASSERT_TRUE(conn_->ExecuteSQL("BEGIN").ok());
  EXPECT_TRUE(conn_->in_transaction());
  ASSERT_TRUE(conn_->ExecuteSQL(
                  "INSERT INTO t_user (uid, name) VALUES (30, 'y')").ok());
  ASSERT_TRUE(conn_->ExecuteSQL("COMMIT").ok());
  EXPECT_FALSE(conn_->in_transaction());
  auto rs = conn_->ExecuteQuery("SELECT COUNT(*) FROM t_user");
  rs->Next();
  EXPECT_EQ(rs->GetInt(0), 1);
}

TEST_F(AdaptorTest, SetTransactionTypeThroughSQL) {
  ASSERT_TRUE(conn_->ExecuteSQL("SET VARIABLE transaction_type = XA").ok());
  EXPECT_EQ(conn_->transaction_type(), transaction::TransactionType::kXa);
  ASSERT_TRUE(conn_->ExecuteSQL("SET VARIABLE transaction_type = BASE").ok());
  EXPECT_EQ(conn_->transaction_type(), transaction::TransactionType::kBase);
  auto bad = conn_->ExecuteSQL("SET VARIABLE transaction_type = NOPE");
  EXPECT_FALSE(bad.ok());
}

TEST_F(AdaptorTest, ProxyExecutesLikeJdbc) {
  ShardingProxy proxy(ds_.get(), &ds_->runtime()->network());
  auto pconn = proxy.Connect();
  auto n = pconn->Execute(
      "INSERT INTO t_user (uid, name) VALUES (40, 'via-proxy')");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->affected_rows, 1);
  auto r = pconn->Execute("SELECT name FROM t_user WHERE uid = 40");
  ASSERT_TRUE(r.ok());
  auto rows = engine::DrainResultSet(r->result_set.get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value("via-proxy"));
  EXPECT_EQ(proxy.statements_served(), 2);
}

TEST_F(AdaptorTest, ProxyFeedsStatementCounterAndWorkerGauge) {
  auto find = [](const std::string& name) -> std::optional<int64_t> {
    for (const metrics::Sample& s :
         metrics::Registry::Instance().Snapshot(name)) {
      if (s.name == name) return s.value;
    }
    return std::nullopt;
  };
  int64_t served = find("proxy.statements").value_or(0);
  {
    ShardingProxy proxy(ds_.get(), &ds_->runtime()->network());
    EXPECT_EQ(find("proxy.workers_busy"), 0);
    auto pconn = proxy.Connect();
    ASSERT_TRUE(
        pconn->Execute("INSERT INTO t_user (uid, name) VALUES (60, 'm')").ok());
    ASSERT_TRUE(pconn->Execute("SELECT * FROM t_user WHERE uid = 60").ok());
    EXPECT_EQ(find("proxy.statements"), served + 2);
    EXPECT_EQ(proxy.statements_served(), 2);
  }
  // The destructor retracts the gauge; the process-wide counter stays.
  EXPECT_FALSE(find("proxy.workers_busy").has_value());
  EXPECT_TRUE(find("proxy.statements").has_value());
}

TEST_F(AdaptorTest, ProxyTransactionsSpanStatements) {
  ShardingProxy proxy(ds_.get(), &ds_->runtime()->network());
  auto pconn = proxy.Connect();
  ASSERT_TRUE(pconn->Execute("BEGIN").ok());
  ASSERT_TRUE(pconn->Execute(
                  "INSERT INTO t_user (uid, name) VALUES (50, 'txn')").ok());
  ASSERT_TRUE(pconn->Execute("ROLLBACK").ok());
  auto r = pconn->Execute("SELECT COUNT(*) FROM t_user");
  auto rows = engine::DrainResultSet(r->result_set.get());
  EXPECT_EQ(rows[0][0], Value(0));
}

TEST_F(AdaptorTest, ProxyErrorsCrossTheWire) {
  ShardingProxy proxy(ds_.get(), &ds_->runtime()->network());
  auto pconn = proxy.Connect();
  auto r = pconn->Execute("SELECT * FROM missing_table WHERE id = 1");
  EXPECT_FALSE(r.ok());
}

TEST_F(AdaptorTest, ProxySlowerThanJdbcUnderLatency) {
  // Rebuild the stack with a real latency model; the proxy pays an extra
  // client<->proxy round trip per statement (paper Table III/IV shape). The
  // model's own message count is the measure: every message pays one
  // modelled hop, so two more messages per statement is one more RTT, and
  // unlike a wall-clock comparison it does not depend on host load.
  net::NetworkConfig netcfg;
  netcfg.hop_latency_us = 300;
  ShardingDataSource slow_ds{core::RuntimeConfig(), netcfg};
  engine::StorageNode node("ds_0");
  ASSERT_TRUE(slow_ds.AttachNode("ds_0", &node).ok());
  core::ShardingRuleConfig config;
  config.default_data_source = "ds_0";
  ASSERT_TRUE(slow_ds.SetRule(std::move(config)).ok());
  auto jdbc_conn = slow_ds.GetConnection();
  ASSERT_TRUE(jdbc_conn->ExecuteSQL("CREATE TABLE t (id INT PRIMARY KEY)").ok());

  const net::LatencyModel& network = slow_ds.runtime()->network();
  ShardingProxy proxy(&slow_ds, &network);
  auto proxy_conn = proxy.Connect();

  constexpr int kStatements = 10;
  int64_t before = network.messages();
  for (int i = 0; i < kStatements; ++i) {
    ASSERT_TRUE(jdbc_conn->ExecuteSQL("SELECT * FROM t WHERE id = 1").ok());
  }
  int64_t jdbc_messages = network.messages() - before;
  before = network.messages();
  for (int i = 0; i < kStatements; ++i) {
    ASSERT_TRUE(proxy_conn->Execute("SELECT * FROM t WHERE id = 1").ok());
  }
  int64_t proxy_messages = network.messages() - before;
  EXPECT_GE(jdbc_messages, kStatements * 2);  // request + response per query
  EXPECT_GE(proxy_messages - jdbc_messages, kStatements * 2)
      << "jdbc=" << jdbc_messages << " proxy=" << proxy_messages;
}

TEST_F(AdaptorTest, ConcurrentConnections) {
  constexpr int kThreads = 4, kOps = 50;
  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto conn = ds_->GetConnection();
      for (int i = 0; i < kOps; ++i) {
        int uid = 1000 + t * kOps + i;
        auto r = conn->ExecuteSQL(StrFormat(
            "INSERT INTO t_user (uid, name) VALUES (%d, 't%d')", uid, t));
        if (!r.ok()) errors.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  auto rs = conn_->ExecuteQuery("SELECT COUNT(*) FROM t_user");
  rs->Next();
  EXPECT_EQ(rs->GetInt(0), kThreads * kOps);
}

TEST_F(AdaptorTest, GovernorBindingPersistsRules) {
  governor::Registry registry;
  governor::ConfigManager config(&registry);
  ASSERT_TRUE(ds_->BindGovernor(&config, "instance-1").ok());

  // The instance is registered and the existing rule persisted.
  EXPECT_EQ(config.LiveInstances(), std::vector<std::string>{"instance-1"});
  ASSERT_EQ(config.ListRules(), std::vector<std::string>{"t_user"});
  EXPECT_NE(config.GetRule("t_user")->find("MOD"), std::string::npos);
  EXPECT_EQ(config.ListDataSources().size(), 2u);

  // DistSQL rule changes propagate to the registry.
  ASSERT_TRUE(conn_->ExecuteSQL(
                  "CREATE SHARDING TABLE RULE t_extra (RESOURCES(ds_0, ds_1), "
                  "SHARDING_COLUMN=k, TYPE=mod, PROPERTIES(\"sharding-count\"=2))")
                  .ok());
  auto rules = config.ListRules();
  EXPECT_EQ(rules.size(), 2u);
  EXPECT_TRUE(config.GetRule("t_extra").ok());

  // Dropping a rule removes it from the registry too.
  ASSERT_TRUE(conn_->ExecuteSQL("DROP SHARDING TABLE RULE t_extra").ok());
  EXPECT_EQ(config.ListRules(), std::vector<std::string>{"t_user"});
}

}  // namespace
}  // namespace sphere::adaptor
