#include "core/runtime.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "common/strings.h"
#include "tests/core/test_cluster.h"

namespace sphere::core {
namespace {

using testing::TestCluster;

class RuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<TestCluster>(2);
    ASSERT_TRUE(cluster_->InstallModRule(4, /*bind=*/true).ok());
    ASSERT_TRUE(cluster_->CreateUserOrderSchemas().ok());
    for (int uid = 0; uid < 20; ++uid) {
      Exec(StrFormat(
          "INSERT INTO t_user (uid, name, age, score) VALUES (%d, 'u%d', %d, %d.5)",
          uid, uid, 20 + uid % 5, uid));
      Exec(StrFormat("INSERT INTO t_order (oid, uid, amount, month) VALUES "
                     "(%d, %d, %d.0, %d)",
                     100 + uid, uid, uid * 10, 202101 + uid % 3));
    }
  }

  engine::ExecResult Exec(const std::string& sql_text,
                          std::vector<Value> params = {}) {
    auto r = cluster_->runtime()->Execute(sql_text, std::move(params));
    EXPECT_TRUE(r.ok()) << r.status().ToString() << " for " << sql_text;
    return r.ok() ? std::move(r).value() : engine::ExecResult{};
  }

  std::vector<Row> Query(const std::string& sql_text,
                         std::vector<Value> params = {}) {
    auto r = Exec(sql_text, std::move(params));
    EXPECT_TRUE(r.is_query);
    return r.result_set ? engine::DrainResultSet(r.result_set.get())
                        : std::vector<Row>{};
  }

  std::unique_ptr<TestCluster> cluster_;
};

TEST_F(RuntimeTest, DdlCreatedActualTablesOnBothNodes) {
  // MOD-4 over 2 ds: suffixes 0,2 on ds_0 and 1,3 on ds_1.
  EXPECT_NE(cluster_->node(0)->database()->FindTable("t_user_0"), nullptr);
  EXPECT_NE(cluster_->node(0)->database()->FindTable("t_user_2"), nullptr);
  EXPECT_NE(cluster_->node(1)->database()->FindTable("t_user_1"), nullptr);
  EXPECT_NE(cluster_->node(1)->database()->FindTable("t_user_3"), nullptr);
  EXPECT_EQ(cluster_->node(0)->database()->FindTable("t_user_1"), nullptr);
}

TEST_F(RuntimeTest, DataLandsOnCorrectShards) {
  // uid % 4 = k -> t_user_k.
  EXPECT_EQ(cluster_->RowsOn(0, "t_user_0"), 5u);
  EXPECT_EQ(cluster_->RowsOn(1, "t_user_1"), 5u);
  EXPECT_EQ(cluster_->RowsOn(0, "t_user_2"), 5u);
  EXPECT_EQ(cluster_->RowsOn(1, "t_user_3"), 5u);
}

TEST_F(RuntimeTest, PointSelect) {
  auto rows = Query("SELECT name FROM t_user WHERE uid = 7");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value("u7"));
}

TEST_F(RuntimeTest, MultiShardSelectMergesAll) {
  auto rows = Query("SELECT uid FROM t_user");
  EXPECT_EQ(rows.size(), 20u);
}

TEST_F(RuntimeTest, OrderByMergedGlobally) {
  auto rows = Query("SELECT uid FROM t_user ORDER BY uid DESC");
  ASSERT_EQ(rows.size(), 20u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i][0], Value(static_cast<int64_t>(19 - i)));
  }
}

TEST_F(RuntimeTest, OrderByDerivedColumnInvisible) {
  // ORDER BY on a column outside the projection: merged correctly and the
  // derived column is trimmed.
  auto r = Exec("SELECT name FROM t_user ORDER BY uid");
  ASSERT_TRUE(r.is_query);
  EXPECT_EQ(r.result_set->columns(), std::vector<std::string>{"name"});
  auto rows = engine::DrainResultSet(r.result_set.get());
  ASSERT_EQ(rows.size(), 20u);
  EXPECT_EQ(rows[0][0], Value("u0"));
  EXPECT_EQ(rows[19][0], Value("u19"));
  EXPECT_EQ(rows[0].size(), 1u);
}

TEST_F(RuntimeTest, PaginationAcrossShards) {
  auto rows = Query("SELECT uid FROM t_user ORDER BY uid LIMIT 5, 3");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0], Value(5));
  EXPECT_EQ(rows[2][0], Value(7));
}

TEST_F(RuntimeTest, GlobalAggregates) {
  auto rows = Query(
      "SELECT COUNT(*), SUM(uid), MIN(uid), MAX(uid), AVG(uid) FROM t_user");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value(20));
  EXPECT_EQ(rows[0][1], Value(190));
  EXPECT_EQ(rows[0][2], Value(0));
  EXPECT_EQ(rows[0][3], Value(19));
  EXPECT_EQ(rows[0][4], Value(9.5));  // AVG from derived SUM/COUNT
  EXPECT_EQ(rows[0].size(), 5u);      // derived columns trimmed
}

TEST_F(RuntimeTest, AvgIsNotAverageOfAverages) {
  // Shard 0 holds uids {0,4,8,12,16}, shard 1 {1,5,9,13,17}, etc. A naive
  // average-of-averages would coincide here, so use a skewed predicate.
  auto rows = Query("SELECT AVG(uid) FROM t_user WHERE uid IN (1, 2, 3)");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value(2.0));
}

TEST_F(RuntimeTest, GroupByAcrossShards) {
  auto rows = Query(
      "SELECT age, COUNT(*) c FROM t_user GROUP BY age ORDER BY age");
  ASSERT_EQ(rows.size(), 5u);  // ages 20..24
  for (const auto& row : rows) {
    EXPECT_EQ(row[1], Value(4));
  }
}

TEST_F(RuntimeTest, GroupBySumMergesPartials) {
  auto rows = Query(
      "SELECT month, SUM(amount) FROM t_order GROUP BY month ORDER BY month");
  ASSERT_EQ(rows.size(), 3u);
  double total = 0;
  for (const auto& row : rows) total += row[1].ToDouble();
  EXPECT_DOUBLE_EQ(total, 190.0 * 10);
}

TEST_F(RuntimeTest, BindingJoin) {
  auto rows = Query(
      "SELECT u.name, o.amount FROM t_user u JOIN t_order o ON u.uid = o.uid "
      "WHERE u.uid IN (3, 4) ORDER BY o.amount");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value("u3"));
  EXPECT_EQ(rows[1][0], Value("u4"));
}

TEST_F(RuntimeTest, UpdateAcrossShards) {
  auto r = Exec("UPDATE t_user SET age = 99 WHERE uid IN (1, 2)");
  EXPECT_EQ(r.affected_rows, 2);
  auto rows = Query("SELECT COUNT(*) FROM t_user WHERE age = 99");
  EXPECT_EQ(rows[0][0], Value(2));
}

TEST_F(RuntimeTest, DeleteAcrossShards) {
  auto r = Exec("DELETE FROM t_user WHERE uid BETWEEN 0 AND 9");
  EXPECT_EQ(r.affected_rows, 10);
  EXPECT_EQ(Query("SELECT uid FROM t_user").size(), 10u);
}

TEST_F(RuntimeTest, BatchInsertSplitsAndSumsAffected) {
  auto r = Exec(
      "INSERT INTO t_user (uid, name, age, score) VALUES "
      "(100, 'a', 1, 0.0), (101, 'b', 1, 0.0), (102, 'c', 1, 0.0)");
  EXPECT_EQ(r.affected_rows, 3);
  EXPECT_EQ(Query("SELECT * FROM t_user WHERE uid IN (100, 101, 102)").size(), 3u);
}

TEST_F(RuntimeTest, BroadcastTableOnEveryNode) {
  Exec("CREATE TABLE t_dict (k INT PRIMARY KEY, v VARCHAR(16))");
  Exec("INSERT INTO t_dict (k, v) VALUES (1, 'one')");
  EXPECT_EQ(cluster_->RowsOn(0, "t_dict"), 1u);
  EXPECT_EQ(cluster_->RowsOn(1, "t_dict"), 1u);
  auto rows = Query("SELECT v FROM t_dict WHERE k = 1");
  ASSERT_EQ(rows.size(), 1u);  // unicast read: no duplicates
}

TEST_F(RuntimeTest, DefaultDataSourceForSingleTable) {
  Exec("CREATE TABLE t_plain (id INT PRIMARY KEY, v INT)");
  Exec("INSERT INTO t_plain (id, v) VALUES (1, 2)");
  EXPECT_EQ(cluster_->RowsOn(0, "t_plain"), 1u);
  EXPECT_EQ(cluster_->RowsOn(1, "t_plain"), 0u);
  EXPECT_EQ(Query("SELECT v FROM t_plain").size(), 1u);
}

TEST_F(RuntimeTest, DistinctAcrossShards) {
  auto rows = Query("SELECT DISTINCT age FROM t_user ORDER BY age");
  EXPECT_EQ(rows.size(), 5u);
}

TEST_F(RuntimeTest, PreparedStatementParams) {
  auto rows = Query("SELECT name FROM t_user WHERE uid = ?", {Value(11)});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value("u11"));
}

TEST_F(RuntimeTest, ConnectionModeReported) {
  cluster_->runtime()->SetMaxConnectionsPerQuery(1);
  Query("SELECT uid FROM t_user");  // 4 units, 1 conn each ds -> theta 2
  EXPECT_EQ(cluster_->runtime()->last_connection_mode(),
            ConnectionMode::kConnectionStrictly);
  cluster_->runtime()->SetMaxConnectionsPerQuery(8);
  Query("SELECT uid FROM t_user");
  EXPECT_EQ(cluster_->runtime()->last_connection_mode(),
            ConnectionMode::kMemoryStrictly);
}

TEST_F(RuntimeTest, RouteErrorSurfaces) {
  auto r = cluster_->runtime()->Execute("SELECT ghost FROM t_user WHERE uid = 1");
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// Oracle property test: the sharded cluster must answer exactly like one
// unsharded database for a randomized workload.
// ---------------------------------------------------------------------------

std::vector<Row> SortedRows(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  return rows;
}

struct OracleCase {
  int shards;
  int sources;
  const char* algorithm;
};

class ShardingOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(ShardingOracleTest, ShardedEqualsUnsharded) {
  const OracleCase& param = GetParam();

  // Oracle: one plain storage node.
  engine::StorageNode oracle("oracle");
  auto oracle_session = oracle.OpenSession();
  ASSERT_TRUE(oracle_session
                  ->Execute("CREATE TABLE t_user (uid BIGINT PRIMARY KEY, "
                            "name VARCHAR(64), age INT, score DOUBLE)")
                  .ok());

  // Sharded cluster.
  TestCluster cluster(param.sources);
  ShardingRuleConfig config;
  config.default_data_source = "ds_0";
  TableRuleConfig t;
  t.logic_table = "t_user";
  t.auto_resources = cluster.DataSourceNames();
  t.auto_sharding_count = param.shards;
  t.table_strategy.columns = {"uid"};
  t.table_strategy.algorithm_type = param.algorithm;
  t.table_strategy.props.Set("sharding-count", std::to_string(param.shards));
  config.tables.push_back(std::move(t));
  ASSERT_TRUE(cluster.runtime()->SetRule(std::move(config)).ok());
  ASSERT_TRUE(cluster.runtime()
                  ->Execute("CREATE TABLE t_user (uid BIGINT PRIMARY KEY, "
                            "name VARCHAR(64), age INT, score DOUBLE)")
                  .ok());

  auto run_both = [&](const std::string& sql_text) {
    auto sharded = cluster.runtime()->Execute(sql_text);
    auto expected = oracle_session->Execute(sql_text);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString() << ": " << sql_text;
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    if (expected->is_query) {
      auto got = SortedRows(engine::DrainResultSet(sharded->result_set.get()));
      auto want = SortedRows(engine::DrainResultSet(expected->result_set.get()));
      ASSERT_EQ(got.size(), want.size()) << sql_text;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].size(), want[i].size()) << sql_text;
        for (size_t j = 0; j < got[i].size(); ++j) {
          if (want[i][j].is_double()) {
            ASSERT_NEAR(got[i][j].ToDouble(), want[i][j].ToDouble(), 1e-9)
                << sql_text;
          } else {
            ASSERT_EQ(got[i][j], want[i][j]) << sql_text << " row " << i;
          }
        }
      }
    } else {
      ASSERT_EQ(sharded->affected_rows, expected->affected_rows) << sql_text;
    }
  };

  Rng rng(1234);
  // Mixed workload: inserts, point/range queries, aggregations, updates,
  // deletes, pagination.
  for (int uid = 0; uid < 60; ++uid) {
    run_both(StrFormat("INSERT INTO t_user (uid, name, age, score) VALUES "
                       "(%d, 'name%d', %d, %d.25)",
                       uid, uid, static_cast<int>(rng.Uniform(18, 24)),
                       static_cast<int>(rng.Uniform(0, 50))));
  }
  const char* queries[] = {
      "SELECT * FROM t_user WHERE uid = 13",
      "SELECT * FROM t_user WHERE uid IN (5, 6, 7, 200)",
      "SELECT * FROM t_user WHERE uid BETWEEN 10 AND 31",
      "SELECT name FROM t_user WHERE age > 20 ORDER BY uid",
      "SELECT COUNT(*), SUM(score), MIN(score), MAX(score), AVG(score) FROM t_user",
      "SELECT age, COUNT(*), AVG(score) FROM t_user GROUP BY age ORDER BY age",
      "SELECT uid FROM t_user ORDER BY score DESC, uid ASC LIMIT 7",
      "SELECT uid FROM t_user ORDER BY uid LIMIT 13, 9",
      "SELECT DISTINCT age FROM t_user ORDER BY age",
      "SELECT age, SUM(score) s FROM t_user WHERE uid < 40 GROUP BY age "
      "ORDER BY age DESC",
  };
  for (const char* q : queries) run_both(q);

  run_both("UPDATE t_user SET score = score + 5 WHERE age = 20");
  run_both("UPDATE t_user SET name = 'renamed' WHERE uid = 17");
  for (const char* q : queries) run_both(q);

  run_both("DELETE FROM t_user WHERE uid BETWEEN 20 AND 29");
  run_both("DELETE FROM t_user WHERE uid = 3");
  for (const char* q : queries) run_both(q);
}

// Aggregate shapes whose per-shard partials do not simply add up: a top-N
// over memory-merged groups and DISTINCT aggregates, each checked row by
// row (in order) against one unsharded node.
TEST(ShardedAggregateTest, MatchesUnshardedNode) {
  const char* ddl =
      "CREATE TABLE t_user (uid BIGINT PRIMARY KEY, name VARCHAR(64), "
      "age INT, score DOUBLE)";
  engine::StorageNode oracle("oracle");
  auto oracle_session = oracle.OpenSession();
  ASSERT_TRUE(oracle_session->Execute(ddl).ok());
  TestCluster cluster(2);
  ASSERT_TRUE(cluster.InstallModRule(4, /*bind=*/false).ok());
  ASSERT_TRUE(cluster.runtime()->Execute(ddl).ok());

  // 10 ages over 4 shards, unevenly weighted, so a shard's local top groups
  // by SUM(score) differ from the global ones; 3 names span every shard.
  Rng rng(77);
  for (int uid = 0; uid < 120; ++uid) {
    std::string insert = StrFormat(
        "INSERT INTO t_user (uid, name, age, score) VALUES "
        "(%d, 'n%d', %d, %d.5)",
        uid, uid % 3, (uid * 7) % 10, static_cast<int>(rng.Uniform(0, 999)));
    ASSERT_TRUE(oracle_session->Execute(insert).ok());
    ASSERT_TRUE(cluster.runtime()->Execute(insert).ok());
  }

  const char* queries[] = {
      "SELECT age, SUM(score) FROM t_user GROUP BY age "
      "ORDER BY SUM(score) DESC LIMIT 3",
      "SELECT age, SUM(score) s FROM t_user GROUP BY age "
      "ORDER BY s DESC LIMIT 2, 3",
      "SELECT COUNT(DISTINCT age) FROM t_user",
      "SELECT COUNT(DISTINCT age), COUNT(*), SUM(DISTINCT age), "
      "AVG(DISTINCT age), AVG(score), MAX(age) FROM t_user",
      "SELECT COUNT(DISTINCT age) FROM t_user WHERE uid BETWEEN 10 AND 13",
      "SELECT COUNT(DISTINCT age), SUM(DISTINCT age) FROM t_user "
      "WHERE uid > 1000",
      "SELECT name, COUNT(DISTINCT age), SUM(score) FROM t_user "
      "GROUP BY name ORDER BY name",
      "SELECT name, COUNT(DISTINCT age) c FROM t_user WHERE age < 6 "
      "GROUP BY name ORDER BY c DESC, name LIMIT 2",
      "SELECT age, COUNT(DISTINCT name), AVG(DISTINCT score) FROM t_user "
      "GROUP BY age ORDER BY age",
  };
  for (const char* q : queries) {
    auto sharded = cluster.runtime()->Execute(q);
    auto expected = oracle_session->Execute(q);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString() << ": " << q;
    ASSERT_TRUE(expected.ok()) << expected.status().ToString() << ": " << q;
    auto got = engine::DrainResultSet(sharded->result_set.get());
    auto want = engine::DrainResultSet(expected->result_set.get());
    ASSERT_EQ(got.size(), want.size()) << q;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].size(), want[i].size()) << q;
      for (size_t j = 0; j < got[i].size(); ++j) {
        if (want[i][j].is_double()) {
          EXPECT_NEAR(got[i][j].ToDouble(), want[i][j].ToDouble(), 1e-9)
              << q << " row " << i << " col " << j;
        } else {
          EXPECT_EQ(got[i][j], want[i][j]) << q << " row " << i << " col " << j;
        }
      }
    }
  }

  // A shape the merger cannot fold is refused, not answered wrongly.
  auto refused = cluster.runtime()->Execute(
      "SELECT name, COUNT(DISTINCT age) FROM t_user GROUP BY name "
      "HAVING COUNT(DISTINCT age) > 1");
  EXPECT_EQ(refused.status().code(), StatusCode::kUnsupported);
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, ShardingOracleTest,
    ::testing::Values(OracleCase{4, 2, "MOD"}, OracleCase{10, 2, "MOD"},
                      OracleCase{4, 4, "MOD"}, OracleCase{8, 2, "HASH_MOD"},
                      OracleCase{3, 3, "HASH_MOD"}));

}  // namespace
}  // namespace sphere::core
