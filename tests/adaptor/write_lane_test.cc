// Single-node oracle for the write path (DESIGN.md §10).
//
// Every DML script below is replayed twice: on a freshly built sharded
// cluster (2 nodes, t_user/t_order MOD-sharded by uid into 4 tables each)
// and on one StorageNode holding the same tables unsharded. Per-step
// affected counts, the steps that fail, and the final contents of both
// tables must be identical — the unsharded node is the ground truth for what
// routing, the INSERT split with its per-unit parameter slices, and the
// structured unit dispatch must add up to. Where sharding legitimately
// differs from one node, the test asserts that difference explicitly.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "adaptor/jdbc.h"
#include "common/rng.h"
#include "common/strings.h"
#include "engine/pipeline.h"
#include "engine/result_set.h"

namespace sphere::adaptor {
namespace {

/// One step of a DML script. `sql` may be BEGIN/COMMIT/ROLLBACK; `may_fail`
/// marks steps whose failure is part of the scenario (the comparison then
/// checks that both targets fail at the same step).
struct Step {
  std::string sql;
  std::vector<Value> params = {};
  bool may_fail = false;
};

/// Outcome of replaying a script on one target: per-step affected counts
/// (row counts for queries, -1 = step failed) and a serialized fingerprint
/// of the final state.
struct Replay {
  std::vector<int64_t> counts;
  std::string fingerprint;
};

using ExecFn = std::function<Result<engine::ExecResult>(
    const std::string&, const std::vector<Value>&)>;

/// A replay target: the sharded cluster or the single unsharded node. Both
/// answer the same logical SQL through `exec`.
struct Target {
  const char* name = "";
  std::vector<std::unique_ptr<engine::StorageNode>> nodes;
  std::unique_ptr<ShardingDataSource> ds;
  std::unique_ptr<ShardingConnection> conn;
  std::unique_ptr<engine::StorageNode::Session> session;
  ExecFn exec;
};

class WriteLaneTest : public ::testing::Test {
 protected:
  /// The 2-node cluster: t_user/t_order MOD-sharded by uid into 4 tables.
  static std::unique_ptr<Target> MakeSharded() {
    auto t = std::make_unique<Target>();
    t->name = "sharded";
    t->ds = std::make_unique<ShardingDataSource>(core::RuntimeConfig(),
                                                 net::NetworkConfig::Zero());
    for (int i = 0; i < 2; ++i) {
      t->nodes.push_back(
          std::make_unique<engine::StorageNode>("ds_" + std::to_string(i)));
      EXPECT_TRUE(
          t->ds->AttachNode(t->nodes.back()->name(), t->nodes.back().get()).ok());
    }
    core::ShardingRuleConfig config;
    config.default_data_source = "ds_0";
    for (const std::string& table :
         {std::string("t_user"), std::string("t_order")}) {
      core::TableRuleConfig r;
      r.logic_table = table;
      r.auto_resources = {"ds_0", "ds_1"};
      r.auto_sharding_count = 4;
      r.table_strategy.columns = {"uid"};
      r.table_strategy.algorithm_type = "MOD";
      r.table_strategy.props.Set("sharding-count", "4");
      config.tables.push_back(std::move(r));
    }
    EXPECT_TRUE(t->ds->SetRule(std::move(config)).ok());
    t->conn = t->ds->GetConnection();
    ShardingConnection* conn = t->conn.get();
    t->exec = [conn](const std::string& sql, const std::vector<Value>& params) {
      return conn->ExecuteSQL(sql, params);
    };
    Seed(*t);
    return t;
  }

  /// The oracle: one node, the same tables unsharded.
  static std::unique_ptr<Target> MakeOracle() {
    auto t = std::make_unique<Target>();
    t->name = "single node";
    t->nodes.push_back(std::make_unique<engine::StorageNode>("oracle"));
    t->session = t->nodes.back()->OpenSession();
    engine::StorageNode::Session* session = t->session.get();
    t->exec = [session](const std::string& sql,
                        const std::vector<Value>& params) {
      return session->Execute(sql, params);
    };
    Seed(*t);
    return t;
  }

  /// Schema (with a secondary index on t_order.uid) and a fixed population.
  static void Seed(Target& t) {
    Must(t, "CREATE TABLE t_user (uid BIGINT PRIMARY KEY, name VARCHAR(64), "
            "age INT, score DOUBLE)");
    Must(t, "CREATE TABLE t_order (oid BIGINT PRIMARY KEY, uid BIGINT, "
            "amount DOUBLE, month INT)");
    Must(t, "CREATE INDEX idx_order_uid ON t_order (uid)");
    for (int uid = 0; uid < 16; ++uid) {
      Must(t, StrFormat("INSERT INTO t_user (uid, name, age, score) VALUES "
                        "(%d, 'u%d', %d, %d.5)",
                        uid, uid, 20 + uid % 7, uid % 5));
    }
    for (int oid = 0; oid < 32; ++oid) {
      Must(t, StrFormat("INSERT INTO t_order (oid, uid, amount, month) VALUES "
                        "(%d, %d, %d.25, %d)",
                        oid, oid % 16, 10 + oid, 1 + oid % 12));
    }
  }

  static void Must(Target& t, const std::string& sql) {
    auto r = t.exec(sql, {});
    ASSERT_TRUE(r.ok()) << t.name << ": " << r.status().ToString() << " for "
                        << sql;
  }

  /// Rows a query returns on `t` (empty on error, which is reported).
  static std::vector<Row> Query(Target& t, const std::string& sql) {
    auto r = t.exec(sql, {});
    EXPECT_TRUE(r.ok() && r->is_query)
        << t.name << ": " << (r.ok() ? "not a query" : r.status().ToString())
        << " for " << sql;
    if (!r.ok() || !r->is_query) return {};
    return engine::DrainResultSet(r->result_set.get());
  }

  /// Serializes the full visible contents of both tables.
  static std::string Fingerprint(Target& t) {
    std::string out;
    for (const char* sql :
         {"SELECT uid, name, age, score FROM t_user ORDER BY uid",
          "SELECT oid, uid, amount, month FROM t_order ORDER BY oid"}) {
      for (const Row& row : Query(t, sql)) {
        for (const Value& v : row) {
          out += v.ToString();
          out += '|';
        }
        out += '\n';
      }
      out += "--\n";
    }
    return out;
  }

  /// Replays `script` on `t`.
  static Replay Run(Target& t, const std::vector<Step>& script) {
    Replay replay;
    for (const Step& step : script) {
      auto r = t.exec(step.sql, step.params);
      if (!r.ok()) {
        EXPECT_TRUE(step.may_fail)
            << t.name << ": unexpected failure at '" << step.sql
            << "': " << r.status().ToString();
        replay.counts.push_back(-1);
        continue;
      }
      replay.counts.push_back(
          r->is_query
              ? static_cast<int64_t>(
                    engine::DrainResultSet(r->result_set.get()).size())
              : r->affected_rows);
    }
    replay.fingerprint = Fingerprint(t);
    return replay;
  }

  /// The core assertion: the sharded cluster agrees with the single node on
  /// every step and on the final state.
  static void ExpectMatchesOracle(const std::vector<Step>& script) {
    std::unique_ptr<Target> sharded = MakeSharded();
    std::unique_ptr<Target> oracle = MakeOracle();
    Replay s = Run(*sharded, script);
    Replay o = Run(*oracle, script);
    EXPECT_FALSE(o.fingerprint.empty());
    EXPECT_EQ(s.counts, o.counts) << "per-step counts diverge from one node";
    EXPECT_EQ(s.fingerprint, o.fingerprint)
        << "final state diverges from one node";
  }
};

TEST_F(WriteLaneTest, InsertShapes) {
  ExpectMatchesOracle({
      {"INSERT INTO t_user (uid, name, age, score) VALUES (100, 'new', 30, 1.0)", {}},
      // Multi-row insert scattering across shards and data sources.
      {"INSERT INTO t_user (uid, name, age, score) VALUES "
       "(101, 'a', 1, 0.5), (102, 'b', 2, 1.5), (103, 'c', 3, 2.5)", {}},
      // Parameterized rows, including expressions over parameters.
      {"INSERT INTO t_order (oid, uid, amount, month) VALUES (?, ?, ? + 1, ?)",
       {Value(200), Value(5), Value(9.0), Value(6)}},
      {"INSERT INTO t_order (oid, uid, amount, month) VALUES (?, ?, ?, ?), (?, ?, ?, ?)",
       {Value(201), Value(3), Value(1.0), Value(2),
        Value(202), Value(4), Value(2.0), Value(3)}},
      // Interleaved shards (uid 1, 2, 5 -> tables 1, 2, 1): each unit's
      // parameter slice must pick non-adjacent rows, one with a parameter
      // inside a function call.
      {"INSERT INTO t_user (uid, name, age, score) VALUES "
       "(?, ?, ABS(?), ?), (?, 'mid', ?, ?), (?, ?, ?, ? * 2)",
       {Value(121), Value("p"), Value(-7), Value(0.5),
        Value(122), Value(8), Value(1.5),
        Value(125), Value("q"), Value(9), Value(2.0)}},
      // Literals and parameters mixed in one row.
      {"INSERT INTO t_order (oid, uid, amount, month) VALUES "
       "(210, ?, 3.5, ?), (?, 6, ?, 11)",
       {Value(7), Value(4), Value(211), Value(8.0)}},
  });
}

TEST_F(WriteLaneTest, PointAndRangeUpdates) {
  ExpectMatchesOracle({
      // Point by sharding key (single shard, PK access path).
      {"UPDATE t_user SET score = score + 1 WHERE uid = 7", {}},
      {"UPDATE t_user SET name = ? WHERE uid = ?", {Value("renamed"), Value(3)}},
      // Secondary-index equality (several rows on one shard).
      {"UPDATE t_order SET amount = amount * 2 WHERE uid = 5", {}},
      // Range predicate: broadcast to every shard.
      {"UPDATE t_user SET age = age + 1 WHERE uid BETWEEN 4 AND 11", {}},
      // Predicate on an unindexed column: full-scan cursor.
      {"UPDATE t_order SET month = 12 WHERE amount > ?", {Value(35.0)}},
      // The SET changes the column the WHERE reads.
      {"UPDATE t_order SET amount = amount + 100 WHERE amount < 15", {}},
      // No-match update.
      {"UPDATE t_user SET score = 0 WHERE uid = 999", {}},
  });
}

TEST_F(WriteLaneTest, PointAndRangeDeletes) {
  ExpectMatchesOracle({
      {"DELETE FROM t_order WHERE oid = 9", {}},
      {"DELETE FROM t_order WHERE uid = ?", {Value(11)}},
      {"DELETE FROM t_user WHERE uid IN (2, 6, 999)", {}},
      {"DELETE FROM t_order WHERE amount > 38.0", {}},
      {"DELETE FROM t_user WHERE uid = 12345", {}},
  });
}

TEST_F(WriteLaneTest, TransactionsCommitAndRollback) {
  ExpectMatchesOracle({
      {"BEGIN", {}},
      {"UPDATE t_user SET score = score + 10 WHERE uid = 1", {}},
      {"UPDATE t_user SET score = score - 10 WHERE uid = 2", {}},
      {"INSERT INTO t_order (oid, uid, amount, month) VALUES (300, 1, 5.0, 7)", {}},
      {"COMMIT", {}},
      {"BEGIN", {}},
      {"DELETE FROM t_order WHERE uid = 1", {}},
      {"UPDATE t_user SET name = 'gone' WHERE uid BETWEEN 0 AND 15", {}},
      {"SELECT uid FROM t_user WHERE name = 'gone'", {}},
      {"ROLLBACK", {}},
  });
}

TEST_F(WriteLaneTest, MidStatementFailureIsAtomicEverywhere) {
  const std::vector<Step> script = {
      // Both rows route to t_user_2 (one unit): the collision with seeded
      // uid=2 makes the whole statement a no-op on both targets.
      {"INSERT INTO t_user (uid, name, age, score) VALUES "
       "(114, 'ok', 1, 1.0), (2, 'dup', 2, 2.0)", {}, /*may_fail=*/true},
      // Rows on two data sources (uid 110 -> t_user_2 on ds_0, uid 5 ->
      // t_user_1 on ds_1); uid=5 collides. See the assertion below.
      {"INSERT INTO t_user (uid, name, age, score) VALUES "
       "(110, 'ok', 1, 1.0), (5, 'dup', 2, 2.0)", {}, /*may_fail=*/true},
      // Inside an explicit transaction followed by rollback.
      {"BEGIN", {}},
      {"INSERT INTO t_user (uid, name, age, score) VALUES "
       "(111, 'ok', 1, 1.0), (6, 'dup', 2, 2.0)", {}, /*may_fail=*/true},
      {"INSERT INTO t_user (uid, name, age, score) VALUES (112, 'kept', 3, 3.0)", {}},
      {"ROLLBACK", {}},
  };
  std::unique_ptr<Target> sharded = MakeSharded();
  std::unique_ptr<Target> oracle = MakeOracle();
  Replay s = Run(*sharded, script);
  Replay o = Run(*oracle, script);
  EXPECT_EQ(s.counts, o.counts);
  EXPECT_EQ(s.counts[0], -1);
  EXPECT_EQ(s.counts[1], -1);
  EXPECT_EQ(s.counts[3], -1);
  // The one legitimate divergence: an auto-commit statement split across
  // data sources runs as independent per-source statements, so the unit on
  // the healthy source (uid 110) commits while the single node rolls the
  // whole statement back. Each unit is still atomic by itself (uid 114
  // above). Assert exactly that row, then require everything else to match.
  const std::string probe = "SELECT uid FROM t_user WHERE uid = 110";
  EXPECT_EQ(Query(*sharded, probe).size(), 1u);
  EXPECT_EQ(Query(*oracle, probe).size(), 0u);
  Must(*sharded, "DELETE FROM t_user WHERE uid = 110");
  EXPECT_EQ(Fingerprint(*sharded), o.fingerprint);
}

TEST_F(WriteLaneTest, RandomizedDifferential) {
  Rng rng(20260807);
  for (int round = 0; round < 8; ++round) {
    std::vector<Step> script;
    bool in_txn = false;
    int next_uid = 500 + round * 100;
    int next_oid = 5000 + round * 100;
    int steps = static_cast<int>(rng.Uniform(6, 14));
    for (int s = 0; s < steps; ++s) {
      switch (rng.Uniform(0, 9)) {
        case 0:
          script.push_back({StrFormat(
              "INSERT INTO t_user (uid, name, age, score) VALUES (%d, 'r', %d, %d.0)",
              next_uid++, static_cast<int>(rng.Uniform(18, 60)),
              static_cast<int>(rng.Uniform(0, 9)))});
          break;
        case 1:
          script.push_back(
              {"INSERT INTO t_order (oid, uid, amount, month) VALUES (?, ?, ?, ?)",
               {Value(next_oid++), Value(rng.Uniform(0, 15)),
                Value(static_cast<double>(rng.Uniform(1, 99))),
                Value(rng.Uniform(1, 12))}});
          break;
        case 2:
          script.push_back({"UPDATE t_user SET score = score + 1 WHERE uid = ?",
                            {Value(rng.Uniform(0, 15))}});
          break;
        case 3:
          script.push_back({StrFormat(
              "UPDATE t_order SET amount = amount + 0.5 WHERE uid = %d",
              static_cast<int>(rng.Uniform(0, 15)))});
          break;
        case 4:
          script.push_back({StrFormat(
              "UPDATE t_user SET age = age + 1 WHERE uid BETWEEN %d AND %d",
              static_cast<int>(rng.Uniform(0, 7)),
              static_cast<int>(rng.Uniform(8, 15)))});
          break;
        case 5:
          script.push_back({"DELETE FROM t_order WHERE oid = ?",
                            {Value(rng.Uniform(0, 31))}});
          break;
        case 6:
          script.push_back({StrFormat("DELETE FROM t_order WHERE uid = %d",
                                      static_cast<int>(rng.Uniform(0, 15)))});
          break;
        case 7: {
          // Three parameterized rows over random shards: the INSERT split
          // hands each unit a renumbered slice.
          std::vector<Value> params;
          for (int r = 0; r < 3; ++r) {
            params.push_back(Value(next_oid++));
            params.push_back(Value(rng.Uniform(0, 15)));
            params.push_back(Value(static_cast<double>(rng.Uniform(1, 99))));
          }
          script.push_back(
              {"INSERT INTO t_order (oid, uid, amount, month) VALUES "
               "(?, ?, ?, 1), (?, ?, ?, 2), (?, ?, ?, 3)",
               std::move(params)});
          break;
        }
        case 8:
          // Non-indexed predicate: a full-scan cursor on every shard.
          script.push_back({"UPDATE t_order SET month = month + 1 WHERE amount < ?",
                            {Value(static_cast<double>(rng.Uniform(10, 60)))}});
          break;
        default:
          if (in_txn) {
            script.push_back({rng.Uniform(0, 1) == 0 ? "COMMIT" : "ROLLBACK"});
            in_txn = false;
          } else {
            script.push_back({"BEGIN"});
            in_txn = true;
          }
          break;
      }
    }
    if (in_txn) script.push_back({"COMMIT"});
    SCOPED_TRACE("round " + std::to_string(round));
    ExpectMatchesOracle(script);
  }
}

TEST_F(WriteLaneTest, MemoryDisciplineKnobsAreBehaviorNeutral) {
  // Arena statements on and off across the write path: both arms must match
  // the single node — including mid-transaction rollback, where arena
  // scopes nest across the runtime and the storage nodes.
  const std::vector<Step> script = {
      {"INSERT INTO t_user (uid, name, age, score) VALUES (700, 'm', 31, 2.5)"},
      {"INSERT INTO t_order (oid, uid, amount, month) VALUES (?, ?, ?, ?)",
       {Value(int64_t{7000}), Value(int64_t{700}), Value(12.25),
        Value(int64_t{6})}},
      {"BEGIN"},
      {"UPDATE t_user SET score = score + 1 WHERE uid = ?",
       {Value(int64_t{700})}},
      {"ROLLBACK"},
      {"UPDATE t_order SET amount = amount + 0.5 WHERE uid = 700"},
      {"DELETE FROM t_order WHERE oid = ?", {Value(int64_t{7000})}},
      {"SELECT uid, score FROM t_user WHERE uid = 700"},
  };
  for (bool arena : {false, true}) {
    SCOPED_TRACE(arena ? "arena on" : "arena off");
    engine::ScopedArenaStatements scope(arena);
    ExpectMatchesOracle(script);
  }
}

// ---------------------------------------------------------------------------
// Parse-cache accounting: structured units never reach the node parser.
// ---------------------------------------------------------------------------

TEST_F(WriteLaneTest, StructuredLaneNeverParsesOnNodes) {
  std::unique_ptr<Target> c = MakeSharded();
  int64_t misses_before = 0, hits_before = 0;
  for (auto& n : c->nodes) {
    misses_before += n->parse_cache_misses();
    hits_before += n->parse_cache_hits();
  }
  // Repeated prepared INSERTs, UPDATEs and DELETEs ship ASTs, so the node
  // parse cache is never even consulted.
  for (int i = 0; i < 20; ++i) {
    auto r = c->conn->ExecuteSQL(
        "INSERT INTO t_order (oid, uid, amount, month) VALUES (?, ?, ?, ?)",
        {Value(1000 + i), Value(i % 16), Value(1.0 * i), Value(1 + i % 12)});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    r = c->conn->ExecuteSQL("UPDATE t_order SET month = ? WHERE oid = ?",
                            {Value(1 + i % 12), Value(1000 + i)});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  auto del = c->conn->ExecuteSQL("DELETE FROM t_order WHERE oid >= ?",
                                 {Value(1000)});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(del->affected_rows, 20);
  int64_t misses_after = 0, hits_after = 0;
  for (auto& n : c->nodes) {
    misses_after += n->parse_cache_misses();
    hits_after += n->parse_cache_hits();
  }
  EXPECT_EQ(misses_after, misses_before);
  EXPECT_EQ(hits_after, hits_before);
}

// ---------------------------------------------------------------------------
// Prepared-statement batch API rides the structured write path.
// ---------------------------------------------------------------------------

TEST_F(WriteLaneTest, PreparedBatchExecutesAllEntries) {
  std::unique_ptr<Target> c = MakeSharded();
  auto ps = c->conn->PrepareStatement(
      "INSERT INTO t_order (oid, uid, amount, month) VALUES (?, ?, ?, ?)");
  ASSERT_TRUE(ps.ok()) << ps.status().ToString();
  for (int i = 0; i < 5; ++i) {
    (*ps)->SetInt(1, 4000 + i);
    (*ps)->SetInt(2, i);
    (*ps)->SetDouble(3, 1.5 * i);
    (*ps)->SetInt(4, 1 + i);
    (*ps)->AddBatch();
  }
  EXPECT_EQ((*ps)->batch_size(), 5u);
  auto counts = (*ps)->ExecuteBatch();
  ASSERT_TRUE(counts.ok()) << counts.status().ToString();
  EXPECT_EQ(counts->size(), 5u);
  for (int64_t n : *counts) EXPECT_EQ(n, 1);
  EXPECT_EQ((*ps)->batch_size(), 0u);
  auto rs = c->conn->ExecuteQuery(
      "SELECT COUNT(*) FROM t_order WHERE oid >= 4000");
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rs->Next());
  EXPECT_EQ(rs->GetInt(0), 5);
}

}  // namespace
}  // namespace sphere::adaptor
