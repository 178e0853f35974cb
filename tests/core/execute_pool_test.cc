#include "core/execute.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "engine/storage_node.h"
#include "net/latency.h"

namespace sphere::core {
namespace {

/// Three storage nodes, each holding table t with a single row whose value
/// identifies the node (0, 1, 2). A unit's result row therefore proves which
/// data source executed it.
class ExecutePoolTest : public ::testing::Test {
 protected:
  ExecutePoolTest() : network_(net::NetworkConfig::Zero()) {
    for (int i = 0; i < 3; ++i) {
      auto node =
          std::make_unique<engine::StorageNode>("ds_" + std::to_string(i));
      auto session = node->OpenSession();
      EXPECT_TRUE(session->Execute("CREATE TABLE t (n BIGINT)").ok());
      EXPECT_TRUE(session
                      ->Execute("INSERT INTO t (n) VALUES (" +
                                std::to_string(i) + ")")
                      .ok());
      EXPECT_TRUE(registry_
                      .Register(std::make_unique<net::DataSource>(
                          node->name(), node.get(), &network_, 8))
                      .ok());
      nodes_.push_back(std::move(node));
    }
  }

  /// `count` units striped over the three sources: unit i targets ds_{i%3}.
  static std::vector<SQLUnit> StripedUnits(int count) {
    std::vector<SQLUnit> units;
    for (int i = 0; i < count; ++i) {
      SQLUnit u;
      u.data_source = "ds_" + std::to_string(i % 3);
      u.sql = "SELECT n FROM t";
      units.push_back(std::move(u));
    }
    return units;
  }

  /// Asserts results[i] came from the data source units[i] named.
  static void ExpectAligned(const std::vector<SQLUnit>& units,
                            ArenaVector<engine::ExecResult> results) {
    ASSERT_EQ(results.size(), units.size());
    for (size_t i = 0; i < results.size(); ++i) {
      Row row;
      ASSERT_TRUE(results[i].result_set->Next(&row)) << "unit " << i;
      EXPECT_EQ("ds_" + std::to_string(row[0].ToInt()), units[i].data_source)
          << "unit " << i;
    }
  }

  net::LatencyModel network_;
  DataSourceRegistry registry_;
  std::vector<std::unique_ptr<engine::StorageNode>> nodes_;
};

TEST_F(ExecutePoolTest, ResultsAlignWithUnitsOnInjectedPool) {
  // A 2-thread pool with 3+ tasks: slices interleave in time, results must
  // still land at their unit's index.
  ThreadPool pool(2);
  ExecutionEngine engine(&registry_, /*max_connections_per_query=*/1, &pool);
  std::vector<SQLUnit> units = StripedUnits(9);
  auto outcome = engine.Execute(units, nullptr);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  // 3 units per source over 1 connection forces connection-strictly mode.
  EXPECT_EQ(outcome.value().mode, ConnectionMode::kConnectionStrictly);
  ExpectAligned(units, std::move(outcome.value().results));
}

TEST_F(ExecutePoolTest, ResultsAlignOnSharedPoolDefault) {
  ExecutionEngine engine(&registry_, /*max_connections_per_query=*/2);
  EXPECT_EQ(engine.thread_pool(), SharedThreadPool());
  std::vector<SQLUnit> units = StripedUnits(12);
  auto outcome = engine.Execute(units, nullptr);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ExpectAligned(units, std::move(outcome.value().results));
}

TEST_F(ExecutePoolTest, SingleUnitRunsInlineWithoutPool) {
  // A null pool selects the shared scheduler; one unit never touches it.
  ExecutionEngine engine(&registry_, 1, nullptr);
  EXPECT_EQ(engine.thread_pool(), SharedThreadPool());
  std::vector<SQLUnit> units = StripedUnits(1);
  auto outcome = engine.Execute(units, nullptr);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ExpectAligned(units, std::move(outcome.value().results));
}

TEST_F(ExecutePoolTest, ManyStatementsThroughOnePoolConcurrently) {
  // Concurrent Execute calls sharing one scheduler: slices from different
  // statements interleave on the same workers.
  ThreadPool pool(3);
  ExecutionEngine engine(&registry_, 1, &pool);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this, &engine] {
      for (int i = 0; i < 25; ++i) {
        std::vector<SQLUnit> units = StripedUnits(6);
        auto outcome = engine.Execute(units, nullptr);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        ExpectAligned(units, std::move(outcome.value().results));
      }
    });
  }
  for (auto& th : threads) th.join();
}

TEST(DataSourceRegistryTest, FindIsCaseInsensitive) {
  net::LatencyModel network(net::NetworkConfig::Zero());
  engine::StorageNode node("DS_Main");
  DataSourceRegistry registry;
  ASSERT_TRUE(registry
                  .Register(std::make_unique<net::DataSource>(
                      "DS_Main", &node, &network, 4))
                  .ok());
  EXPECT_NE(registry.Find("ds_main"), nullptr);
  EXPECT_NE(registry.Find("DS_MAIN"), nullptr);
  EXPECT_EQ(registry.Find("ds_other"), nullptr);
  // Registration collides case-insensitively too.
  EXPECT_FALSE(registry
                   .Register(std::make_unique<net::DataSource>(
                       "ds_MAIN", &node, &network, 4))
                   .ok());
  EXPECT_EQ(registry.Names(), std::vector<std::string>{"DS_Main"});
}

}  // namespace
}  // namespace sphere::core
