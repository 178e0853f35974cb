// MVCC read/write stress (DESIGN.md §15), written for the TSan and lockdep
// trees (check.sh re-runs `ctest -R MvccStress` in both): snapshot readers
// scan through the executor while writers commit, roll back and churn rows,
// and commit-time GC (plus, in two tests, a GcVersions thread) prunes
// version chains mid-scan. Every reader asserts its scan was one consistent
// cut — a torn snapshot shows up as a failed invariant here, and as a data
// race / lock-order / use-after-free report in the sanitizer trees.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/pipeline.h"
#include "engine/result_set.h"
#include "engine/storage_node.h"
#include "storage/mvcc.h"
#include "common/clock.h"
#include "common/rng.h"
#include "storage/table.h"

namespace sphere {
namespace {

/// Waits until `count` reaches `target`, for at most 30 s. False on timeout.
bool WaitForCount(const std::atomic<int>& count, int target) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (count.load(std::memory_order_acquire) < target) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    SleepMicros(500);
  }
  return true;
}

// Transfers between accounts keep COUNT and SUM invariant; every snapshot —
// no matter how it interleaves with commits, rollbacks and GC — must observe
// exactly the initial totals.
TEST(MvccStressTest, SnapshotScansSeeConsistentTotals) {
  engine::ScopedConcurrencyControl cc(engine::ConcurrencyControl::kMvcc);
  constexpr int kAccounts = 64;
  constexpr int64_t kInitialBalance = 100;
  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  constexpr int kWriterTxns = 150;

  engine::StorageNode node("ds_mvcc_stress");
  {
    auto admin = node.OpenSession();
    ASSERT_TRUE(
        admin->Execute("CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
            .ok());
    for (int i = 0; i < kAccounts; ++i) {
      ASSERT_TRUE(admin
                      ->Execute("INSERT INTO acct VALUES (?, ?)",
                                {Value(i), Value(kInitialBalance)})
                      .ok());
    }
  }

  std::atomic<int> writers_done{0};
  std::atomic<int> readers_scanned{0};  ///< readers with >= 1 finished scan
  std::atomic<bool> wait_timed_out{false};
  std::atomic<int64_t> bad_snapshots{0};
  std::atomic<int64_t> reader_failures{0};
  std::atomic<int64_t> scans{0};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      // Each writer transfers within its own account partition: there is no
      // write-write conflict detection, so two transactions computing
      // `bal - ?` from the same committed image would lose one delta and
      // the invariant would break for reasons unrelated to snapshots.
      constexpr int kSpan = kAccounts / kWriters;
      const int base = w * kSpan;
      auto session = node.OpenSession();
      for (int i = 0; i < kWriterTxns; ++i) {
        // Move an amount between two accounts; commit two thirds of the
        // time, roll back the rest. Either way the totals are untouched.
        int from = base + (i * 7) % kSpan;
        int to = base + ((i * 7) % kSpan + 1 + i % (kSpan - 1)) % kSpan;
        int64_t amount = 1 + i % 5;
        bool ok = session->Execute("BEGIN").ok();
        ok = session
                 ->Execute("UPDATE acct SET bal = bal - ? WHERE id = ?",
                           {Value(amount), Value(from)})
                 .ok() &&
             ok;
        ok = session
                 ->Execute("UPDATE acct SET bal = bal + ? WHERE id = ?",
                           {Value(amount), Value(to)})
                 .ok() &&
             ok;
        // The final transaction stays open until every reader has finished
        // a scan, so each reader overlaps at least one in-flight writer
        // however the host schedules the threads.
        if (i == kWriterTxns - 1 && !WaitForCount(readers_scanned, kReaders)) {
          wait_timed_out.store(true);
        }
        const char* end = (!ok || i % 3 == 0) ? "ROLLBACK" : "COMMIT";
        if (session->in_transaction()) session->Execute(end).ok();
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }

  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      auto session = node.OpenSession();
      bool scanned = false;
      while (writers_done.load(std::memory_order_acquire) < kWriters) {
        auto res = session->Execute("SELECT COUNT(*), SUM(bal) FROM acct");
        if (!res.ok()) {
          reader_failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        Row row;
        if (!res->result_set->Next(&row) || row.size() != 2) {
          reader_failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (row[0].AsInt() != kAccounts ||
            row[1].AsInt() != kAccounts * kInitialBalance) {
          bad_snapshots.fetch_add(1, std::memory_order_relaxed);
        }
        scans.fetch_add(1, std::memory_order_relaxed);
        if (!scanned) {
          scanned = true;
          readers_scanned.fetch_add(1, std::memory_order_release);
        }
      }
    });
  }

  // GC churns version chains while readers hold pinned snapshots into them:
  // the prune-while-scanning path.
  threads.emplace_back([&] {
    storage::Table* table = node.database()->FindTable("acct");
    while (writers_done.load(std::memory_order_acquire) < kWriters) {
      if (table != nullptr) table->GcVersions();
      std::this_thread::yield();
    }
  });

  for (auto& t : threads) t.join();
  EXPECT_FALSE(wait_timed_out.load())
      << "writers gave up after 30 s waiting for every reader's first scan";
  EXPECT_EQ(bad_snapshots.load(), 0);
  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_GT(scans.load(), 0);
  EXPECT_EQ(readers_scanned.load(), kReaders);

  // Final state: still the initial totals, and GC can reduce every chain.
  auto check = node.OpenSession();
  auto res = check->Execute("SELECT COUNT(*), SUM(bal) FROM acct");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  Row row;
  ASSERT_TRUE(res->result_set->Next(&row));
  EXPECT_EQ(row[0].AsInt(), kAccounts);
  EXPECT_EQ(row[1].AsInt(), kAccounts * kInitialBalance);
  storage::Table* table = node.database()->FindTable("acct");
  ASSERT_NE(table, nullptr);
  table->GcVersions();
  EXPECT_EQ(table->version_count(), static_cast<size_t>(kAccounts));
}

// Writers insert a fresh row and delete it inside one transaction (net zero
// rows), so readers must always count exactly the base population — an
// insert or tombstone leaking across a snapshot boundary breaks the count.
TEST(MvccStressTest, InsertDeleteChurnKeepsCountStable) {
  engine::ScopedConcurrencyControl cc(engine::ConcurrencyControl::kMvcc);
  constexpr int kBaseRows = 32;
  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr int kWriterTxns = 120;

  engine::StorageNode node("ds_mvcc_churn");
  {
    auto admin = node.OpenSession();
    ASSERT_TRUE(
        admin->Execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
    for (int i = 0; i < kBaseRows; ++i) {
      ASSERT_TRUE(admin
                      ->Execute("INSERT INTO t VALUES (?, ?)",
                                {Value(i), Value(i)})
                      .ok());
    }
  }

  std::atomic<int> writers_done{0};
  std::atomic<int64_t> bad_counts{0};
  std::atomic<int64_t> reader_failures{0};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&node, &writers_done, w] {
      auto session = node.OpenSession();
      for (int i = 0; i < kWriterTxns; ++i) {
        // Disjoint id ranges per writer avoid duplicate-key noise.
        int id = 1000 + w * kWriterTxns + i;
        bool ok = session->Execute("BEGIN").ok();
        ok = session
                 ->Execute("INSERT INTO t VALUES (?, ?)",
                           {Value(id), Value(i)})
                 .ok() &&
             ok;
        ok = session->Execute("DELETE FROM t WHERE id = ?", {Value(id)}).ok() &&
             ok;
        const char* end = (!ok || i % 4 == 0) ? "ROLLBACK" : "COMMIT";
        if (session->in_transaction()) session->Execute(end).ok();
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }

  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      auto session = node.OpenSession();
      while (writers_done.load(std::memory_order_acquire) < kWriters) {
        auto res = session->Execute("SELECT COUNT(*) FROM t");
        Row row;
        if (!res.ok() || !res->result_set->Next(&row)) {
          reader_failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (row[0].AsInt() != kBaseRows) {
          bad_counts.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  threads.emplace_back([&] {
    storage::Table* table = node.database()->FindTable("t");
    while (writers_done.load(std::memory_order_acquire) < kWriters) {
      if (table != nullptr) table->GcVersions();
      std::this_thread::yield();
    }
  });

  for (auto& t : threads) t.join();
  EXPECT_EQ(bad_counts.load(), 0);
  EXPECT_EQ(reader_failures.load(), 0);

  storage::Table* table = node.database()->FindTable("t");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->row_count(), static_cast<size_t>(kBaseRows));
  table->GcVersions();
  EXPECT_EQ(table->version_count(), static_cast<size_t>(kBaseRows));
}

// No GcVersions anywhere: commit-time GC alone reclaims versions while
// transactional readers hold pinned snapshots across several statements.
// Each reader transaction must see the same totals in every statement
// (repeatable read over chains pruned around its pin), and once writers
// quiesce the process-wide live version count must settle near one per row.
TEST(MvccStressTest, CommitTimeGcUnderPinnedReadersSettles) {
  engine::ScopedConcurrencyControl cc(engine::ConcurrencyControl::kMvcc);
  constexpr int kAccounts = 64;
  constexpr int64_t kInitialBalance = 100;
  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr int kWriterTxns = 200;  ///< at least; more until readers finish
  constexpr int kReaderTxns = 40;
  constexpr int64_t kRefresh = storage::EpochManager::kHorizonRefreshCommits;
  const int64_t live_before = storage::VersionPool::Instance().live();

  engine::StorageNode node("ds_mvcc_commit_gc");
  {
    auto admin = node.OpenSession();
    ASSERT_TRUE(
        admin->Execute("CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
            .ok());
    for (int i = 0; i < kAccounts; ++i) {
      ASSERT_TRUE(admin
                      ->Execute("INSERT INTO acct VALUES (?, ?)",
                                {Value(i), Value(kInitialBalance)})
                      .ok());
    }
  }

  std::atomic<int> readers_done{0};
  std::atomic<int64_t> bad_reads{0};
  std::atomic<int64_t> reader_failures{0};
  std::atomic<int64_t> reader_txns{0};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&node, &readers_done, w] {
      // Disjoint account partitions: no write-write conflict detection.
      constexpr int kSpan = kAccounts / kWriters;
      const int base = w * kSpan;
      auto session = node.OpenSession();
      // Writers outlast the readers, so every reader transaction overlaps
      // commits however the threads are scheduled.
      for (int i = 0; i < kWriterTxns ||
                      readers_done.load(std::memory_order_acquire) < kReaders;
           ++i) {
        int from = base + (i * 5) % kSpan;
        int to = base + ((i * 5) % kSpan + 1 + i % (kSpan - 1)) % kSpan;
        int64_t amount = 1 + i % 7;
        bool ok = session->Execute("BEGIN").ok();
        ok = session
                 ->Execute("UPDATE acct SET bal = bal - ? WHERE id = ?",
                           {Value(amount), Value(from)})
                 .ok() &&
             ok;
        ok = session
                 ->Execute("UPDATE acct SET bal = bal + ? WHERE id = ?",
                           {Value(amount), Value(to)})
                 .ok() &&
             ok;
        const char* end = (!ok || i % 5 == 0) ? "ROLLBACK" : "COMMIT";
        if (session->in_transaction()) session->Execute(end).ok();
      }
    });
  }

  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      auto session = node.OpenSession();
      auto total = [&](int64_t* sum) {
        auto res = session->Execute("SELECT COUNT(*), SUM(bal) FROM acct");
        Row row;
        if (!res.ok() || !res->result_set->Next(&row) || row.size() != 2) {
          return false;
        }
        *sum = row[0].AsInt() == kAccounts ? row[1].AsInt() : -1;
        return true;
      };
      for (int t = 0; t < kReaderTxns; ++t) {
        if (!session->Execute("BEGIN").ok()) {
          reader_failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Three reads of one pinned snapshot, with writers committing (and
        // pruning) in between; a pruned-away version reads wrong or, under
        // ASan, as a use-after-free.
        for (int k = 0; k < 3; ++k) {
          int64_t sum = 0;
          if (!total(&sum)) {
            reader_failures.fetch_add(1, std::memory_order_relaxed);
          } else if (sum != kAccounts * kInitialBalance) {
            bad_reads.fetch_add(1, std::memory_order_relaxed);
          }
          std::this_thread::yield();
        }
        session->Execute("COMMIT").ok();
        reader_txns.fetch_add(1, std::memory_order_relaxed);
      }
      readers_done.fetch_add(1, std::memory_order_release);
    });
  }

  for (auto& t : threads) t.join();
  EXPECT_EQ(bad_reads.load(), 0);
  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_EQ(reader_txns.load(), kReaders * kReaderTxns);

  // Quiesced: a couple of horizon refreshes' worth of auto-commit writes
  // lets commit-time GC catch up with everything the readers pinned.
  auto settle = node.OpenSession();
  for (int64_t i = 0; i < 2 * kRefresh; ++i) {
    ASSERT_TRUE(settle
                    ->Execute("UPDATE acct SET bal = bal WHERE id = ?",
                              {Value(i % kAccounts)})
                    .ok());
  }
  storage::Table* table = node.database()->FindTable("acct");
  ASSERT_NE(table, nullptr);
  EXPECT_LE(table->version_count(), static_cast<size_t>(kAccounts + kRefresh));
  // storage.mvcc.versions publishes VersionPool::live().
  EXPECT_LE(storage::VersionPool::Instance().live() - live_before,
            kAccounts + kRefresh);
  auto res = settle->Execute("SELECT COUNT(*), SUM(bal) FROM acct");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  Row row;
  ASSERT_TRUE(res->result_set->Next(&row));
  EXPECT_EQ(row[0].AsInt(), kAccounts);
  EXPECT_EQ(row[1].AsInt(), kAccounts * kInitialBalance);
}

// A non-indexed UPDATE must evaluate its WHERE on the same row image it
// replaces. Three A sessions keep raising every row below 10 by one; session B
// concurrently parks random rows at exactly 100 by primary key. If an A
// filtered on an image read before another writer's change and then applied
// its SET to the newer image, a row would end at 11 (another A raised it in
// between) or 101 (B parked it). Every row must end at <= 10 or exactly 100,
// under both concurrency-control modes.
TEST(MvccStressTest, NonIndexedDmlSeesTheImageItMutates) {
  constexpr int kRows = 256;
  constexpr int kRaisers = 3;
  constexpr int kPasses = 200;  ///< per A session
  constexpr int kStart = 10 - kRaisers * kPasses;  ///< no row reaches 10 early
  for (auto mode :
       {engine::ConcurrencyControl::kLatch, engine::ConcurrencyControl::kMvcc}) {
    engine::ScopedConcurrencyControl cc(mode);
    engine::StorageNode node("ds_stale_where");
    {
      auto admin = node.OpenSession();
      ASSERT_TRUE(
          admin->Execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
      for (int i = 0; i < kRows; ++i) {
        ASSERT_TRUE(admin
                        ->Execute("INSERT INTO t VALUES (?, ?)",
                                  {Value(i), Value(kStart)})
                        .ok());
      }
    }
    std::atomic<int> raisers_done{0};
    std::atomic<int64_t> failures{0};
    std::vector<std::thread> raisers;
    for (int r = 0; r < kRaisers; ++r) {
      raisers.emplace_back([&] {
        auto session = node.OpenSession();
        for (int i = 0; i < kPasses; ++i) {
          if (!session->Execute("UPDATE t SET v = v + 1 WHERE v < 10").ok()) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
        raisers_done.fetch_add(1, std::memory_order_release);
      });
    }
    std::thread b([&] {
      auto session = node.OpenSession();
      Rng rng(20261020);
      while (raisers_done.load(std::memory_order_acquire) < kRaisers) {
        if (!session
                 ->Execute("UPDATE t SET v = 100 WHERE id = ?",
                           {Value(rng.Uniform(0, kRows - 1))})
                 .ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    for (auto& t : raisers) t.join();
    b.join();
    EXPECT_EQ(failures.load(), 0);

    auto check = node.OpenSession();
    auto res = check->Execute("SELECT id, v FROM t");
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    std::vector<Row> rows = engine::DrainResultSet(res->result_set.get());
    ASSERT_EQ(rows.size(), static_cast<size_t>(kRows));
    int bad = 0;
    for (const Row& row : rows) {
      int64_t v = row[1].AsInt();
      if (v > 10 && v != 100) {
        if (++bad <= 5) {
          ADD_FAILURE() << "row " << row[0].AsInt() << " ended at " << v;
        }
      }
    }
    EXPECT_EQ(bad, 0) << "rows mutated from a stale WHERE image (mode "
                      << (mode == engine::ConcurrencyControl::kMvcc ? "mvcc"
                                                                    : "latch")
                      << ")";
  }
}

}  // namespace
}  // namespace sphere
