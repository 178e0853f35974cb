// Version-chain lifecycle tests for the MVCC storage layer (DESIGN.md §15):
// chain growth under updates, GC pruning bounded by pinned snapshots (the
// full GcVersions sweep and commit-time GC), tombstone erasure, the
// truncation graveyard, and the atomic live-row count across
// pending/commit/abort transitions.

#include "storage/mvcc.h"

#include <gtest/gtest.h>

#include "storage/database.h"
#include "storage/table.h"

namespace sphere::storage {
namespace {

class MvccGcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s({Column("id", ColumnType::kInt, true),
              Column("v", ColumnType::kInt)});
    ASSERT_TRUE(db_.CreateTable("t", s).ok());
    table_ = db_.FindTable("t");
    em_ = db_.epochs();
    {
      WriterLock lk(table_->latch());
      ASSERT_TRUE(table_->Insert({Value(1), Value(0)}, nullptr).ok());
    }
  }

  // One committed update of row `pk` to value `v`, via the production commit
  // protocol: pending install under the writer latch, then restamp inside
  // the epoch manager's commit section. Returns the commit epoch.
  uint64_t CommitUpdate(int64_t pk, int64_t v) {
    int64_t writer = em_->NextWriterId();
    {
      WriterLock lk(table_->latch());
      EXPECT_TRUE(
          table_->Update(Value(pk), {Value(pk), Value(v)}, writer).ok());
    }
    uint64_t epoch = em_->BeginCommit();
    {
      WriterLock lk(table_->latch());
      table_->CommitWrite(Value(pk), writer, epoch);
    }
    em_->EndCommit(epoch);
    return epoch;
  }

  uint64_t CommitInsert(int64_t pk, int64_t v) {
    int64_t writer = em_->NextWriterId();
    {
      WriterLock lk(table_->latch());
      EXPECT_TRUE(table_->Insert({Value(pk), Value(v)}, nullptr, writer).ok());
    }
    uint64_t epoch = em_->BeginCommit();
    {
      WriterLock lk(table_->latch());
      table_->CommitWrite(Value(pk), writer, epoch);
    }
    em_->EndCommit(epoch);
    return epoch;
  }

  uint64_t CommitDelete(int64_t pk) {
    int64_t writer = em_->NextWriterId();
    {
      WriterLock lk(table_->latch());
      EXPECT_TRUE(table_->Delete(Value(pk), nullptr, writer).ok());
    }
    uint64_t epoch = em_->BeginCommit();
    {
      WriterLock lk(table_->latch());
      table_->CommitWrite(Value(pk), writer, epoch);
    }
    em_->EndCommit(epoch);
    return epoch;
  }

  int64_t LatestValue(int64_t pk) {
    ReaderLock lk(table_->latch());
    const Row* row = table_->Find(Value(pk));
    return row == nullptr ? -1 : (*row)[1].AsInt();
  }

  Database db_{"ds0"};
  Table* table_ = nullptr;
  EpochManager* em_ = nullptr;
};

TEST_F(MvccGcTest, UpdatesGrowChainAndGcPrunesSuperseded) {
  for (int64_t v = 1; v <= 5; ++v) CommitUpdate(1, v);
  // Insert + 5 updates: six versions chained, newest first.
  EXPECT_EQ(table_->version_count(), 6u);

  // No pinned snapshot: everything below the newest committed version is
  // unreachable and must go.
  EXPECT_EQ(table_->GcVersions(), 5u);
  EXPECT_EQ(table_->version_count(), 1u);
  EXPECT_EQ(LatestValue(1), 5);
}

TEST_F(MvccGcTest, PinnedSnapshotBoundsPruneAndStaysReadable) {
  uint64_t pinned_epoch = CommitUpdate(1, 10);
  Snapshot snap(em_);
  ASSERT_EQ(snap.epoch(), pinned_epoch);

  CommitUpdate(1, 20);
  CommitUpdate(1, 30);
  // Chain: [30][20][10][insert(0)], snapshot pinned at the epoch of 10.
  EXPECT_EQ(table_->version_count(), 4u);

  // GC may free only the insert image (superseded before the pin); the
  // pinned version and everything newer must survive.
  EXPECT_EQ(table_->GcVersions(), 1u);
  EXPECT_EQ(table_->version_count(), 3u);
  {
    ReaderLock lk(table_->latch());
    const Row* old_row = table_->FindVisible(Value(1), snap.view());
    ASSERT_NE(old_row, nullptr);
    EXPECT_EQ((*old_row)[1].AsInt(), 10);
  }
  EXPECT_EQ(LatestValue(1), 30);

  // Releasing the pin unblocks the rest of the chain.
  snap.Release();
  EXPECT_EQ(table_->GcVersions(), 2u);
  EXPECT_EQ(table_->version_count(), 1u);
  EXPECT_EQ(LatestValue(1), 30);
}

TEST_F(MvccGcTest, DeadTombstoneChainIsErased) {
  CommitUpdate(1, 7);
  CommitDelete(1);
  // Tombstone + two data versions still chained until GC proves no snapshot
  // can resolve a row from them.
  EXPECT_EQ(table_->version_count(), 3u);
  EXPECT_EQ(LatestValue(1), -1);
  EXPECT_EQ(table_->row_count(), 0u);

  EXPECT_EQ(table_->GcVersions(), 3u);
  EXPECT_EQ(table_->version_count(), 0u);
  {
    ReaderLock lk(table_->latch());
    EXPECT_EQ(table_->Find(Value(1)), nullptr);
  }
}

TEST_F(MvccGcTest, PinnedSnapshotStillResolvesDeletedRow) {
  CommitUpdate(1, 42);
  Snapshot snap(em_);
  CommitDelete(1);

  // The tombstone is newest, but the pinned view resolves past it.
  {
    ReaderLock lk(table_->latch());
    const Row* row = table_->FindVisible(Value(1), snap.view());
    ASSERT_NE(row, nullptr);
    EXPECT_EQ((*row)[1].AsInt(), 42);
  }
  // GC must keep the version the pin can reach (and the tombstone above it).
  table_->GcVersions();
  {
    ReaderLock lk(table_->latch());
    const Row* row = table_->FindVisible(Value(1), snap.view());
    ASSERT_NE(row, nullptr);
    EXPECT_EQ((*row)[1].AsInt(), 42);
  }
  snap.Release();
  EXPECT_GT(table_->GcVersions(), 0u);
  EXPECT_EQ(table_->version_count(), 0u);
}

TEST_F(MvccGcTest, TruncateGraveyardFreedOnlyPastPins) {
  CommitUpdate(1, 5);
  Snapshot snap(em_);

  const Row* borrowed = nullptr;
  {
    ReaderLock lk(table_->latch());
    borrowed = table_->FindVisible(Value(1), snap.view());
    ASSERT_NE(borrowed, nullptr);
  }
  {
    WriterLock lk(table_->latch());
    table_->Truncate();
  }
  // The chain moved to the graveyard instead of being freed: the borrowed
  // pointer stays readable while the snapshot is pinned (a use-after-free
  // here is what the ASan tree would catch).
  EXPECT_EQ(table_->row_count(), 0u);
  EXPECT_GE(table_->version_count(), 2u);
  EXPECT_EQ((*borrowed)[1].AsInt(), 5);

  // GC keeps the graveyard while the pin predates the truncation...
  table_->GcVersions();
  EXPECT_GE(table_->version_count(), 2u);
  EXPECT_EQ((*borrowed)[1].AsInt(), 5);

  // ...and drains it once the pin is gone.
  snap.Release();
  table_->GcVersions();
  EXPECT_EQ(table_->version_count(), 0u);
}

TEST_F(MvccGcTest, TruncateWithNoPinsFreesImmediately) {
  CommitUpdate(1, 5);
  {
    WriterLock lk(table_->latch());
    table_->Truncate();
  }
  EXPECT_EQ(table_->version_count(), 0u);
  EXPECT_EQ(table_->row_count(), 0u);
}

// ---------------------------------------------------------------------------
// Commit-time GC: no GcVersions call anywhere below. The cached horizon is
// refreshed once per kHorizonRefreshCommits commits, so each test drives at
// least that many commits before asserting a bound.
// ---------------------------------------------------------------------------

constexpr int64_t kRefresh = EpochManager::kHorizonRefreshCommits;

TEST_F(MvccGcTest, CommitTimeGcKeepsAboutOneVersionPerRow) {
  constexpr int64_t kRows = 200;
  constexpr int64_t kRounds = 6;
  for (int64_t pk = 2; pk <= kRows; ++pk) CommitInsert(pk, 0);
  for (int64_t round = 1; round <= kRounds; ++round) {
    for (int64_t pk = 1; pk <= kRows; ++pk) CommitUpdate(pk, round);
  }
  // Only the commits since the latest horizon refresh may still hold the
  // version they superseded; without commit-time GC this would be
  // kRows * (kRounds + 1).
  EXPECT_LE(table_->version_count(), static_cast<size_t>(kRows + kRefresh));
  for (int64_t pk = 1; pk <= kRows; ++pk) EXPECT_EQ(LatestValue(pk), kRounds);
}

TEST_F(MvccGcTest, CommitTimeGcPrunesAroundPinnedSnapshot) {
  CommitUpdate(1, 10);
  Snapshot snap(em_);
  const Row* borrowed = nullptr;
  {
    ReaderLock lk(table_->latch());
    borrowed = table_->FindVisible(Value(1), snap.view());
    ASSERT_NE(borrowed, nullptr);
  }
  constexpr int64_t kUpdates = 3 * kRefresh;
  for (int64_t v = 1; v <= kUpdates; ++v) CommitUpdate(1, 100 + v);

  // The insert image predates the pin and is gone; the pinned version and
  // everything committed after it stay. A use-after-free on `borrowed` is
  // what the ASan tree would report.
  EXPECT_EQ(table_->version_count(), static_cast<size_t>(1 + kUpdates));
  EXPECT_EQ((*borrowed)[1].AsInt(), 10);
  {
    ReaderLock lk(table_->latch());
    const Row* row = table_->FindVisible(Value(1), snap.view());
    ASSERT_EQ(row, borrowed);
  }
  EXPECT_EQ(LatestValue(1), 100 + kUpdates);

  // Once the pin is gone, later commits (fresh inserts elsewhere, which
  // supersede nothing themselves) collapse row 1's chain to its head.
  snap.Release();
  for (int64_t pk = 2; pk <= kRefresh + 2; ++pk) CommitInsert(pk, pk);
  EXPECT_EQ(table_->version_count(), static_cast<size_t>(1 + kRefresh + 1));
  EXPECT_EQ(LatestValue(1), 100 + kUpdates);
}

TEST_F(MvccGcTest, CommitTimeGcErasesDeadTombstoneKeys) {
  CommitUpdate(1, 7);
  CommitDelete(1);
  for (int64_t pk = 2; pk <= kRefresh + 2; ++pk) CommitInsert(pk, pk);
  // Row 1's tombstone chain is gone from the tree; only the inserts remain.
  EXPECT_EQ(table_->version_count(), static_cast<size_t>(kRefresh + 1));
  EXPECT_EQ(table_->row_count(), static_cast<size_t>(kRefresh + 1));
  ReaderLock lk(table_->latch());
  EXPECT_EQ(table_->Find(Value(1)), nullptr);
  EXPECT_EQ(table_->FindVisible(Value(1), ReadView::Latest(0)), nullptr);
}

TEST_F(MvccGcTest, CommitTimeGcDrainsTruncateGraveyard) {
  CommitUpdate(1, 5);
  Snapshot snap(em_);
  const Row* borrowed = nullptr;
  {
    ReaderLock lk(table_->latch());
    borrowed = table_->FindVisible(Value(1), snap.view());
    ASSERT_NE(borrowed, nullptr);
  }
  {
    WriterLock lk(table_->latch());
    table_->Truncate();
  }
  // Commits while the pre-truncation pin lives must leave the graveyard.
  for (int64_t pk = 2; pk <= kRefresh + 2; ++pk) CommitInsert(pk, pk);
  EXPECT_GE(table_->version_count(), static_cast<size_t>(kRefresh + 1 + 2));
  EXPECT_EQ((*borrowed)[1].AsInt(), 5);

  // After the release, the next horizon refresh frees it.
  snap.Release();
  for (int64_t pk = 100; pk <= 100 + kRefresh; ++pk) CommitInsert(pk, pk);
  EXPECT_EQ(table_->version_count(),
            static_cast<size_t>(kRefresh + 1 + kRefresh + 1));
  EXPECT_EQ(table_->row_count(), table_->version_count());
}

TEST_F(MvccGcTest, CommitTimeGcKeepsBuriedPendingVersion) {
  // Writer A installs a pending update; writer B then updates and commits
  // the same row (no write-write conflict detection), burying A's version
  // below B's commit.
  int64_t a = em_->NextWriterId();
  {
    WriterLock lk(table_->latch());
    ASSERT_TRUE(table_->Update(Value(1), {Value(1), Value(111)}, a).ok());
  }
  CommitUpdate(1, 222);
  for (int64_t pk = 2; pk <= 2 * kRefresh + 2; ++pk) CommitInsert(pk, pk);
  // B's version is now the keeper. The committed image below it is freed;
  // A's pending version stays linked for its owner.
  EXPECT_EQ(LatestValue(1), 222);
  EXPECT_EQ(table_->version_count(), static_cast<size_t>(2 + 2 * kRefresh + 1));
  uint64_t epoch = em_->BeginCommit();
  {
    WriterLock lk(table_->latch());
    table_->CommitWrite(Value(1), a, epoch);
  }
  em_->EndCommit(epoch);
  EXPECT_EQ(LatestValue(1), 111);
}

TEST_F(MvccGcTest, SnapshotAgeTracksLaggingPin) {
  Snapshot snap(em_);
  EXPECT_EQ(em_->SnapshotAge(), 0);
  CommitUpdate(1, 1);
  CommitUpdate(1, 2);
  EXPECT_EQ(em_->SnapshotAge(), 2);
  snap.Release();
  EXPECT_EQ(em_->SnapshotAge(), 0);
}

// ---------------------------------------------------------------------------
// live-row count across pending/commit/abort (row_count() is the lock-free
// monitoring read; a drifting counter silently corrupts `SELECT COUNT(*)`
// fast paths and DistSQL table stats).
// ---------------------------------------------------------------------------

class MvccRowCountTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s({Column("id", ColumnType::kInt, true),
              Column("v", ColumnType::kInt)});
    ASSERT_TRUE(db_.CreateTable("t", s).ok());
    table_ = db_.FindTable("t");
    em_ = db_.epochs();
    WriterLock lk(table_->latch());
    ASSERT_TRUE(table_->Insert({Value(1), Value(10)}, nullptr).ok());
    ASSERT_TRUE(table_->Insert({Value(2), Value(20)}, nullptr).ok());
  }

  Database db_{"ds0"};
  Table* table_ = nullptr;
  EpochManager* em_ = nullptr;
};

TEST_F(MvccRowCountTest, PendingInsertCountsUntilAborted) {
  int64_t writer = em_->NextWriterId();
  {
    WriterLock lk(table_->latch());
    ASSERT_TRUE(table_->Insert({Value(3), Value(30)}, nullptr, writer).ok());
  }
  // The pending row counts in the writer's own view of the table size.
  EXPECT_EQ(table_->row_count(), 3u);
  {
    WriterLock lk(table_->latch());
    table_->AbortWrite(Value(3), writer);
  }
  EXPECT_EQ(table_->row_count(), 2u);
}

TEST_F(MvccRowCountTest, AbortedDeleteRestoresCount) {
  int64_t writer = em_->NextWriterId();
  {
    WriterLock lk(table_->latch());
    ASSERT_TRUE(table_->Delete(Value(1), nullptr, writer).ok());
  }
  EXPECT_EQ(table_->row_count(), 1u);
  {
    WriterLock lk(table_->latch());
    table_->AbortWrite(Value(1), writer);
  }
  EXPECT_EQ(table_->row_count(), 2u);
  ReaderLock lk(table_->latch());
  ASSERT_NE(table_->Find(Value(1)), nullptr);
}

TEST_F(MvccRowCountTest, UpdateAndItsAbortLeaveCountAlone) {
  int64_t writer = em_->NextWriterId();
  {
    WriterLock lk(table_->latch());
    ASSERT_TRUE(
        table_->Update(Value(1), {Value(1), Value(11)}, writer).ok());
  }
  EXPECT_EQ(table_->row_count(), 2u);
  {
    WriterLock lk(table_->latch());
    table_->AbortWrite(Value(1), writer);
  }
  EXPECT_EQ(table_->row_count(), 2u);
}

TEST_F(MvccRowCountTest, CommitKeepsCountAndGcDoesNotDisturbIt) {
  int64_t writer = em_->NextWriterId();
  {
    WriterLock lk(table_->latch());
    ASSERT_TRUE(table_->Insert({Value(3), Value(30)}, nullptr, writer).ok());
    ASSERT_TRUE(table_->Delete(Value(2), nullptr, writer).ok());
  }
  uint64_t epoch = em_->BeginCommit();
  {
    WriterLock lk(table_->latch());
    table_->CommitWrite(Value(3), writer, epoch);
    table_->CommitWrite(Value(2), writer, epoch);
  }
  em_->EndCommit(epoch);
  EXPECT_EQ(table_->row_count(), 2u);
  table_->GcVersions();
  EXPECT_EQ(table_->row_count(), 2u);
}

TEST_F(MvccRowCountTest, TruncateZeroesCount) {
  {
    WriterLock lk(table_->latch());
    table_->Truncate();
  }
  EXPECT_EQ(table_->row_count(), 0u);
}

}  // namespace
}  // namespace sphere::storage
