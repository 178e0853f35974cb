#ifndef SPHERE_STORAGE_MVCC_H_
#define SPHERE_STORAGE_MVCC_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/mutex.h"
#include "common/schema.h"

namespace sphere::storage {

/// Multi-version row storage (DESIGN.md §15).
///
/// Every table row is a newest-first chain of immutable `RowVersion` nodes.
/// Writers push a new version at the head under the table's WriterLock;
/// readers capture a snapshot epoch once and resolve each chain against it,
/// so a scan observes one consistent cut of the table while point DML keeps
/// committing concurrently. The version *data* is never mutated in place, so
/// a resolved `const Row*` stays valid outside the table latch for as long
/// as the reader's snapshot stays pinned (GC only frees versions no pinned
/// snapshot can reach).

/// Stamps at or above this value mark a pending (uncommitted) version; the
/// owner's writer id is `stamp - kPendingBase`. Below it, the stamp is the
/// commit epoch at which the version became visible.
inline constexpr uint64_t kPendingBase = uint64_t{1} << 62;

/// Snapshot epoch that sees every committed version ("read latest"). Write
/// paths resolve chains with this so they always act on the current image.
inline constexpr uint64_t kEpochLatest = kPendingBase - 1;

/// A reader's view of the table: every version committed at or before
/// `snapshot` is visible, plus the pending versions of `writer` (a
/// transaction reads its own uncommitted writes). `writer == 0` means "no
/// write identity" — pending versions are all invisible.
struct ReadView {
  uint64_t snapshot = kEpochLatest;
  int64_t writer = 0;

  /// The view of a write path: latest committed state + own pending writes.
  static ReadView Latest(int64_t writer_id) {
    return ReadView{kEpochLatest, writer_id};
  }
};

/// One immutable version of a row. `stamp` is atomic because commit restamps
/// pending versions while concurrent readers resolve the chain under only a
/// shared latch (or none at all on re-reads of pinned data).
struct RowVersion {
  std::atomic<uint64_t> stamp{0};
  bool deleted = false;  ///< tombstone: the row is absent in this version
  Row data;
  RowVersion* older = nullptr;  ///< next (older) version in the chain

  bool pending() const {
    return stamp.load(std::memory_order_acquire) >= kPendingBase;
  }
  int64_t owner() const {
    uint64_t s = stamp.load(std::memory_order_acquire);
    return s >= kPendingBase ? static_cast<int64_t>(s - kPendingBase) : 0;
  }
};

/// Process-wide recycler for version nodes: a popped node keeps its Row's
/// value/string capacity, so the write path's steady state installs versions
/// without touching malloc (the MVCC analogue of the PR 7 row pools). Leaf
/// rank: any layer may release into it while holding its own locks.
class VersionPool {
 public:
  static VersionPool& Instance();

  RowVersion* Acquire();
  void Release(RowVersion* v);
  /// Releases `head` and every older version linked behind it.
  void ReleaseChain(RowVersion* head);

  /// Live (acquired, not yet released) version nodes across the process —
  /// published as `storage.mvcc.versions`.
  int64_t live() const { return live_.load(std::memory_order_relaxed); }

  /// Drops the free list (test isolation / leak accounting).
  void Clear();

 private:
  VersionPool();
  static constexpr size_t kMaxFree = 16384;

  Mutex mu_{LockRank::kCommon, "storage/mvcc.version_pool"};
  std::vector<RowVersion*> free_ SPHERE_GUARDED_BY(mu_);
  std::atomic<int64_t> live_{0};
};

/// The version chain stored as a B+Tree payload. Owns its nodes; move-only
/// so tree splits shuffle chains without copying or freeing them.
struct VersionedRow {
  RowVersion* head = nullptr;  ///< newest first

  VersionedRow() = default;
  VersionedRow(VersionedRow&& o) noexcept : head(o.head) { o.head = nullptr; }
  VersionedRow& operator=(VersionedRow&& o) noexcept {
    if (this != &o) {
      if (head != nullptr) VersionPool::Instance().ReleaseChain(head);
      head = o.head;
      o.head = nullptr;
    }
    return *this;
  }
  VersionedRow(const VersionedRow&) = delete;
  VersionedRow& operator=(const VersionedRow&) = delete;
  ~VersionedRow() {
    if (head != nullptr) VersionPool::Instance().ReleaseChain(head);
  }
};

/// Resolves a chain against a view: the newest version the view may observe,
/// or nullptr when the row is invisible (no visible version, or the first
/// visible one is a tombstone). Chains are navigated under the table latch
/// (shared suffices); the returned version's data may be read after the
/// latch drops while the view's snapshot is pinned.
inline const RowVersion* ResolveVersion(const VersionedRow& vr,
                                        const ReadView& view) {
  for (const RowVersion* v = vr.head; v != nullptr; v = v->older) {
    uint64_t s = v->stamp.load(std::memory_order_acquire);
    if (s >= kPendingBase) {
      if (view.writer != 0 &&
          s == kPendingBase + static_cast<uint64_t>(view.writer)) {
        return v->deleted ? nullptr : v;
      }
      continue;
    }
    if (s <= view.snapshot) return v->deleted ? nullptr : v;
  }
  return nullptr;
}

/// Resolved row data or nullptr (tombstone/invisible).
inline const Row* ResolveRow(const VersionedRow& vr, const ReadView& view) {
  const RowVersion* v = ResolveVersion(vr, view);
  return v == nullptr ? nullptr : &v->data;
}

class Snapshot;

/// Per-node commit-epoch authority: owns the atomic visible epoch, the
/// writer-id space, the commit critical section and the registry of pinned
/// snapshots that bounds version GC.
///
/// Commit protocol: `BeginCommit` takes the commit mutex and allocates
/// `visible + 1`; the caller restamps every pending version it owns (per
/// table, under that table's WriterLock) with the new epoch; `EndCommit`
/// publishes it with a release store. Readers that snapshot the old epoch
/// can never observe a torn commit: either the publish happened-before their
/// snapshot (all stamps already in place) or every restamped version carries
/// an epoch greater than their snapshot.
class EpochManager {
 public:
  EpochManager();
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// Epoch of the latest fully published commit.
  uint64_t visible() const {
    return visible_.load(std::memory_order_acquire);
  }

  /// Allocates a writer id (transaction or auto-commit statement identity).
  int64_t NextWriterId() {
    return next_writer_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Enters the commit critical section and returns the commit epoch.
  /// Every `kHorizonRefreshCommits`-th call also refreshes `gc_horizon()`.
  uint64_t BeginCommit() SPHERE_ACQUIRE(commit_mu_);
  /// Publishes `epoch` and leaves the critical section.
  void EndCommit(uint64_t epoch) SPHERE_RELEASE(commit_mu_);
  /// Leaves the critical section without publishing (commit found no work).
  void AbortCommit() SPHERE_RELEASE(commit_mu_);

  /// The oldest epoch any live snapshot may still read (== `visible()` when
  /// nothing is pinned). Versions superseded before this epoch are dead.
  /// Scans every pin slot; the commit path reads `gc_horizon()` instead.
  uint64_t OldestLiveSnapshot() const;

  /// Commits between two refreshes of the cached GC horizon.
  static constexpr uint32_t kHorizonRefreshCommits = 32;

  /// `OldestLiveSnapshot()` as of the latest refresh (0 before the first
  /// commit). Commit-time GC prunes against it without scanning the pin
  /// slots per row. A stale value is safe: the oldest live snapshot never
  /// moves backwards, so a lagging horizon only keeps versions longer.
  uint64_t gc_horizon() const {
    return gc_horizon_.load(std::memory_order_acquire);
  }

  /// The oldest pinned snapshot epoch, or UINT64_MAX when nothing is pinned
  /// (used by truncation graveyards: a retired chain is freeable once no pin
  /// predates its retirement).
  uint64_t OldestPinOrMax() const;

  /// visible() - OldestLiveSnapshot(), i.e. how far the most lagging pinned
  /// reader trails the commit frontier (`storage.mvcc.snapshot_age`).
  int64_t SnapshotAge() const;

 private:
  friend class Snapshot;

  static constexpr size_t kPinSlots = 128;
  struct alignas(64) PinSlot {
    std::atomic<uint64_t> epoch{0};  ///< 0 = free
  };

  /// Pins the current epoch; returns the slot index or -1 (overflow list
  /// used). `out_pinned` is the provisional value written into the slot; it
  /// may trail the returned snapshot epoch — GC treats the pin as the
  /// floor, which is conservative and safe.
  int Pin(uint64_t* out_epoch, uint64_t* out_pinned);
  void Unpin(int slot, uint64_t pinned);

  std::atomic<uint64_t> visible_{1};
  std::atomic<int64_t> next_writer_{1};
  /// Held from epoch allocation through publish so commits publish in
  /// allocation order; brackets table WriterLocks, hence kTransaction (see
  /// common/lock_rank.h on storage-declared locks carrying higher ranks).
  Mutex commit_mu_{LockRank::kTransaction, "storage/mvcc.commit"};
  uint32_t commits_until_refresh_ SPHERE_GUARDED_BY(commit_mu_) = 0;
  std::atomic<uint64_t> gc_horizon_{0};  ///< stored under commit_mu_
  // analyze-exempt(guarded-by): each slot is an atomic claimed by CAS
  PinSlot pins_[kPinSlots];
  std::atomic<uint32_t> pin_cursor_{0};
  mutable Mutex overflow_mu_{LockRank::kCommon, "storage/mvcc.pin_overflow"};
  std::vector<uint64_t> overflow_pins_ SPHERE_GUARDED_BY(overflow_mu_);
};

/// RAII pinned snapshot. While alive, GC keeps every version its epoch can
/// resolve, so rows returned under this view stay readable without a latch.
class Snapshot {
 public:
  Snapshot() = default;
  explicit Snapshot(EpochManager* em) : em_(em) {
    if (em_ != nullptr) slot_ = em_->Pin(&epoch_, &pinned_value_);
  }
  ~Snapshot() { Release(); }

  Snapshot(Snapshot&& o) noexcept
      : em_(o.em_), slot_(o.slot_), epoch_(o.epoch_),
        pinned_value_(o.pinned_value_) {
    o.em_ = nullptr;
  }
  Snapshot& operator=(Snapshot&& o) noexcept {
    if (this != &o) {
      Release();
      em_ = o.em_;
      slot_ = o.slot_;
      epoch_ = o.epoch_;
      pinned_value_ = o.pinned_value_;
      o.em_ = nullptr;
    }
    return *this;
  }
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  bool pinned() const { return em_ != nullptr; }
  /// Snapshot epoch; `kEpochLatest` when unpinned (a default Snapshot reads
  /// latest committed state, matching ReadView's default).
  uint64_t epoch() const { return pinned() ? epoch_ : kEpochLatest; }

  /// The read view of this snapshot for `writer` (0 = read-only identity).
  ReadView view(int64_t writer = 0) const { return ReadView{epoch(), writer}; }

  void Release() {
    if (em_ != nullptr) {
      em_->Unpin(slot_, pinned_value_);
      em_ = nullptr;
    }
  }

 private:
  friend class EpochManager;
  EpochManager* em_ = nullptr;
  int slot_ = -1;
  uint64_t epoch_ = 0;
  uint64_t pinned_value_ = 0;  ///< provisional value stored in the slot
};

}  // namespace sphere::storage

#endif  // SPHERE_STORAGE_MVCC_H_
