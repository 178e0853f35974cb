#include "storage/table.h"

#include <algorithm>
#include <limits>

#include "common/metrics.h"
#include "common/strings.h"

namespace sphere::storage {

namespace {

/// Versions freed by chain pruning across the process (commit + GcVersions).
metrics::Counter& GcPrunedCounter() {
  static metrics::Counter* c =
      metrics::Registry::Instance().GetCounter("storage.mvcc.gc_pruned");
  return *c;
}

}  // namespace

void SecondaryIndex::Add(const Value& key, const Value& pk) {
  std::vector<Value>* pks = tree_.Find(key);
  if (pks == nullptr) {
    tree_.Insert(key, {pk});
  } else {
    pks->push_back(pk);
  }
}

void SecondaryIndex::Remove(const Value& key, const Value& pk) {
  std::vector<Value>* pks = tree_.Find(key);
  if (pks == nullptr) return;
  pks->erase(std::remove(pks->begin(), pks->end(), pk), pks->end());
  if (pks->empty()) tree_.Erase(key);
}

const std::vector<Value>* SecondaryIndex::Lookup(const Value& key) const {
  return tree_.Find(key);
}

Table::Table(std::string name, Schema schema, EpochManager* epochs)
    : name_(std::move(name)), schema_(std::move(schema)),
      pk_index_(schema_.PrimaryKeyIndex()), epochs_(epochs) {}

Status Table::ValidateAndCast(const Row& row, Row* out) const {
  if (row.size() != schema_.size()) {
    return Status::InvalidArgument(
        StrFormat("table %s expects %zu columns, got %zu", name_.c_str(),
                  schema_.size(), row.size()));
  }
  out->clear();
  out->reserve(row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null() && schema_.column(i).not_null) {
      return Status::InvalidArgument("NULL in NOT NULL column " +
                                     schema_.column(i).name);
    }
    out->push_back(row[i].CastTo(schema_.column(i).type));
  }
  return Status::OK();
}

void Table::InstallVersion(const Value& pk, Row data, bool deleted,
                           int64_t writer) {
  RowVersion* v = VersionPool::Instance().Acquire();
  v->deleted = deleted;
  v->data = std::move(data);
  uint64_t stamp = writer > 0 ? kPendingBase + static_cast<uint64_t>(writer)
                              : SelfCommitStamp();
  v->stamp.store(stamp, std::memory_order_release);
  VersionedRow* vr = rows_.Find(pk);
  if (vr == nullptr) {
    VersionedRow fresh;
    fresh.head = v;
    rows_.Insert(pk, std::move(fresh));
    return;
  }
  v->older = vr->head;
  vr->head = v;
}

size_t Table::PruneChain(VersionedRow* vr, uint64_t oldest) {
  // Keeper: the newest committed version at or below `oldest` — the version
  // the most lagging pinned snapshot resolves to. Everything older than it
  // is unreachable by any live or future snapshot.
  RowVersion* keeper = nullptr;
  for (RowVersion* v = vr->head; v != nullptr; v = v->older) {
    uint64_t s = v->stamp.load(std::memory_order_relaxed);
    if (s < kPendingBase && s <= oldest) {
      keeper = v;
      break;
    }
  }
  if (keeper == nullptr) return 0;
  size_t freed = 0;
  // A pending version below the keeper was buried by a later writer that
  // committed over the row; it stays linked because its owner will still
  // commit or abort it.
  RowVersion** link = &keeper->older;
  while (*link != nullptr) {
    RowVersion* v = *link;
    if (v->pending()) {
      link = &v->older;
      continue;
    }
    *link = v->older;
    VersionPool::Instance().Release(v);
    ++freed;
  }
  // A chain that reduced to a single dead committed tombstone is fully
  // garbage: no snapshot can resolve a row from it anymore.
  if (keeper == vr->head && keeper->deleted && keeper->older == nullptr) {
    VersionPool::Instance().Release(keeper);
    vr->head = nullptr;
    ++freed;
  }
  return freed;
}

Status Table::Insert(const Row& row, Value* out_pk, int64_t writer) {
  Row casted;
  SPHERE_RETURN_NOT_OK(ValidateAndCast(row, &casted));
  Value pk;
  if (pk_index_ >= 0) {
    pk = casted[static_cast<size_t>(pk_index_)];
    if (pk.is_null()) {
      return Status::InvalidArgument("NULL primary key in table " + name_);
    }
    const VersionedRow* vr = rows_.Find(pk);
    if (vr != nullptr && vr->head != nullptr) {
      // Conflict when the row is live in this writer's view, or another
      // writer has a pending (not yet visible) insert at the head — the
      // pre-MVCC behaviour for concurrent duplicate keys.
      const RowVersion* mine = ResolveVersion(*vr, ReadView::Latest(writer));
      bool head_pending_live = vr->head->pending() && !vr->head->deleted;
      if (mine != nullptr || head_pending_live) {
        return Status::Conflict(
            StrFormat("duplicate primary key %s in table %s",
                      pk.ToString().c_str(), name_.c_str()));
      }
    }
  } else {
    pk = Value(next_rowid_++);
  }
  for (auto& idx : indexes_) {
    idx->Add(casted[static_cast<size_t>(idx->column_index())], pk);
  }
  InstallVersion(pk, std::move(casted), /*deleted=*/false, writer);
  live_rows_.fetch_add(1, std::memory_order_relaxed);
  if (out_pk != nullptr) *out_pk = pk;
  return Status::OK();
}

Status Table::Update(const Value& pk, const Row& new_row, int64_t writer) {
  VersionedRow* vr = rows_.Find(pk);
  const RowVersion* old_v =
      vr == nullptr ? nullptr : ResolveVersion(*vr, ReadView::Latest(writer));
  if (old_v == nullptr) {
    return Status::NotFound("no row with key " + pk.ToString());
  }
  Row casted;
  SPHERE_RETURN_NOT_OK(ValidateAndCast(new_row, &casted));
  if (pk_index_ >= 0 && casted[static_cast<size_t>(pk_index_)] != pk) {
    return Status::InvalidArgument("primary key update is not supported");
  }
  for (auto& idx : indexes_) {
    size_t ci = static_cast<size_t>(idx->column_index());
    if (old_v->data[ci] != casted[ci]) {
      idx->Remove(old_v->data[ci], pk);
      idx->Add(casted[ci], pk);
    }
  }
  InstallVersion(pk, std::move(casted), /*deleted=*/false, writer);
  return Status::OK();
}

Status Table::Delete(const Value& pk, Row* old_row, int64_t writer) {
  VersionedRow* vr = rows_.Find(pk);
  const RowVersion* old_v =
      vr == nullptr ? nullptr : ResolveVersion(*vr, ReadView::Latest(writer));
  if (old_v == nullptr) {
    return Status::NotFound("no row with key " + pk.ToString());
  }
  if (old_row != nullptr) *old_row = old_v->data;
  for (auto& idx : indexes_) {
    idx->Remove(old_v->data[static_cast<size_t>(idx->column_index())], pk);
  }
  InstallVersion(pk, Row{}, /*deleted=*/true, writer);
  live_rows_.fetch_sub(1, std::memory_order_relaxed);
  return Status::OK();
}

void Table::CommitWrite(const Value& pk, int64_t writer, uint64_t epoch) {
  VersionedRow* vr = rows_.Find(pk);
  if (vr == nullptr || writer <= 0) return;
  const uint64_t pend = kPendingBase + static_cast<uint64_t>(writer);
  // Unlink the writer's pending versions, preserving their newest-first
  // relative order.
  RowVersion* owned_head = nullptr;
  RowVersion* owned_tail = nullptr;
  RowVersion** link = &vr->head;
  while (*link != nullptr) {
    RowVersion* v = *link;
    if (v->stamp.load(std::memory_order_relaxed) == pend) {
      *link = v->older;
      v->older = nullptr;
      if (owned_head == nullptr) {
        owned_head = owned_tail = v;
      } else {
        owned_tail->older = v;
        owned_tail = v;
      }
    } else {
      link = &v->older;
    }
  }
  if (owned_head == nullptr) return;
  // Stamp with the commit epoch and splice back at the head: visibility
  // order must follow commit order, not install order, when writers
  // interleaved on the same row.
  for (RowVersion* v = owned_head; v != nullptr; v = v->older) {
    v->stamp.store(epoch, std::memory_order_release);
  }
  owned_tail->older = vr->head;
  vr->head = owned_head;

  // Commit-time GC (DESIGN.md §15). The horizon trails `epoch`, so this
  // prune keeps the version just superseded for snapshots up to epoch - 1;
  // the queue entry frees it once the horizon passes the commit. A fresh
  // insert superseded nothing and skips both.
  const uint64_t horizon =
      epochs_ != nullptr ? epochs_->gc_horizon() : kEpochLatest;
  size_t freed = 0;
  if (owned_tail->older != nullptr) {
    freed += PruneChain(vr, horizon);
    superseded_.push_back(Superseded{pk, epoch});
  }
  freed += ReclaimPassed(horizon);
  if (freed > 0) GcPrunedCounter().Add(static_cast<int64_t>(freed));
}

size_t Table::ReclaimPassed(uint64_t horizon) {
  size_t freed = 0;
  while (!superseded_.empty() && superseded_.front().epoch <= horizon) {
    const Value& pk = superseded_.front().pk;
    VersionedRow* vr = rows_.Find(pk);
    if (vr != nullptr) {
      freed += PruneChain(vr, horizon);
      if (vr->head == nullptr) rows_.Erase(pk);
    }
    superseded_.pop_front();
  }
  // Retired chains are readable only by snapshots pinned at or before
  // their retirement; the horizon is at or below every live pin.
  return freed + DrainGraveyard(horizon);
}

size_t Table::DrainGraveyard(uint64_t floor) {
  // Retirements append in epoch order, so the freeable chains are a prefix.
  size_t n = 0;
  size_t freed = 0;
  for (; n < graveyard_.size() && graveyard_[n].epoch < floor; ++n) {
    for (const RowVersion* v = graveyard_[n].row.head; v != nullptr;
         v = v->older) {
      ++freed;
    }
  }
  // Each erased RetiredChain releases its chain.
  graveyard_.erase(graveyard_.begin(),
                   graveyard_.begin() + static_cast<std::ptrdiff_t>(n));
  return freed;
}

void Table::AbortWrite(const Value& pk, int64_t writer, bool newest_only) {
  VersionedRow* vr = rows_.Find(pk);
  if (vr == nullptr || writer <= 0) return;
  const uint64_t pend = kPendingBase + static_cast<uint64_t>(writer);
  RowVersion** link = &vr->head;
  while (*link != nullptr) {
    RowVersion* v = *link;
    if (v->stamp.load(std::memory_order_relaxed) != pend) {
      link = &v->older;
      continue;
    }
    // The image this version superseded when it was installed: the first
    // version below it that is not another writer's pending (matching the
    // write-time resolve view). Used to restore index postings and the
    // live-row count.
    const RowVersion* below = nullptr;
    for (const RowVersion* b = v->older; b != nullptr; b = b->older) {
      uint64_t s = b->stamp.load(std::memory_order_relaxed);
      if (s >= kPendingBase && s != pend) continue;
      below = b;
      break;
    }
    bool below_live = below != nullptr && !below->deleted;
    if (!v->deleted) {
      for (auto& idx : indexes_) {
        size_t ci = static_cast<size_t>(idx->column_index());
        if (below_live) {
          if (v->data[ci] != below->data[ci]) {
            idx->Remove(v->data[ci], pk);
            idx->Add(below->data[ci], pk);
          }
        } else {
          idx->Remove(v->data[ci], pk);
        }
      }
      if (!below_live) live_rows_.fetch_sub(1, std::memory_order_relaxed);
    } else if (below_live) {
      for (auto& idx : indexes_) {
        size_t ci = static_cast<size_t>(idx->column_index());
        idx->Add(below->data[ci], pk);
      }
      live_rows_.fetch_add(1, std::memory_order_relaxed);
    }
    *link = v->older;
    VersionPool::Instance().Release(v);
    if (newest_only) break;
  }
  if (vr->head == nullptr) rows_.Erase(pk);
}

int Table::IndexHeight() const {
  ReaderLock lk(latch_);
  return rows_.Height();
}

void Table::Truncate() {
  // Retired chains may still be resolvable by pinned snapshot readers whose
  // cursors hold borrowed row pointers; park them in the graveyard until GC
  // proves no pin predates the truncation. With no pins at all, free now.
  uint64_t pin_floor = epochs_ != nullptr
                           ? epochs_->OldestPinOrMax()
                           : std::numeric_limits<uint64_t>::max();
  uint64_t retire_epoch = epochs_ != nullptr ? epochs_->visible() : 0;
  if (retire_epoch >= pin_floor) {
    for (auto it = rows_.Begin(); it.Valid(); it.Next()) {
      RetiredChain rc;
      rc.row = std::move(it.payload());
      rc.epoch = retire_epoch;
      graveyard_.push_back(std::move(rc));
    }
  }
  rows_.Clear();
  superseded_.clear();
  std::vector<std::unique_ptr<SecondaryIndex>> rebuilt;
  rebuilt.reserve(indexes_.size());
  for (auto& idx : indexes_) {
    rebuilt.push_back(
        std::make_unique<SecondaryIndex>(idx->name(), idx->column_index()));
  }
  indexes_ = std::move(rebuilt);
  next_rowid_ = 1;
  live_rows_.store(0, std::memory_order_relaxed);
}

size_t Table::GcVersions() {
  WriterLock lk(latch_);
  uint64_t oldest =
      epochs_ != nullptr ? epochs_->OldestLiveSnapshot() : kEpochLatest;
  size_t pruned = 0;
  std::vector<Value> dead_keys;
  for (auto it = rows_.Begin(); it.Valid(); it.Next()) {
    VersionedRow& vr = it.payload();
    pruned += PruneChain(&vr, oldest);
    if (vr.head == nullptr) dead_keys.push_back(it.key());
  }
  for (const Value& k : dead_keys) rows_.Erase(k);
  pruned += DrainGraveyard(epochs_ != nullptr
                               ? epochs_->OldestPinOrMax()
                               : std::numeric_limits<uint64_t>::max());
  if (pruned > 0) GcPrunedCounter().Add(static_cast<int64_t>(pruned));
  return pruned;
}

size_t Table::version_count() const {
  ReaderLock lk(latch_);
  size_t n = 0;
  for (auto it = rows_.Begin(); it.Valid(); it.Next()) {
    for (const RowVersion* v = it.payload().head; v != nullptr; v = v->older) {
      ++n;
    }
  }
  for (const RetiredChain& rc : graveyard_) {
    for (const RowVersion* v = rc.row.head; v != nullptr; v = v->older) ++n;
  }
  return n;
}

Status Table::CreateIndex(const std::string& index_name,
                          const std::string& column) {
  for (const auto& idx : indexes_) {
    if (EqualsIgnoreCase(idx->name(), index_name)) {
      return Status::AlreadyExists("index " + index_name);
    }
  }
  int ci = schema_.IndexOf(column);
  if (ci < 0) {
    return Status::NotFound("column " + column + " in table " + name_);
  }
  auto idx = std::make_unique<SecondaryIndex>(index_name, ci);
  // Backfill from the latest state (chain heads), matching the eager
  // maintenance the write path performs: pending rows get postings at
  // install time and lose them on abort.
  for (auto it = rows_.Begin(); it.Valid(); it.Next()) {
    const RowVersion* head = it.payload().head;
    if (head != nullptr && !head->deleted) {
      idx->Add(head->data[static_cast<size_t>(ci)], it.key());
    }
  }
  indexes_.push_back(std::move(idx));
  return Status::OK();
}

const SecondaryIndex* Table::FindIndexOn(int column_index) const {
  for (const auto& idx : indexes_) {
    if (idx->column_index() == column_index) return idx.get();
  }
  return nullptr;
}

}  // namespace sphere::storage
