#include "storage/delta.h"

#include <algorithm>

#include "standoff/region_index.h"
#include "storage/snapshot.h"

namespace standoff {
namespace storage {

namespace {

bool InsertLess(const DeltaInsert& a, const DeltaInsert& b) {
  if (a.start != b.start) return a.start < b.start;
  if (a.end != b.end) return a.end < b.end;
  return a.id < b.id;
}

}  // namespace

bool DeltaRun::IsTombstoned(Pre id) const {
  auto it = std::lower_bound(
      tombstones.begin(), tombstones.end(), id,
      [](const DeltaTombstone& t, Pre value) { return t.id < value; });
  return it != tombstones.end() && it->id == id;
}

std::shared_ptr<const DeltaRun> DeltaStoreView::delta_run(
    DocId doc, const std::string& config_fingerprint) const {
  auto it = runs_.find(std::make_pair(doc, config_fingerprint));
  return it == runs_.end() ? nullptr : it->second;
}

size_t DeltaStoreView::live_insert_rows() const {
  size_t total = 0;
  for (const auto& [key, run] : runs_) total += run->inserts.size();
  return total;
}

size_t DeltaStoreView::live_tombstones() const {
  size_t total = 0;
  for (const auto& [key, run] : runs_) total += run->tombstones.size();
  return total;
}

MutableStore::MutableStore(std::shared_ptr<const ShardedStore> base)
    : base_(std::move(base)) {}

void MutableStore::AttachWal(Wal* wal) {
  std::lock_guard<std::mutex> lock(mu_);
  wal_ = wal;
}

Status MutableStore::CheckInsertLocked(DocId doc, int64_t start, int64_t end,
                                       Pre id) const {
  STANDOFF_RETURN_IF_ERROR(CheckDocLocked(doc));
  const NodeTable& table = base_->table(doc);
  if (id >= table.size() || !table.IsElement(id)) {
    return Status::Invalid("insert id " + std::to_string(id) +
                           " does not name an element node of document " +
                           std::to_string(doc));
  }
  if (end < start) {
    return Status::Invalid("region ends before it starts");
  }
  return Status::OK();
}

Status MutableStore::CheckDocLocked(DocId doc) const {
  if (doc >= base_->document_count()) {
    return Status::NotFound("no document " + std::to_string(doc));
  }
  return Status::OK();
}

void MutableStore::ApplyInsertLocked(DocId doc,
                                     const std::string& config_fingerprint,
                                     int64_t start, int64_t end, Pre id,
                                     uint64_t seq) {
  std::shared_ptr<const DeltaRun>& slot =
      runs_[Key(doc, config_fingerprint)];
  auto fresh = std::make_shared<DeltaRun>(slot ? *slot : DeltaRun{});
  const DeltaInsert insert{start, end, id, seq};
  fresh->inserts.insert(std::upper_bound(fresh->inserts.begin(),
                                         fresh->inserts.end(), insert,
                                         InsertLess),
                        insert);
  fresh->seq = seq;
  slot = std::move(fresh);
  ++inserts_total_;
  ++live_rows_;
  InvalidateViewLocked();
}

void MutableStore::ApplyDeleteLocked(DocId doc,
                                     const std::string& config_fingerprint,
                                     Pre id, uint64_t seq) {
  std::shared_ptr<const DeltaRun>& slot =
      runs_[Key(doc, config_fingerprint)];
  auto fresh = std::make_shared<DeltaRun>(slot ? *slot : DeltaRun{});
  // Pending inserts of the id die here — at merge time every insert row
  // is live and tombstones judge base rows only (see delta.h).
  const size_t before = fresh->inserts.size();
  fresh->inserts.erase(
      std::remove_if(fresh->inserts.begin(), fresh->inserts.end(),
                     [id](const DeltaInsert& i) { return i.id == id; }),
      fresh->inserts.end());
  live_rows_ -= before - fresh->inserts.size();
  auto it = std::lower_bound(
      fresh->tombstones.begin(), fresh->tombstones.end(), id,
      [](const DeltaTombstone& t, Pre value) { return t.id < value; });
  if (it != fresh->tombstones.end() && it->id == id) {
    it->seq = seq;  // the latest delete wins the rebase filter
  } else {
    fresh->tombstones.insert(it, DeltaTombstone{id, seq});
    ++live_tombstones_;
  }
  fresh->seq = seq;
  slot = std::move(fresh);
  ++deletes_total_;
  InvalidateViewLocked();
}

void MutableStore::RecountLiveLocked() {
  live_rows_ = 0;
  live_tombstones_ = 0;
  for (const auto& [key, run] : runs_) {
    if (!run) continue;
    live_rows_ += run->inserts.size();
    live_tombstones_ += run->tombstones.size();
  }
}

std::function<void()> MutableStore::MaybeTriggerAutoCompactLocked() {
  if (auto_compact_threshold_ == 0 || auto_compact_inflight_ ||
      live_rows_ + live_tombstones_ < auto_compact_threshold_) {
    return nullptr;
  }
  auto_compact_inflight_ = true;
  ++auto_compact_triggers_;
  return auto_compact_schedule_;
}

StatusOr<uint64_t> MutableStore::InsertRegion(
    DocId doc, const std::string& config_fingerprint, int64_t start,
    int64_t end, Pre id) {
  std::function<void()> schedule;
  uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    STANDOFF_RETURN_IF_ERROR(CheckInsertLocked(doc, start, end, id));
    if (wal_ != nullptr) {
      // Durability before publication: if the log can't hold the op,
      // the op does not happen and the caller sees the failure.
      WalRecord record;
      record.op = WalRecord::Op::kInsert;
      record.seq = seq_ + 1;
      record.doc = doc;
      record.id = id;
      record.start = start;
      record.end = end;
      record.fingerprint = config_fingerprint;
      STANDOFF_RETURN_IF_ERROR(wal_->Append(record));
    }
    seq = ++seq_;
    ApplyInsertLocked(doc, config_fingerprint, start, end, id, seq);
    schedule = MaybeTriggerAutoCompactLocked();
  }
  if (schedule) schedule();
  return seq;
}

StatusOr<uint64_t> MutableStore::DeleteRegions(
    DocId doc, const std::string& config_fingerprint, Pre id) {
  std::function<void()> schedule;
  uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    STANDOFF_RETURN_IF_ERROR(CheckDocLocked(doc));
    if (wal_ != nullptr) {
      WalRecord record;
      record.op = WalRecord::Op::kDelete;
      record.seq = seq_ + 1;
      record.doc = doc;
      record.id = id;
      record.fingerprint = config_fingerprint;
      STANDOFF_RETURN_IF_ERROR(wal_->Append(record));
    }
    seq = ++seq_;
    ApplyDeleteLocked(doc, config_fingerprint, id, seq);
    schedule = MaybeTriggerAutoCompactLocked();
  }
  if (schedule) schedule();
  return seq;
}

Status MutableStore::Restore(const WalRecoveryResult& recovery) {
  std::lock_guard<std::mutex> lock(mu_);
  if (seq_ != 0 || !runs_.empty()) {
    return Status::FailedPrecondition("Restore requires a pristine store");
  }
  for (const WalRecord& op : recovery.ops) {
    if (op.seq <= seq_) {
      return Status::Internal("wal replay: non-monotone sequence " +
                              std::to_string(op.seq));
    }
    if (op.op == WalRecord::Op::kInsert) {
      STANDOFF_RETURN_IF_ERROR(
          CheckInsertLocked(op.doc, op.start, op.end, op.id));
      ApplyInsertLocked(op.doc, op.fingerprint, op.start, op.end, op.id,
                        op.seq);
    } else {
      STANDOFF_RETURN_IF_ERROR(CheckDocLocked(op.doc));
      ApplyDeleteLocked(op.doc, op.fingerprint, op.id, op.seq);
    }
    seq_ = op.seq;
  }
  if (recovery.max_seq > seq_) seq_ = recovery.max_seq;
  InvalidateViewLocked();
  return Status::OK();
}

void MutableStore::SetAutoCompact(uint64_t threshold,
                                  std::function<void()> schedule) {
  std::lock_guard<std::mutex> lock(mu_);
  auto_compact_threshold_ = threshold;
  auto_compact_schedule_ = std::move(schedule);
  auto_compact_inflight_ = false;
}

void MutableStore::AutoCompactDone() {
  std::lock_guard<std::mutex> lock(mu_);
  auto_compact_inflight_ = false;
}

std::shared_ptr<const DeltaStoreView> MutableStore::View() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!view_) {
    std::map<Key, std::shared_ptr<const DeltaRun>> runs;
    for (const auto& [key, run] : runs_) {
      if (run && !run->empty()) runs.emplace(key, run);
    }
    view_ = std::make_shared<DeltaStoreView>(base_, std::move(runs), seq_);
  }
  return view_;
}

uint64_t MutableStore::sequence() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

DeltaStats MutableStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DeltaStats out;
  out.inserts_total = inserts_total_;
  out.deletes_total = deletes_total_;
  out.compactions = compactions_;
  out.auto_compact_triggers = auto_compact_triggers_;
  out.live_insert_rows = live_rows_;
  out.live_tombstones = live_tombstones_;
  return out;
}

Status MutableStore::CompactToSnapshot(const std::string& path,
                                       ThreadPool* pool,
                                       uint64_t* compacted_seq) {
  // Freeze: everything at seq <= S goes into the file; concurrent
  // writes land at seq > S and survive the AdoptCompacted rebase.
  std::shared_ptr<const ShardedStore> base;
  std::map<Key, std::shared_ptr<const DeltaRun>> runs;
  uint64_t frozen_seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    base = base_;
    runs = runs_;
    frozen_seq = seq_;
  }

  // Configs to embed: the default config, every config the base
  // already carries a preloaded index for, and every config with
  // pending deltas — so a compacted generation never serves fewer
  // warm indexes than its predecessor.
  std::map<std::string, so::StandoffConfig> configs;
  const so::StandoffConfig default_config{};
  configs.emplace(so::ConfigFingerprint(default_config), default_config);
  for (DocId doc = 0; doc < base->document_count(); ++doc) {
    for (const auto& [fingerprint, index] :
         base->document(doc).preloaded_indexes) {
      if (configs.count(fingerprint)) continue;
      StatusOr<so::StandoffConfig> parsed =
          so::ParseConfigFingerprint(fingerprint);
      if (parsed.ok()) configs.emplace(fingerprint, *parsed);
    }
  }
  std::vector<const Key*> keys;
  for (const auto& [key, run] : runs) {
    if (!run || run->empty()) continue;
    keys.push_back(&key);
    if (configs.count(key.second)) continue;
    StatusOr<so::StandoffConfig> parsed =
        so::ParseConfigFingerprint(key.second);
    if (!parsed.ok()) return parsed.status();
    configs.emplace(key.second, *parsed);
  }

  SnapshotWriteOptions options;
  options.pool = pool;
  options.configs.clear();
  for (const auto& [fingerprint, config] : configs) {
    options.configs.push_back(config);
  }

  // Base indexes resolve serially (the cache is not thread-safe); the
  // O(base + delta) union merges fan out across the pool.
  so::RegionIndexCache base_cache;
  std::vector<const so::RegionIndex*> base_indexes(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    StatusOr<const so::RegionIndex*> index =
        base_cache.Get(*base, keys[i]->first, configs.at(keys[i]->second));
    if (!index.ok()) return index.status();
    base_indexes[i] = *index;
  }
  std::vector<SnapshotWriteOptions::IndexOverride> overrides(keys.size());
  STANDOFF_RETURN_IF_ERROR(
      ParallelFor(pool, 0, keys.size(), [&](size_t i) -> Status {
        const std::shared_ptr<const DeltaRun>& run = runs.at(*keys[i]);
        overrides[i].doc = keys[i]->first;
        overrides[i].fingerprint = keys[i]->second;
        overrides[i].index = std::make_shared<so::RegionIndex>(
            so::MergeBaseDelta(*base_indexes[i], *run));
        return Status::OK();
      }));
  options.index_overrides = std::move(overrides);

  STANDOFF_RETURN_IF_ERROR(SaveSnapshot(*base, path, options));
  *compacted_seq = frozen_seq;
  return Status::OK();
}

Status MutableStore::AdoptCompacted(uint64_t compacted_seq,
                                    std::shared_ptr<const ShardedStore> base,
                                    const std::string& snapshot_path) {
  std::lock_guard<std::mutex> lock(mu_);
  base_ = std::move(base);
  auto it = runs_.begin();
  while (it != runs_.end()) {
    const DeltaRun& old = *it->second;
    auto fresh = std::make_shared<DeltaRun>();
    for (const DeltaInsert& insert : old.inserts) {
      if (insert.seq > compacted_seq) fresh->inserts.push_back(insert);
    }
    for (const DeltaTombstone& tombstone : old.tombstones) {
      if (tombstone.seq > compacted_seq) {
        fresh->tombstones.push_back(tombstone);
      }
    }
    fresh->seq = old.seq;
    if (fresh->empty()) {
      it = runs_.erase(it);
    } else {
      it->second = std::move(fresh);
      ++it;
    }
  }
  ++compactions_;
  RecountLiveLocked();
  auto_compact_inflight_ = false;
  InvalidateViewLocked();
  if (wal_ == nullptr || snapshot_path.empty()) return Status::OK();
  // The caller vouches the snapshot's atomic rename landed; rotation
  // failure just latches the Wal (read-only), never loses state.
  return wal_->Rotate(compacted_seq, snapshot_path);
}

void MutableStore::ResetBase(std::shared_ptr<const ShardedStore> base,
                             const std::string& snapshot_path) {
  std::lock_guard<std::mutex> lock(mu_);
  base_ = std::move(base);
  runs_.clear();
  RecountLiveLocked();
  auto_compact_inflight_ = false;
  if (wal_ != nullptr && !snapshot_path.empty()) {
    // Every prior record targets the abandoned base: rotate to a
    // segment pinned to the new snapshot at the current seq so replay
    // drops all of them, and retire the obsolete history.
    (void)wal_->Rotate(seq_, snapshot_path);
  }
  InvalidateViewLocked();
}

}  // namespace storage
}  // namespace standoff
