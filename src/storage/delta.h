// The mutable-store delta layer: LSM-style in-memory deltas over an
// immutable (usually mmap-backed) base store, merged on read and
// compacted into the next snapshot generation in the background — the
// MonetDB/XQuery delta-table design for updatable annotation stores.
//
// Data model. Writes target one (document, standoff-config fingerprint)
// key and come in two shapes: INSERT a region {start, end, id} and
// DELETE every region of an id (a tombstone). Each applied operation is
// stamped with a store-wide monotonically increasing sequence number.
// The pending operations of a key live in a DeltaRun:
//
//   * `inserts`  — live inserted rows, sorted by (start, end, id);
//   * `tombstones` — deleted ids, sorted by id, one entry per id
//     carrying the LATEST delete's sequence number.
//
// A delete eagerly removes the id's rows from `inserts` and records the
// tombstone, so at merge time every insert row is live and tombstones
// apply to BASE rows only. That is what makes delete-then-reinsert
// work: the reinserted row rides in `inserts`, while the tombstone
// keeps the id's base rows dead.
//
// Concurrency contract (DESIGN.md §15). Writers mutate under the
// store's write lock by copy-on-write: a run is IMMUTABLE once
// published, and a write publishes a new run (and a new sequence
// number). Readers never lock per row — they pin a frozen
// DeltaStoreView (base shared_ptr + run snapshot + sequence) once at
// admission and see one consistent state for their whole query.
// RegionIndexCache::Get consults StoreView::delta_run and serves a
// merged (base ⊎ delta) region index, so the merge kernels run
// unchanged over contiguous columns.
//
// Compaction. CompactToSnapshot freezes the store at sequence S and
// rewrites (base ⊎ delta≤S) into a full snapshot file; AdoptCompacted
// then swaps the reopened snapshot in as the new base and REBASES the
// live runs, keeping exactly the operations with seq > S. The per-op
// sequence stamps are what make that filter correct under concurrent
// writes: a delete issued during compaction (seq > S) must survive to
// kill rows the compaction just folded into the base, while ops ≤ S
// are already reflected there and must drop.
#ifndef STANDOFF_STORAGE_DELTA_H_
#define STANDOFF_STORAGE_DELTA_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "storage/sharded_store.h"
#include "storage/store_view.h"
#include "storage/wal.h"

namespace standoff {
namespace storage {

/// One pending region insert. `seq` is the sequence number the insert
/// was applied at (used only by compaction rebase).
struct DeltaInsert {
  int64_t start = 0;
  int64_t end = 0;
  Pre id = 0;
  uint64_t seq = 0;
};

/// A deleted id: hides every BASE region of `id`. `seq` is the latest
/// delete's sequence number for this id.
struct DeltaTombstone {
  Pre id = 0;
  uint64_t seq = 0;
};

/// The pending operations of one (document, config fingerprint) key.
/// Immutable once published; writers replace the whole run.
struct DeltaRun {
  std::vector<DeltaInsert> inserts;        // sorted by (start, end, id)
  std::vector<DeltaTombstone> tombstones;  // sorted by id, unique per id
  /// The sequence number of the last operation folded into this run.
  uint64_t seq = 0;

  bool empty() const { return inserts.empty() && tombstones.empty(); }

  /// True when `id`'s base rows are hidden by this run.
  bool IsTombstoned(Pre id) const;
};

/// A frozen read view over (base, delta runs) at one sequence number —
/// what MutableStore::View publishes and every reader pins. Forwards
/// store geometry to the base; the delta hooks expose the run snapshot.
class DeltaStoreView : public StoreView {
 public:
  DeltaStoreView(
      std::shared_ptr<const ShardedStore> base,
      std::map<std::pair<DocId, std::string>, std::shared_ptr<const DeltaRun>>
          runs,
      uint64_t seq)
      : base_(std::move(base)), runs_(std::move(runs)), seq_(seq) {}

  const NameTable& names() const override { return base_->names(); }
  size_t document_count() const override { return base_->document_count(); }
  const Document& document(DocId doc) const override {
    return base_->document(doc);
  }
  const NodeTable& table(DocId doc) const override {
    return base_->table(doc);
  }
  uint32_t shard_count() const override { return base_->shard_count(); }
  uint32_t shard_of(DocId doc) const override { return base_->shard_of(doc); }
  const std::vector<DocId>& shard_docs(uint32_t shard) const override {
    return base_->shard_docs(shard);
  }

  std::shared_ptr<const DeltaRun> delta_run(
      DocId doc, const std::string& config_fingerprint) const override;
  uint64_t delta_sequence() const override { return seq_; }

  /// Live delta rows / tombstones summed over every run in this view.
  size_t live_insert_rows() const;
  size_t live_tombstones() const;

 private:
  std::shared_ptr<const ShardedStore> base_;
  std::map<std::pair<DocId, std::string>, std::shared_ptr<const DeltaRun>>
      runs_;
  uint64_t seq_ = 0;
};

/// Aggregate write/compaction counters, for the server's stats frame.
struct DeltaStats {
  uint64_t inserts_total = 0;      // InsertRegion calls accepted
  uint64_t deletes_total = 0;      // DeleteRegions calls accepted
  uint64_t live_insert_rows = 0;   // rows currently pending in runs
  uint64_t live_tombstones = 0;    // ids currently tombstoned in runs
  uint64_t compactions = 0;        // AdoptCompacted calls
  uint64_t auto_compact_triggers = 0;  // threshold crossings scheduled
};

/// The writer object: an immutable base plus the pending delta runs.
/// All public methods are thread-safe; see the file comment for the
/// copy-on-write publication contract.
class MutableStore {
 public:
  explicit MutableStore(std::shared_ptr<const ShardedStore> base);

  /// Attaches the durability hook (DESIGN.md §16): every accepted
  /// write is appended (and synced per the Wal's policy) BEFORE the
  /// run is published and the seq returned, so an acknowledged write
  /// is never lost to a crash. A failed append aborts the write with
  /// kUnavailable and the store stays read-only until restart (the Wal
  /// latches its failed state). Call during single-threaded setup,
  /// before any writes; the Wal must outlive the store.
  void AttachWal(Wal* wal);

  /// Replays recovered WAL operations into an empty store (setup-time,
  /// before AttachWal / any writes): each op is validated exactly like
  /// a live write and applied with its ORIGINAL sequence number, and
  /// the store's counter resumes above `recovery.max_seq`. Fails if a
  /// replayed op does not validate against the base — that means the
  /// log and the snapshot it was recovered against do not match.
  Status Restore(const WalRecoveryResult& recovery);

  /// Enables threshold-triggered auto-compaction: when the live delta
  /// footprint (pending insert rows + tombstones) crosses `threshold`
  /// at the end of a write, `schedule` is invoked once — outside the
  /// store lock — and not again until AdoptCompacted / ResetBase /
  /// AutoCompactDone clears the in-flight latch. `schedule` typically
  /// submits CompactToSnapshot + AdoptCompacted to a shared pool.
  /// Call during single-threaded setup. threshold 0 disables.
  void SetAutoCompact(uint64_t threshold, std::function<void()> schedule);

  /// Clears the auto-compaction in-flight latch after a scheduled
  /// attempt that did NOT reach AdoptCompacted (compaction failure),
  /// so a later write can trigger again.
  void AutoCompactDone();

  /// Appends a region for element `id` of `doc` under the config
  /// fingerprint. Validates that the document exists, `id` names an
  /// element node of it (regions annotate elements — that keeps
  /// name-test pushdown and the reject- axes consistent), and
  /// end >= start. Returns the operation's sequence number.
  StatusOr<uint64_t> InsertRegion(DocId doc,
                                  const std::string& config_fingerprint,
                                  int64_t start, int64_t end, Pre id);

  /// Deletes every region of `id` under the key: pending inserts are
  /// removed, base rows are tombstoned. Returns the operation's
  /// sequence number. Deleting an id with no regions is a no-op write
  /// (it still records a tombstone and advances the sequence).
  StatusOr<uint64_t> DeleteRegions(DocId doc,
                                   const std::string& config_fingerprint,
                                   Pre id);

  /// The frozen view at the current sequence number. Cached: repeated
  /// calls between writes return the SAME view object, and every
  /// insert, delete, restore, adopted compaction, or base reset makes
  /// the next call return a new one, so readers can key engine reuse
  /// on view identity and pay no rebuild on an unchanged store.
  std::shared_ptr<const DeltaStoreView> View() const;

  uint64_t sequence() const;
  DeltaStats stats() const;

  /// Freezes the store at its current sequence S and writes a snapshot
  /// of (base ⊎ delta≤S) to `path`: every (doc, config) with pending
  /// operations gets its MERGED region index embedded, configs without
  /// deltas re-embed the base's indexes, and node tables / blobs /
  /// element indexes are carried over from the base. Writes issued
  /// while this runs are untouched (they land at seq > S). `pool`
  /// fans the per-(doc, config) merges and the snapshot's index builds
  /// out; null runs serially. On success *compacted_seq is S — pass it
  /// to AdoptCompacted after reopening the file.
  Status CompactToSnapshot(const std::string& path, ThreadPool* pool,
                           uint64_t* compacted_seq);

  /// Publishes the reopened compacted snapshot as the new base and
  /// rebases every run: operations with seq <= compacted_seq are
  /// already reflected in the new base and drop; later ones are kept.
  /// Runs left empty disappear. When a Wal is attached and
  /// `snapshot_path` is non-empty (the just-renamed snapshot file —
  /// the atomic rename MUST have landed), the log rotates to a fresh
  /// segment recording that base and retires segments whose records
  /// are all <= compacted_seq. An empty path skips rotation, which is
  /// always safe: replaying the full log over the boot snapshot
  /// reproduces the same state, compaction being transparent. Returns
  /// the rotation's status: the new base is adopted either way, but a
  /// failed rotation latches the Wal (read-only) and leaves its newest
  /// segment naming the PREVIOUS base file, which must then stay.
  Status AdoptCompacted(uint64_t compacted_seq,
                        std::shared_ptr<const ShardedStore> base,
                        const std::string& snapshot_path = "");

  /// Replaces the base with an unrelated snapshot (the server's manual
  /// hot-swap) and DROPS every pending delta — delta ids reference the
  /// old base's documents and would be meaningless over the new one.
  /// With a Wal attached and a non-empty `snapshot_path`, rotates to a
  /// segment based on the new snapshot at the current seq, retiring
  /// the now-obsolete history.
  void ResetBase(std::shared_ptr<const ShardedStore> base,
                 const std::string& snapshot_path = "");

 private:
  using Key = std::pair<DocId, std::string>;

  /// Rebuilds the cached view. Caller holds mu_.
  void InvalidateViewLocked() { view_.reset(); }

  /// Validation shared by the live write path and WAL replay.
  Status CheckInsertLocked(DocId doc, int64_t start, int64_t end,
                           Pre id) const;
  Status CheckDocLocked(DocId doc) const;
  /// Mutates the run + live counters (no validation, no WAL, no seq
  /// bump). Caller holds mu_.
  void ApplyInsertLocked(DocId doc, const std::string& config_fingerprint,
                         int64_t start, int64_t end, Pre id, uint64_t seq);
  void ApplyDeleteLocked(DocId doc, const std::string& config_fingerprint,
                         Pre id, uint64_t seq);
  /// Recomputes live_rows_/live_tombstones_ from runs_. Caller holds mu_.
  void RecountLiveLocked();
  /// Arms the schedule callback when the threshold is crossed and the
  /// latch is clear. Caller holds mu_; the returned callback (if any)
  /// must be invoked AFTER releasing it.
  std::function<void()> MaybeTriggerAutoCompactLocked();

  mutable std::mutex mu_;
  std::shared_ptr<const ShardedStore> base_;
  std::map<Key, std::shared_ptr<const DeltaRun>> runs_;
  uint64_t seq_ = 0;
  mutable std::shared_ptr<const DeltaStoreView> view_;  // lazy, seq-consistent
  uint64_t inserts_total_ = 0;
  uint64_t deletes_total_ = 0;
  uint64_t compactions_ = 0;
  uint64_t live_rows_ = 0;        // == sum of runs_ insert rows
  uint64_t live_tombstones_ = 0;  // == sum of runs_ tombstones
  Wal* wal_ = nullptr;
  uint64_t auto_compact_threshold_ = 0;
  std::function<void()> auto_compact_schedule_;
  bool auto_compact_inflight_ = false;
  uint64_t auto_compact_triggers_ = 0;
};

}  // namespace storage
}  // namespace standoff

#endif  // STANDOFF_STORAGE_DELTA_H_
