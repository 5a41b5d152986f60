#ifndef PRORP_STORAGE_DURABLE_TREE_H_
#define PRORP_STORAGE_DURABLE_TREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "faults/fault_plan.h"
#include "storage/bplus_tree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/scrubber.h"
#include "storage/wal.h"

namespace prorp::storage {

/// Counters for the detect → repair → quarantine pipeline.
struct IntegrityStats {
  /// Corrupt pages detected (fetch verification or scrub).
  uint64_t corruption_detected = 0;
  /// Successful rebuilds from snapshot + WAL after a detection.
  uint64_t corruption_repaired = 0;
  /// Stores quarantined because repair was impossible or did not stick.
  uint64_t corruption_quarantined = 0;
  uint64_t scrub_passes = 0;
  uint64_t scrub_pages = 0;
  uint64_t scrub_errors = 0;
};

/// A durable clustered B+tree: an in-memory BPlusTree made crash-safe by a
/// logical write-ahead log plus periodic full snapshots.
///
/// This is the storage unit behind one database's sys.pause_resume_history
/// table.  Per the paper (Section 3.3), the history must be durable and
/// must travel with the database when it moves between nodes; `Backup` +
/// `Open` on the destination directory model exactly that (and the Azure
/// backup/restore mechanisms the paper reuses).
///
/// Opening a directory that already contains a snapshot and/or WAL recovers
/// the tree: snapshot first, then WAL tail replay.  A torn trailing WAL
/// record (crash mid-append) is discarded, matching write-ahead semantics.
///
/// Self-healing: every page fetch is checksum-verified by the buffer pool.
/// When an operation trips over a corrupt page, a durable tree rebuilds
/// its page store from the latest snapshot + WAL (the same machinery crash
/// recovery uses — corrupt in-memory state is discarded wholesale, and
/// apply-then-log guarantees no acknowledged record is lost) and retries.
/// If repair is impossible (ephemeral store) or does not stick, the store
/// is quarantined: durable files are renamed aside with a `.quarantined`
/// suffix and every subsequent operation returns the original typed
/// Corruption status.
class DurableTree {
 public:
  struct Options {
    /// Durability directory.  Empty => ephemeral (no WAL, no snapshot);
    /// the fleet simulator uses ephemeral stores for speed.
    std::string dir;

    /// Fixed value width in bytes (the non-key columns).
    uint32_t value_width = 8;

    /// Buffer pool frames for the in-memory page store.
    size_t buffer_pool_pages = 64;

    /// Auto-checkpoint once the WAL exceeds this many bytes (0 = never;
    /// call Checkpoint() manually).
    uint64_t checkpoint_wal_bytes = 1 << 20;

    /// fsync the WAL after every append.  Off by default: the OS page
    /// cache is durable enough for simulation and unit-test use; the
    /// crash-torture harness turns it on to reach wal_pre_sync.
    bool fsync_each_append = false;

    /// Optional fault schedule.  When set, the page store is wrapped in a
    /// FaultInjectingDiskManager and the WAL consults the plan on every
    /// append/sync.  Must outlive the tree.  Testing only.
    faults::FaultPlan* fault_plan = nullptr;
  };

  /// Opens (and recovers, if durable state exists) a tree.
  static Result<std::unique_ptr<DurableTree>> Open(const Options& options);

  DurableTree(const DurableTree&) = delete;
  DurableTree& operator=(const DurableTree&) = delete;

  Status Insert(int64_t key, const uint8_t* value);
  Status Update(int64_t key, const uint8_t* value);
  Status Delete(int64_t key);
  Result<uint64_t> DeleteRange(int64_t lo, int64_t hi);

  Status ScanRange(int64_t lo, int64_t hi,
                   const BPlusTree::ScanCallback& cb) const;

  uint64_t size() const { return tree_->size(); }
  bool empty() const { return tree_->empty(); }
  uint32_t value_width() const { return tree_->value_width(); }

  /// Logical on-disk footprint in bytes: entries x (8 + value_width).
  /// This is the "size of database history" metric of Figure 10(b).
  uint64_t LogicalSizeBytes() const {
    return size() * (8 + value_width());
  }

  /// Writes a full snapshot and truncates the WAL.
  Status Checkpoint();

  /// Checkpoints, then copies the snapshot into `dest_dir` (which must
  /// exist).  `Open` on dest_dir restores the tree there: this models both
  /// scheduled backups and a database move across nodes.
  Status Backup(const std::string& dest_dir);

  /// On-demand integrity pass: flushes the pool, verifies every page's
  /// checksum and id self-reference straight off the disk manager, then
  /// walks the tree checking structural invariants.  A dirty report on a
  /// durable tree triggers repair (and a verifying re-scrub); failure to
  /// heal quarantines the store.  Returns the final (post-repair) report.
  Result<ScrubReport> Scrub();

  const IntegrityStats& integrity_stats() const { return integrity_; }

  /// True once the store has been quarantined; every data operation
  /// returns the quarantine Corruption status from then on.
  bool quarantined() const { return quarantined_; }

  /// The underlying index (for invariant checks and stats).
  const BPlusTree& tree() const { return *tree_; }
  BPlusTree* mutable_tree() { return tree_.get(); }

  /// Raw page store and pool (tests and the scrub bench inject
  /// corruption / inspect counters through these).
  DiskManager* disk() { return disk_.get(); }
  BufferPool* buffer_pool() { return pool_.get(); }

  bool durable() const { return wal_ != nullptr; }

 private:
  DurableTree() = default;

  /// (Re)builds the page store, pool, and tree from snapshot + WAL.
  /// Used by Open and by repair.
  Status Recover();

  /// One repair round: discard the in-memory page store and Recover().
  Status Repair();

  /// Marks the store unusable, renames durable files aside, and arms the
  /// status every later operation returns.
  void Quarantine(const Status& cause);

  /// Runs `op`, detecting Corruption and driving repair/quarantine.
  Status WithRepair(const std::function<Status()>& op);

  Status MaybeAutoCheckpoint();
  Status LogAndMaybeSync(const WalRecord& rec);
  Status CheckpointImpl();

  std::string dir_;
  Options options_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BPlusTree> tree_;
  std::unique_ptr<WriteAheadLog> wal_;
  /// Monotonic logical sequence number: one tick per logged mutation.
  /// Stamped into page headers as the last-writer LSN (diagnostics).
  uint64_t lsn_ = 0;
  IntegrityStats integrity_;
  bool quarantined_ = false;
  Status quarantine_status_;
};

}  // namespace prorp::storage

#endif  // PRORP_STORAGE_DURABLE_TREE_H_
