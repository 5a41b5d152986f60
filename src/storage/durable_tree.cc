#include "storage/durable_tree.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>

#include "faults/fault_injecting_disk_manager.h"
#include "storage/snapshot.h"

namespace prorp::storage {
namespace {

constexpr int kMaxRepairAttempts = 2;

std::string SnapshotPath(const std::string& dir) {
  return dir + "/snapshot.db";
}
std::string WalPath(const std::string& dir) { return dir + "/wal.log"; }

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("mkdir failed: " + dir);
  }
  return Status::OK();
}

Status CorruptionFromReport(const ScrubReport& report,
                            const std::string& file) {
  CorruptionContext ctx;
  ctx.file = file;
  std::string msg = "scrub found " + std::to_string(report.errors()) +
                    " corrupt page(s)";
  if (!report.issues.empty()) {
    ctx.page_id = report.issues.front().page_id;
    msg += ": " + report.issues.front().detail;
  }
  return Status::Corruption(msg, std::move(ctx));
}

}  // namespace

Result<std::unique_ptr<DurableTree>> DurableTree::Open(
    const Options& options) {
  std::unique_ptr<DurableTree> t(new DurableTree());
  t->options_ = options;
  t->dir_ = options.dir;
  PRORP_RETURN_IF_ERROR(t->Recover());
  return t;
}

Status DurableTree::Recover() {
  wal_.reset();
  tree_.reset();
  pool_.reset();
  disk_ = std::make_unique<InMemoryDiskManager>();
  if (options_.fault_plan != nullptr) {
    disk_ = std::make_unique<faults::FaultInjectingDiskManager>(
        std::move(disk_), options_.fault_plan);
  }
  pool_ =
      std::make_unique<BufferPool>(disk_.get(), options_.buffer_pool_pages);
  pool_->set_current_lsn(lsn_);
  PRORP_ASSIGN_OR_RETURN(tree_,
                         BPlusTree::Create(pool_.get(), options_.value_width));

  if (dir_.empty()) return Status::OK();

  PRORP_RETURN_IF_ERROR(EnsureDir(dir_));

  // Recovery step 1: load the last snapshot, if any.
  Status s = ReadSnapshot(
      SnapshotPath(dir_), options_.value_width,
      [&](int64_t key, const uint8_t* value) {
        return tree_->Insert(key, value);
      });
  if (!s.ok() && !s.IsNotFound()) return s;

  // Recovery step 2: replay the WAL tail.
  PRORP_ASSIGN_OR_RETURN(
      uint64_t replayed,
      WriteAheadLog::Replay(
          WalPath(dir_), [&](const WalRecord& rec) -> Status {
            switch (rec.type) {
              case WalRecord::Type::kInsert:
                return tree_->Insert(rec.key, rec.value.data());
              case WalRecord::Type::kUpdate:
                return tree_->Update(rec.key, rec.value.data());
              case WalRecord::Type::kDelete:
                return tree_->Delete(rec.key);
              case WalRecord::Type::kDeleteRange:
                return tree_->DeleteRange(rec.key, rec.key2).status();
            }
            return Status::Corruption("unknown WAL record type");
          }));
  (void)replayed;

  PRORP_ASSIGN_OR_RETURN(wal_, WriteAheadLog::Open(WalPath(dir_)));
  wal_->set_fault_plan(options_.fault_plan);
  return Status::OK();
}

Status DurableTree::Repair() {
  // The page store is ephemeral (never persisted): rebuilding from the
  // snapshot + WAL discards every in-memory page, corrupt or not.  Only
  // acknowledged (logged) mutations are reconstructed — exactly the
  // guarantee crash recovery already provides.
  return Recover();
}

void DurableTree::Quarantine(const Status& cause) {
  if (quarantined_) return;
  quarantined_ = true;
  ++integrity_.corruption_quarantined;
  if (cause.IsCorruption()) {
    quarantine_status_ = cause;
  } else {
    quarantine_status_ =
        Status::Corruption("store quarantined: " + cause.ToString());
  }
  if (!dir_.empty()) {
    wal_.reset();
    std::string snap = SnapshotPath(dir_);
    std::string wal = WalPath(dir_);
    // Best-effort: move the damaged files aside so a later Open starts
    // fresh instead of tripping over them, but keep the evidence.
    (void)std::rename(snap.c_str(), (snap + ".quarantined").c_str());
    (void)std::rename(wal.c_str(), (wal + ".quarantined").c_str());
  }
}

Status DurableTree::WithRepair(const std::function<Status()>& op) {
  if (quarantined_) return quarantine_status_;
  Status s = op();
  int attempts = 0;
  while (s.IsCorruption() && !quarantined_) {
    ++integrity_.corruption_detected;
    if (dir_.empty() || attempts >= kMaxRepairAttempts) {
      Quarantine(s);
      return quarantine_status_;
    }
    ++attempts;
    Status repaired = Repair();
    if (!repaired.ok()) {
      Quarantine(repaired.IsCorruption() ? repaired : s);
      return quarantine_status_;
    }
    ++integrity_.corruption_repaired;
    s = op();
  }
  if (s.IsCorruption()) return quarantine_status_;
  return s;
}

Status DurableTree::LogAndMaybeSync(const WalRecord& rec) {
  ++lsn_;
  pool_->set_current_lsn(lsn_);
  if (wal_ == nullptr) return Status::OK();
  PRORP_RETURN_IF_ERROR(wal_->Append(rec));
  // A DurableTree has one writer, so a durable append is the append plus
  // its own fsync: wal_pre_sync and kWalSync fire once per record.
  if (options_.fsync_each_append) PRORP_RETURN_IF_ERROR(wal_->Sync());
  return MaybeAutoCheckpoint();
}

Status DurableTree::Insert(int64_t key, const uint8_t* value) {
  // Apply-then-log: only successful mutations reach the log, so recovery
  // replay can never fail on a duplicate key or missing key.  A crash
  // between apply and append loses at most the unacknowledged tail, which
  // is standard redo-log semantics.  The repair wrapper relies on the same
  // property: a mutation that died on a corrupt page was never logged, so
  // the rebuild + retry applies it exactly once.
  return WithRepair([&]() -> Status {
    PRORP_RETURN_IF_ERROR(tree_->Insert(key, value));
    WalRecord rec;
    rec.type = WalRecord::Type::kInsert;
    rec.key = key;
    rec.value.assign(value, value + value_width());
    return LogAndMaybeSync(rec);
  });
}

Status DurableTree::Update(int64_t key, const uint8_t* value) {
  return WithRepair([&]() -> Status {
    PRORP_RETURN_IF_ERROR(tree_->Update(key, value));
    WalRecord rec;
    rec.type = WalRecord::Type::kUpdate;
    rec.key = key;
    rec.value.assign(value, value + value_width());
    return LogAndMaybeSync(rec);
  });
}

Status DurableTree::Delete(int64_t key) {
  return WithRepair([&]() -> Status {
    PRORP_RETURN_IF_ERROR(tree_->Delete(key));
    WalRecord rec;
    rec.type = WalRecord::Type::kDelete;
    rec.key = key;
    return LogAndMaybeSync(rec);
  });
}

Result<uint64_t> DurableTree::DeleteRange(int64_t lo, int64_t hi) {
  uint64_t n = 0;
  PRORP_RETURN_IF_ERROR(WithRepair([&]() -> Status {
    PRORP_ASSIGN_OR_RETURN(n, tree_->DeleteRange(lo, hi));
    WalRecord rec;
    rec.type = WalRecord::Type::kDeleteRange;
    rec.key = lo;
    rec.key2 = hi;
    return LogAndMaybeSync(rec);
  }));
  return n;
}

Status DurableTree::ScanRange(int64_t lo, int64_t hi,
                              const BPlusTree::ScanCallback& cb) const {
  // Reads drive repair too; const_cast is sound because the tree is
  // single-writer by design and repair only swaps internal state.
  DurableTree* self = const_cast<DurableTree*>(this);
  // Resume after the last delivered key when a retry happens, so the
  // callback never sees an entry twice across a mid-scan repair.
  int64_t next_lo = lo;
  bool saturated = false;
  return self->WithRepair([&]() -> Status {
    if (saturated) return Status::OK();
    return self->tree_->ScanRange(
        next_lo, hi, [&](int64_t key, const uint8_t* value) {
          if (key == INT64_MAX) {
            saturated = true;
          } else {
            next_lo = key + 1;
          }
          return cb(key, value);
        });
  });
}

Status DurableTree::MaybeAutoCheckpoint() {
  if (wal_ == nullptr || options_.checkpoint_wal_bytes == 0) {
    return Status::OK();
  }
  PRORP_ASSIGN_OR_RETURN(uint64_t bytes, wal_->SizeBytes());
  if (bytes < options_.checkpoint_wal_bytes) return Status::OK();
  return CheckpointImpl();
}

Status DurableTree::CheckpointImpl() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("ephemeral tree has no checkpoint");
  }
  std::vector<SnapshotEntry> entries;
  entries.reserve(tree_->size());
  PRORP_RETURN_IF_ERROR(tree_->ScanRange(
      INT64_MIN, INT64_MAX, [&](int64_t key, const uint8_t* value) {
        entries.push_back(
            {key, std::vector<uint8_t>(value, value + value_width())});
        return true;
      }));
  PRORP_RETURN_IF_ERROR(
      WriteSnapshot(SnapshotPath(dir_), value_width(), entries));
  return wal_->Truncate();
}

Status DurableTree::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("ephemeral tree has no checkpoint");
  }
  return WithRepair([&]() -> Status { return CheckpointImpl(); });
}

Status DurableTree::Backup(const std::string& dest_dir) {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("ephemeral tree has no backup");
  }
  PRORP_RETURN_IF_ERROR(Checkpoint());
  PRORP_RETURN_IF_ERROR(EnsureDir(dest_dir));
  PRORP_RETURN_IF_ERROR(
      CopyFile(SnapshotPath(dir_), SnapshotPath(dest_dir)));
  // The WAL was just truncated; make sure a stale WAL in dest cannot
  // pollute the restored state.
  FILE* f = std::fopen(WalPath(dest_dir).c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot reset destination WAL");
  std::fclose(f);
  return Status::OK();
}

Result<ScrubReport> DurableTree::Scrub() {
  if (quarantined_) return quarantine_status_;
  ++integrity_.scrub_passes;
  PRORP_ASSIGN_OR_RETURN(ScrubReport report,
                         ScrubTree(pool_.get(), tree_.get()));
  integrity_.scrub_pages += report.pages_scanned;
  if (report.clean()) return report;

  integrity_.scrub_errors += report.errors();
  ++integrity_.corruption_detected;
  Status cause = CorruptionFromReport(report, dir_);
  if (dir_.empty()) {
    Quarantine(cause);
    return quarantine_status_;
  }
  Status repaired = Repair();
  if (!repaired.ok()) {
    Quarantine(repaired.IsCorruption() ? repaired : cause);
    return quarantine_status_;
  }
  ++integrity_.corruption_repaired;

  // Verify the heal stuck with a second pass.
  ++integrity_.scrub_passes;
  PRORP_ASSIGN_OR_RETURN(ScrubReport after,
                         ScrubTree(pool_.get(), tree_.get()));
  integrity_.scrub_pages += after.pages_scanned;
  if (!after.clean()) {
    integrity_.scrub_errors += after.errors();
    Quarantine(CorruptionFromReport(after, dir_));
    return quarantine_status_;
  }
  return after;
}

}  // namespace prorp::storage
