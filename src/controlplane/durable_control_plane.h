#ifndef PRORP_CONTROLPLANE_DURABLE_CONTROL_PLANE_H_
#define PRORP_CONTROLPLANE_DURABLE_CONTROL_PLANE_H_

#include <functional>
#include <memory>
#include <string>

#include "common/config.h"
#include "common/result.h"
#include "common/status.h"
#include "controlplane/checkpoint.h"
#include "controlplane/journal.h"
#include "controlplane/management_service.h"
#include "controlplane/metadata_store.h"
#include "faults/fault_plan.h"

namespace prorp::controlplane {

/// The durable control plane: MetadataStore + ManagementService wired to
/// the write-ahead journal and periodic checkpoints, with an Open() that
/// doubles as Recover() — reopening the directory after a (simulated)
/// control-plane death replays the journal on top of the newest
/// checkpoint, reconciles dispatched-but-unacked workflows against the
/// node state, and resumes service under a fresh epoch (DESIGN.md
/// section 10).
///
/// An empty Options::dir opens the same plane with no journal and no
/// checkpoint: nothing touches the file system, the epoch stays 0,
/// MaybeCheckpoint is a no-op and Checkpoint is FailedPrecondition.
///
/// Recovery guarantees:
///  * no accepted workflow is lost: acceptance is journaled before it is
///    acknowledged, so every acked reactive login survives any crash;
///  * no workflow is double-resumed: a dispatch journaled without an
///    outcome is reconciled against the node (acknowledged if the node
///    shows the resume, requeued if not), never blindly re-sent;
///  * the accounting invariant reconciles exactly after recovery;
///  * replay is idempotent: checkpoints remember the last folded-in
///    journal sequence, and a crash during recovery replays the already
///    journaled reconcile decisions instead of re-deciding them.
class DurableControlPlane {
 public:
  struct Options {
    /// Directory holding journal ("journal.wal") and checkpoint
    /// ("checkpoint.bin"); created if missing.  Empty: no journal.
    std::string dir;
    ControlPlaneConfig config;
    int max_attempts = 3;
    ControlPlaneJournal::SyncMode sync_mode =
        ControlPlaneJournal::SyncMode::kDurable;
    /// Checkpoint automatically (via MaybeCheckpoint) once this many
    /// journal records accumulated past the last checkpoint; 0 = manual
    /// checkpoints only.
    uint64_t checkpoint_every = 256;
    /// Optional fault plan injected into the journal's WAL I/O.
    faults::FaultPlan* fault_plan = nullptr;
    /// Storage of the metadata store (MetadataStore::Backing).  The
    /// default keeps no SQL mirror of sys.databases; kSqlMirrored opens
    /// one for the literal-SQL scan.  Journal, checkpoints and recovery
    /// are the same under both.
    MetadataStore::Backing metadata_backing =
        MetadataStore::Backing::kIndexOnly;
  };

  struct RecoveryStats {
    uint64_t epoch = 0;            // incarnation started by this Open
    bool checkpoint_loaded = false;
    uint64_t replayed = 0;         // journal records applied
    uint64_t skipped = 0;          // already folded into the checkpoint
    ManagementService::ReconcileStats reconcile;
  };

  /// Opens (or recovers) the control plane from `options.dir`.
  /// `node_resumed` answers whether a node currently holds the resumed
  /// resources of a database — the oracle reconcile decisions are made
  /// against.  `now` is the virtual-clock recovery time.
  static Result<std::unique_ptr<DurableControlPlane>> Open(
      const Options& options, ManagementService::ResumeCallback resume,
      const std::function<bool(DbId)>& node_resumed, EpochSeconds now);

  DurableControlPlane(const DurableControlPlane&) = delete;
  DurableControlPlane& operator=(const DurableControlPlane&) = delete;

  MetadataStore& metadata() { return *metadata_; }
  ManagementService& service() { return *service_; }
  /// Only a plane opened with a directory has a journal.
  ControlPlaneJournal& journal() { return *journal_; }
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  /// Serializes the full control-plane state, publishes it atomically,
  /// and truncates the journal.  A crash anywhere inside is safe: the
  /// checkpoint's last_seq makes replay skip folded-in records.  Under
  /// SyncMode::kBuffered nothing is fsynced (the mode promises survival
  /// of process death only, which the exchange's atomicity gives);
  /// kDurable syncs the journal, the checkpoint and its directory.
  Status Checkpoint();

  /// Checkpoints when enough journal records accumulated (Options::
  /// checkpoint_every); cheap no-op otherwise.
  Status MaybeCheckpoint();

  /// False once the journal died or the service fenced: the control
  /// plane must be destroyed and recovered via Open().
  bool healthy() const {
    return (journal_ == nullptr || journal_->healthy()) && !service_->fenced();
  }

  const std::string& journal_path() const { return journal_path_; }
  const std::string& checkpoint_path() const { return checkpoint_path_; }

  static std::string JournalPathFor(const std::string& dir) {
    return dir + "/journal.wal";
  }
  static std::string CheckpointPathFor(const std::string& dir) {
    return dir + "/checkpoint.bin";
  }

 private:
  DurableControlPlane() = default;

  Options options_;
  std::string journal_path_;
  std::string checkpoint_path_;
  std::unique_ptr<MetadataStore> metadata_;
  std::unique_ptr<ManagementService> service_;
  std::unique_ptr<ControlPlaneJournal> journal_;
  RecoveryStats recovery_stats_;
  uint64_t last_checkpoint_seq_ = 0;
};

}  // namespace prorp::controlplane

#endif  // PRORP_CONTROLPLANE_DURABLE_CONTROL_PLANE_H_
