#include "controlplane/durable_control_plane.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <utility>

namespace prorp::controlplane {

Result<std::unique_ptr<DurableControlPlane>> DurableControlPlane::Open(
    const Options& options, ManagementService::ResumeCallback resume,
    const std::function<bool(DbId)>& node_resumed, EpochSeconds now) {
  const bool journaled = !options.dir.empty();
  if (journaled && ::mkdir(options.dir.c_str(), 0755) != 0 &&
      errno != EEXIST) {
    return Status::IoError("cannot create control-plane directory");
  }
  std::unique_ptr<DurableControlPlane> plane(new DurableControlPlane());
  plane->options_ = options;
  PRORP_ASSIGN_OR_RETURN(plane->metadata_,
                         MetadataStore::Open(options.metadata_backing));
  plane->service_ = std::make_unique<ManagementService>(
      plane->metadata_.get(), options.config, std::move(resume),
      options.max_attempts);
  // No directory: nothing to recover and nothing to journal (epoch 0).
  if (!journaled) return plane;
  plane->journal_path_ = JournalPathFor(options.dir);
  plane->checkpoint_path_ = CheckpointPathFor(options.dir);

  // 1. Newest checkpoint (if any) is the replay base.
  uint64_t base_epoch = 0;
  uint64_t last_seq = 0;
  Result<LoadedCheckpoint> ckpt = LoadCheckpoint(
      plane->checkpoint_path_, plane->metadata_.get(), plane->service_.get());
  if (ckpt.ok()) {
    base_epoch = ckpt->epoch;
    last_seq = ckpt->last_seq;
    plane->recovery_stats_.checkpoint_loaded = true;
  } else if (ckpt.status().code() != StatusCode::kNotFound) {
    return ckpt.status();
  }

  // 2. Replay the journal on top, skipping records the checkpoint already
  // folded in (the exactly-once half of the crash-between-checkpoint-and-
  // truncate window).  Metadata records route to the store, everything
  // else to the service; reconcile decisions of an interrupted previous
  // recovery replay here too, which is what makes recovery idempotent.
  uint64_t max_seq = last_seq;
  uint64_t max_epoch = base_epoch;
  ManagementService* svc = plane->service_.get();
  MetadataStore* meta = plane->metadata_.get();
  DurableControlPlane* p = plane.get();
  PRORP_RETURN_IF_ERROR(
      ControlPlaneJournal::Replay(
          plane->journal_path_,
          [&](uint64_t seq, const JournalRecord& rec) -> Status {
            max_epoch = std::max(max_epoch, rec.epoch);
            if (seq <= last_seq) {
              ++p->recovery_stats_.skipped;
              return Status::OK();
            }
            max_seq = std::max(max_seq, seq);
            ++p->recovery_stats_.replayed;
            switch (rec.event) {
              case JournalEvent::kMetaUpsert:
                return meta->RestoreUpsert(
                    rec.db, static_cast<int32_t>(rec.cls),
                    rec.predicted_start);
              case JournalEvent::kMetaRemove:
                return meta->RestoreRemove(rec.db);
              default:
                return svc->ApplyForRecovery(rec);
            }
          })
          .status());

  // 3. New incarnation: epoch strictly above anything ever journaled, so
  // (db, epoch) never collides across restarts.
  uint64_t epoch = max_epoch + 1;
  PRORP_ASSIGN_OR_RETURN(
      plane->journal_,
      ControlPlaneJournal::Open(plane->journal_path_, options.sync_mode));
  plane->journal_->set_next_seq(max_seq + 1);
  if (options.fault_plan != nullptr) {
    plane->journal_->set_fault_plan(options.fault_plan);
  }
  plane->service_->AttachJournal(plane->journal_.get());
  plane->service_->set_epoch(epoch);
  plane->metadata_->AttachJournal(plane->journal_.get(), epoch);
  plane->last_checkpoint_seq_ = last_seq;
  plane->recovery_stats_.epoch = epoch;

  JournalRecord start;
  start.event = JournalEvent::kEpochStart;
  start.epoch = epoch;
  start.time = now;
  PRORP_RETURN_IF_ERROR(plane->journal_->Append(start));

  // 4. Reconcile dispatched-but-unacked and lost in-flight workflows
  // against the node state.  A crash inside reconciliation surfaces as a
  // fence; the caller reopens and the journaled prefix of decisions
  // replays instead of being re-decided.
  plane->recovery_stats_.reconcile =
      plane->service_->FinishRecovery(node_resumed, now);
  if (plane->service_->fenced()) {
    return plane->service_->fence_status();
  }
  return plane;
}

Status DurableControlPlane::Checkpoint() {
  if (journal_ == nullptr) {
    return Status::FailedPrecondition("control plane has no journal");
  }
  if (!journal_->healthy()) return journal_->dead_status();
  if (service_->fenced()) return service_->fence_status();
  // Power-loss durability (kDurable) needs the journal on stable storage
  // before the checkpoint that subsumes it, and the checkpoint's bytes
  // and directory entry synced before the journal is cut.  kBuffered
  // promises only survival of process death: the page cache already
  // holds every journaled record, and the exchange publishes either the
  // old checkpoint or the whole new one, so neither fsync buys anything
  // (DESIGN.md section 10).
  const bool durable =
      options_.sync_mode == ControlPlaneJournal::SyncMode::kDurable;
  if (durable) PRORP_RETURN_IF_ERROR(journal_->Sync());
  uint64_t last_seq = journal_->next_seq() - 1;
  PRORP_RETURN_IF_ERROR(SaveCheckpoint(checkpoint_path_, *metadata_,
                                       *service_, recovery_stats_.epoch,
                                       last_seq, /*sync=*/durable));
  // Crash window: checkpoint published, journal not yet truncated.  Safe —
  // replay skips seq <= last_seq.
  PRORP_RETURN_IF_ERROR(journal_->TruncateAfterCheckpoint());
  last_checkpoint_seq_ = last_seq;
  return Status::OK();
}

Status DurableControlPlane::MaybeCheckpoint() {
  if (options_.checkpoint_every == 0 || journal_ == nullptr) {
    return Status::OK();
  }
  uint64_t appended = journal_->next_seq() - 1;
  if (appended < last_checkpoint_seq_ ||
      appended - last_checkpoint_seq_ < options_.checkpoint_every) {
    return Status::OK();
  }
  return Checkpoint();
}

}  // namespace prorp::controlplane
