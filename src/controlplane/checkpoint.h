#ifndef PRORP_CONTROLPLANE_CHECKPOINT_H_
#define PRORP_CONTROLPLANE_CHECKPOINT_H_

#include <string>

#include "common/result.h"
#include "common/status.h"
#include "controlplane/management_service.h"
#include "controlplane/metadata_store.h"

namespace prorp::controlplane {

/// Identity of a loaded checkpoint.
struct LoadedCheckpoint {
  /// Incarnation that wrote the checkpoint.
  uint64_t epoch = 0;
  /// Journal records with seq <= last_seq are folded into the checkpoint;
  /// replay after a crash between checkpoint publication and journal
  /// truncation must skip them (that skip is what makes recovery
  /// exactly-once).
  uint64_t last_seq = 0;
};

/// Writes one atomic control-plane checkpoint: metadata-store rows plus
/// the full externally visible ManagementService state (queues, in-flight
/// workflows, diagnostics, breaker and storm posture), CRC-framed and
/// written to `path`.tmp, then published by storage::io::PublishFile:
/// fsync, exchange with the previous checkpoint (renameat2
/// RENAME_EXCHANGE, which unlike a rename over it makes ext4 wait on no
/// flush), unlink of the previous one, parent-dir fsync.  With `sync`
/// false both fsyncs are skipped: the publish is then atomic against
/// process death (the exchange) but not power loss.  Crash points
/// kSnapshotMidCopy and kCpCheckpointMidWrite both fire mid-body, leaving
/// a partial .tmp the next recovery ignores; a crash between exchange and
/// unlink leaves the previous checkpoint in .tmp, ignored the same way.
Status SaveCheckpoint(const std::string& path, const MetadataStore& meta,
                      const ManagementService& svc, uint64_t epoch,
                      uint64_t last_seq, bool sync = true);

/// Loads a checkpoint into a freshly opened store and service.  Returns
/// NotFound when no checkpoint exists (cold start); Corruption when the
/// published file fails its CRC.
Result<LoadedCheckpoint> LoadCheckpoint(const std::string& path,
                                        MetadataStore* meta,
                                        ManagementService* svc);

}  // namespace prorp::controlplane

#endif  // PRORP_CONTROLPLANE_CHECKPOINT_H_
