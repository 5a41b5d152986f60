#ifndef PRORP_CONTROLPLANE_JOURNAL_H_
#define PRORP_CONTROLPLANE_JOURNAL_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "common/time_util.h"
#include "storage/wal.h"
#include "telemetry/events.h"

namespace prorp::controlplane {

using telemetry::DbId;

/// Event types of the control-plane journal.  Every externally visible
/// state transition of the ManagementService and MetadataStore is
/// journaled as one of these BEFORE it takes effect in memory, so a
/// control-plane death can always be recovered by checkpoint + replay
/// (DESIGN.md section 10).
enum class JournalEvent : uint8_t {
  /// A new control-plane incarnation opened the journal.  Workflow
  /// identity for cross-incarnation dedup is (db, epoch).
  kEpochStart = 1,
  kMetaUpsert = 2,       // metadata mutation: db, state code, predicted start
  kMetaRemove = 3,       // database dropped from the metadata store
  kAccepted = 4,         // workflow admitted into the queue
  kAdmissionShed = 5,    // workflow refused at admission (breaker/brownout)
  kEvicted = 6,          // queued workflow evicted by a higher class
  kRetired = 7,          // queued workflow retired without an attempt
  kDispatched = 8,       // resume callback about to run (pre-ack)
  kOutcomeOk = 9,        // dispatch succeeded
  kOutcomeFailed = 10,   // dispatch failed (backoff retry or incident)
  kHedge = 11,           // watchdog hedged an in-flight workflow
  kCompleted = 12,       // asynchronous workflow completion arrived
  kBreaker = 13,         // circuit-breaker state transition
  kStormStart = 14,      // storm detector tripped
  kStormEnd = 15,        // storm backlog drained
  kIteration = 16,       // one RunOnce iteration finished (aggregates)
  kReconcileComplete = 17,  // recovery: unacked dispatch found resumed
  kReconcileRequeue = 18,   // recovery: unacked dispatch found not resumed
  kNodeDead = 19,           // failure detector declared a node dead
};

// Flag bits of JournalRecord::flags (meaning depends on the event).
inline constexpr uint32_t kJfHedge = 1u << 0;       // attempt was a hedge
inline constexpr uint32_t kJfWasFailed = 1u << 1;   // item had attempts > 0
inline constexpr uint32_t kJfDeleted = 1u << 2;     // db vanished (kRetired)
inline constexpr uint32_t kJfAsync = 1u << 3;       // went in flight (kOutcomeOk)
inline constexpr uint32_t kJfBreakerShed = 1u << 4;  // shed by open breaker
inline constexpr uint32_t kJfIncident = 1u << 5;    // retries exhausted
inline constexpr uint32_t kJfCatchUp = 1u << 6;     // admitted by catch-up sweep
inline constexpr uint32_t kJfFirstWait = 1u << 7;   // queue wait sampled here
inline constexpr uint32_t kJfHedgeWin = 1u << 8;    // hedge attempt succeeded
inline constexpr uint32_t kJfSlowStart = 1u << 9;   // iteration ran quota'd
inline constexpr uint32_t kJfFirstFailure = 1u << 10;  // became stuck here
inline constexpr uint32_t kJfReactive = 1u << 11;   // reactive-login arrival
inline constexpr uint32_t kJfFailover = 1u << 12;   // failover re-placement

/// One journaled control-plane transition, as it is held in memory; on
/// disk a record carries only its non-zero fields (journal.cc gives the
/// encoding).  Fields not meaningful for an event type are zero.  `cls`
/// carries a ResumeClass for workflow events, a BreakerState code for
/// kBreaker, and a DbState code for kMetaUpsert.  `attempt` carries the
/// attempt number for workflow events and the brownout level for
/// admission events.
struct JournalRecord {
  JournalEvent event = JournalEvent::kEpochStart;
  uint64_t epoch = 0;
  DbId db = 0;
  uint8_t cls = 0;
  uint32_t flags = 0;
  int32_t attempt = 0;
  EpochSeconds time = 0;
  EpochSeconds enqueued_at = 0;
  EpochSeconds not_before = 0;
  EpochSeconds deadline = 0;
  int64_t predicted_start = 0;
  /// kIteration aggregates, journaled as absolutes so replay is
  /// idempotent: [0] resumed this iteration, [1] max_queue_depth,
  /// [2] quota_deferrals, [3] quota_this_iteration.
  std::array<uint64_t, 4> stats{};
  /// kIteration: idle iterations counted, not run, since the previous
  /// iteration (ManagementService::IdleAt); each resumed nothing.
  uint64_t idle_before = 0;
};

/// The control-plane write-ahead journal: JournalRecords framed through
/// the existing WriteAheadLog (CRC32 per record, torn-tail-safe replay,
/// mapped tail).  Each record carries a monotonic sequence number in the
/// WalRecord key; checkpoints remember the last folded-in sequence so
/// replay after a crash between checkpoint publication and journal
/// truncation skips already-applied records exactly once.
///
/// Failure model: fail-stop.  The first append that does not reach the
/// medium (I/O error, ENOSPC, injected crash) latches the journal dead;
/// every later append refuses with the same status, so no transition can
/// be acknowledged after the journal stopped recording them.  The owner
/// is expected to treat a dead journal as a control-plane death and
/// recover from disk.
class ControlPlaneJournal {
 public:
  enum class SyncMode {
    /// fsync per record: a transition is acknowledged only when durable
    /// (the default for torture and production-shaped use).
    kDurable,
    /// Buffered appends: each record is copied into the WAL's mapped
    /// tail, so it is in the page cache when Append returns, with no
    /// system call.  Survives process death (the page cache persists),
    /// not power loss; only an explicit Sync() reaches stable storage,
    /// and checkpoints skip their fsyncs.  The fleet simulator uses this
    /// mode.
    kBuffered,
  };

  static Result<std::unique_ptr<ControlPlaneJournal>> Open(
      const std::string& path, SyncMode mode);

  ControlPlaneJournal(const ControlPlaneJournal&) = delete;
  ControlPlaneJournal& operator=(const ControlPlaneJournal&) = delete;

  /// Appends one record (assigning the next sequence number) and, in
  /// kDurable mode, makes it stable before returning.  On any failure the
  /// journal latches dead and every subsequent call returns the latched
  /// status.
  Status Append(const JournalRecord& record);

  /// Forces buffered records to stable storage.
  Status Sync();

  /// Truncates the journal after a checkpoint captured its effects.  The
  /// sequence counter keeps running: record identity never repeats.
  Status TruncateAfterCheckpoint();

  /// False once an append failed or an injected crash fired: the control
  /// plane must stop acknowledging work and be recovered from disk.
  bool healthy() const { return dead_.ok(); }
  const Status& dead_status() const { return dead_; }

  /// Sequence number the next append will use.
  uint64_t next_seq() const { return next_seq_; }
  void set_next_seq(uint64_t seq) { next_seq_ = seq; }

  uint64_t appended_records() const { return appended_; }
  Result<uint64_t> SizeBytes() const { return wal_->SizeBytes(); }
  const std::string& path() const { return path_; }

  /// Attaches a fault plan consulted on every append/sync (kWalAppend /
  /// kWalSync ops).  nullptr detaches.
  void set_fault_plan(faults::FaultPlan* plan) { wal_->set_fault_plan(plan); }

  /// Replays all intact records in order, invoking `apply(seq, record)`.
  /// A trailing torn record (crash mid-append) is trimmed, not an error;
  /// an intact frame whose value is not a record encoding (the earlier
  /// fixed 94-byte layout included) is Corruption.  Returns the number of
  /// records replayed.
  static Result<uint64_t> Replay(
      const std::string& path,
      const std::function<Status(uint64_t seq, const JournalRecord&)>& apply);

 private:
  ControlPlaneJournal(std::unique_ptr<storage::WriteAheadLog> wal,
                      std::string path, SyncMode mode)
      : wal_(std::move(wal)), path_(std::move(path)), mode_(mode) {}

  std::unique_ptr<storage::WriteAheadLog> wal_;
  std::string path_;
  SyncMode mode_;
  uint64_t next_seq_ = 1;
  uint64_t appended_ = 0;
  Status dead_ = Status::OK();
};

}  // namespace prorp::controlplane

#endif  // PRORP_CONTROLPLANE_JOURNAL_H_
