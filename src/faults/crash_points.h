#ifndef PRORP_FAULTS_CRASH_POINTS_H_
#define PRORP_FAULTS_CRASH_POINTS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace prorp::faults {

/// Named crash points instrumented in the storage engine.  Each simulates
/// dying at a specific vulnerable instant; the component leaves whatever
/// partial on-medium state a real crash would and returns Status::Aborted,
/// which the torture harness treats as process death (no further writes,
/// reopen from the directory).
inline constexpr std::string_view kWalAppendPartial = "wal_append_partial";
inline constexpr std::string_view kWalPreSync = "wal_pre_sync";
inline constexpr std::string_view kBtreeMidSplit = "btree_mid_split";
inline constexpr std::string_view kSnapshotMidCopy = "snapshot_mid_copy";
inline constexpr std::string_view kSnapshotPreRenameSync =
    "snapshot_pre_rename_sync";
/// Control-plane journal: the record's frame reached the journal file but
/// the process dies before the fsync.  The armed payload chooses how many
/// bytes of the frame survive (0 = all of them — a record that is durable
/// but was never acknowledged; n > 0 = a torn tail of n % frame_size
/// bytes).
inline constexpr std::string_view kCpJournalPreSync = "cp_journal_pre_sync";
/// Control-plane journal: the record is durable in the journal but the
/// process dies before the in-memory transition it describes is applied.
/// Recovery must replay the record so the acknowledged transition is not
/// lost.
inline constexpr std::string_view kCpPostJournalPreApply =
    "cp_post_journal_pre_apply";
/// Control-plane checkpoint: the process dies halfway through writing the
/// checkpoint temp file.  The previous checkpoint (or none) plus the
/// un-truncated journal must still recover the full state.
inline constexpr std::string_view kCpCheckpointMidWrite =
    "cp_checkpoint_mid_write";
/// Control plane: the resume callback was dispatched to the node (its
/// side effect may have happened) but the process dies before the outcome
/// is journaled.  Recovery must reconcile the dispatched-but-unacked
/// workflow against the node's state instead of blindly re-resuming.
inline constexpr std::string_view kCpDispatchPreAck = "cp_dispatch_pre_ack";

/// All compiled-in crash points (for harness enumeration and docs).
std::vector<std::string_view> AllCrashPoints();

/// The storage-engine subset (WAL, B-tree, snapshot) — what the storage
/// crash-torture harness exercises.
std::vector<std::string_view> StorageCrashPoints();

/// The control-plane subset (journal, checkpoint, dispatch) — what the
/// recovery crash-torture matrix exercises.
std::vector<std::string_view> ControlPlaneCrashPoints();

/// Process-global registry of crash points.  Instrumented code adds a
/// one-line hook (PRORP_CRASH_POINT) per point; the torture harness arms
/// one point at a time and replays a workload until it fires.
///
/// Disarmed cost is one inline relaxed atomic load, so hooks are safe on
/// hot paths (B+tree splits, WAL appends, every journal frame).  Arming
/// and hit accounting are mutex-protected; production code never arms,
/// tests arm from a single thread.
class CrashPointRegistry {
 public:
  static CrashPointRegistry& Global() {
    static CrashPointRegistry* registry = new CrashPointRegistry();
    return *registry;
  }

  /// Arms `point` to fire on its `nth` (1-based) future hit.  `payload`
  /// parameterizes the crash effect at the site (e.g. how many bytes of a
  /// torn WAL frame reach the file).  Re-arming replaces the previous arm
  /// and resets hit counters.
  void Arm(std::string_view point, uint64_t nth, uint64_t payload = 0);

  /// Disarms everything and clears all counters and the fired flag.
  void Reset();

  /// Starts/stops pure hit counting (no firing).  The torture harness
  /// uses a counting pass to discover which points a workload reaches and
  /// how often, before choosing where to crash.
  void SetCounting(bool on);

  /// Called by instrumented code via PRORP_CRASH_POINT.  Returns
  /// Status::Aborted when this hit is the armed one, OK otherwise.  Only
  /// an armed or counting registry leaves the inline test.
  Status Hit(std::string_view point) {
    if (!active_.load(std::memory_order_relaxed)) return Status::OK();
    return HitActive(point);
  }

  /// Hits recorded at `point` since the last Reset()/Arm().
  uint64_t hits(std::string_view point) const;

  /// Whether the armed point has fired.
  bool fired() const { return fired_.load(std::memory_order_acquire); }

  /// Payload of the armed point (valid after Arm).
  uint64_t payload() const { return payload_; }

  /// Points hit at least once since the last Reset()/Arm().
  std::vector<std::string> observed_points() const;

 private:
  CrashPointRegistry() = default;

  /// Hit accounting and firing of an armed or counting registry.
  Status HitActive(std::string_view point);

  std::atomic<bool> active_{false};  // armed or counting
  std::atomic<bool> fired_{false};
  mutable std::mutex mu_;
  bool counting_ = false;
  std::string armed_point_;
  uint64_t armed_nth_ = 0;
  uint64_t payload_ = 0;
  std::map<std::string, uint64_t, std::less<>> hit_counts_;
};

/// Convenience hook against the global registry.
inline Status HitCrashPoint(std::string_view point) {
  return CrashPointRegistry::Global().Hit(point);
}

/// One-line crash-point hook for instrumented code.
#define PRORP_CRASH_POINT(point) \
  PRORP_RETURN_IF_ERROR(::prorp::faults::HitCrashPoint(point))

}  // namespace prorp::faults

#endif  // PRORP_FAULTS_CRASH_POINTS_H_
