#ifndef PRORP_CONTROLPLANE_METADATA_STORE_H_
#define PRORP_CONTROLPLANE_METADATA_STORE_H_

#include <map>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/time_util.h"
#include "policy/lifecycle.h"
#include "sql/ast.h"
#include "sql/database.h"
#include "telemetry/events.h"

namespace prorp::controlplane {

using telemetry::DbId;

class ControlPlaneJournal;

/// One pre-warm the fleet missed while the resume path was degraded: a
/// physically paused database whose predicted activity start fell inside
/// the catch-up window instead of being handled on time.
struct MissedResume {
  DbId db = 0;
  EpochSeconds predicted_start = 0;
};

/// The metadata store of the Management Service: the sys.databases table
/// Algorithm 5 queries (database_id, state, start_of_pred_activity).
///
/// Two query paths answer Algorithm 5's selection:
///  * an ordered secondary index on (start_of_pred_activity, database_id)
///    restricted to physically paused databases (SelectDueForResume) — the
///    production-grade access path that makes a once-a-minute scan over
///    hundreds of thousands of databases cheap, and
///  * the faithful SQL table, scanned exactly per Algorithm 5 lines 2-6
///    (SelectDueForResumeSql), kept only under Backing::kSqlMirrored as
///    the oracle of the index.
/// Property tests assert the two return identical lists, in
/// (start_of_pred_activity, database_id) order.
class MetadataStore {
 public:
  /// Which storage backs the store.  kIndexOnly (default) keeps the
  /// in-memory entry map and resume index only; every query except
  /// SelectDueForResumeSql is answered from them.  kSqlMirrored also
  /// maintains the faithful sys.databases SQL table, with one SQL upsert
  /// per transition, so that SelectDueForResumeSql can scan it.  Open it
  /// only where that literal scan is read.
  enum class Backing { kSqlMirrored, kIndexOnly };

  static Result<std::unique_ptr<MetadataStore>> Open(
      Backing backing = Backing::kIndexOnly);

  MetadataStore(const MetadataStore&) = delete;
  MetadataStore& operator=(const MetadataStore&) = delete;

  /// Records the database's lifecycle state and, when physically paused,
  /// the predicted next-activity start (Algorithm 1 line 31; 0 = none).
  Status UpsertState(DbId db, policy::DbState state,
                     EpochSeconds predicted_start);

  /// Algorithm 5 lines 2-6 over the secondary index: physically paused
  /// databases with now + k <= start_of_pred_activity < now + k + period.
  Result<std::vector<DbId>> SelectDueForResume(EpochSeconds now,
                                               DurationSeconds k,
                                               DurationSeconds period) const;

  /// Whether SelectDueForResume(now, k, period) would select anything:
  /// one index probe, no allocation.  Both selection paths return the
  /// same set, so this answers for the SQL scan too.
  bool AnyDueForResume(EpochSeconds now, DurationSeconds k,
                       DurationSeconds period) const;

  /// The same selection as a literal SQL scan of sys.databases.
  /// FailedPrecondition unless the store was opened kSqlMirrored.
  Result<std::vector<DbId>> SelectDueForResumeSql(
      EpochSeconds now, DurationSeconds k, DurationSeconds period) const;

  /// Catch-up selection of the storm layer: physically paused databases
  /// whose predicted start lies in [now - lookback, now + k) — i.e. work
  /// the regular sliding window has already passed over (it only ever
  /// looks at [now + k, now + k + period)), typically because the breaker
  /// shed it or the workflow stayed stuck through its window.
  Result<std::vector<MissedResume>> SelectMissedResume(
      EpochSeconds now, DurationSeconds lookback, DurationSeconds k) const;

  /// Whether the database still exists (a queued workflow whose target
  /// was dropped must be retired, not attempted).
  bool Contains(DbId db) const {
    return db < entries_.size() && entries_[db].present;
  }

  /// Deletes the database's row, entry, and index slot (customer dropped
  /// the database).  Deleting an unknown id is a no-op.
  Status Remove(DbId db);

  uint64_t size() const { return live_; }

  // --- Durability & recovery (DESIGN.md section 10) ---

  /// Attaches the control-plane journal: every UpsertState/Remove is
  /// journaled (kMetaUpsert/kMetaRemove, stamped with `epoch`) before it
  /// takes effect, and fails without applying if the journal refuses.
  /// nullptr detaches (restore paths apply unjournaled).
  void AttachJournal(ControlPlaneJournal* journal, uint64_t epoch) {
    journal_ = journal;
    epoch_ = epoch;
  }

  /// One exported row for checkpoint serialization, sorted by db id.
  struct ExportedEntry {
    DbId db = 0;
    int32_t state_code = 0;
    EpochSeconds predicted_start = 0;
  };
  std::vector<ExportedEntry> Export() const;

  /// Re-applies a mutation without journaling (checkpoint load and
  /// journal replay — the record is already durable).
  Status RestoreUpsert(DbId db, int32_t state_code,
                       EpochSeconds predicted_start);
  Status RestoreRemove(DbId db) { return ApplyRemove(db); }

 private:
  MetadataStore() = default;

  struct Entry {
    policy::DbState state = policy::DbState::kResumed;
    EpochSeconds predicted_start = 0;
    bool present = false;
  };

  Status ApplyUpsert(DbId db, policy::DbState state,
                     EpochSeconds predicted_start);
  Status ApplyRemove(DbId db);

  /// Null under Backing::kIndexOnly.
  mutable std::unique_ptr<sql::Database> db_;
  sql::Statement insert_stmt_;
  sql::Statement update_stmt_;
  sql::Statement select_due_stmt_;
  sql::Statement delete_stmt_;
  /// Dense by database id (fleet ids are contiguous from 0; a hash map
  /// here was the top cache-miss site of the million-database hot loop).
  /// Slots beyond the live set have present = false.
  std::vector<Entry> entries_;
  uint64_t live_ = 0;
  /// (predicted_start, db) for physically paused databases with a
  /// prediction.
  std::map<std::pair<EpochSeconds, DbId>, bool> resume_index_;
  ControlPlaneJournal* journal_ = nullptr;
  uint64_t epoch_ = 0;
};

}  // namespace prorp::controlplane

#endif  // PRORP_CONTROLPLANE_METADATA_STORE_H_
