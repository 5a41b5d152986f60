#include "controlplane/metadata_store.h"

#include <algorithm>

#include "controlplane/journal.h"
#include "sql/parser.h"

namespace prorp::controlplane {
namespace {

int64_t StateCode(policy::DbState state) {
  switch (state) {
    case policy::DbState::kResumed:
      return 0;
    case policy::DbState::kLogicallyPaused:
      return 1;
    case policy::DbState::kPhysicallyPaused:
      return 2;
  }
  return -1;
}

Result<policy::DbState> StateFromCode(int32_t code) {
  switch (code) {
    case 0:
      return policy::DbState::kResumed;
    case 1:
      return policy::DbState::kLogicallyPaused;
    case 2:
      return policy::DbState::kPhysicallyPaused;
    default:
      return Status::Corruption("unknown db state code in journal");
  }
}

}  // namespace

Result<std::unique_ptr<MetadataStore>> MetadataStore::Open(Backing backing) {
  std::unique_ptr<MetadataStore> store(new MetadataStore());
  if (backing == Backing::kIndexOnly) return store;
  store->db_ = std::make_unique<sql::Database>();
  PRORP_RETURN_IF_ERROR(
      store->db_
          ->Execute("CREATE TABLE sys.databases ("
                    "database_id BIGINT PRIMARY KEY, state INT, "
                    "start_of_pred_activity BIGINT)")
          .status());
  PRORP_ASSIGN_OR_RETURN(
      store->insert_stmt_,
      sql::Parse("INSERT INTO sys.databases (database_id, state, "
                 "start_of_pred_activity) VALUES (@db, @state, @pred)"));
  PRORP_ASSIGN_OR_RETURN(
      store->update_stmt_,
      sql::Parse("UPDATE sys.databases SET state = @state, "
                 "start_of_pred_activity = @pred WHERE database_id = @db"));
  // Algorithm 5 lines 2-6 ('physical_pause' encoded as state = 2).  The
  // engine scans by database_id and sorts stably, so the rows come in
  // (predicted start, id) order, the order SelectDueForResume's index
  // yields.
  PRORP_ASSIGN_OR_RETURN(
      store->select_due_stmt_,
      sql::Parse("SELECT database_id FROM sys.databases "
                 "WHERE state = 2 AND @lo <= start_of_pred_activity AND "
                 "start_of_pred_activity < @hi "
                 "ORDER BY start_of_pred_activity"));
  PRORP_ASSIGN_OR_RETURN(
      store->delete_stmt_,
      sql::Parse("DELETE FROM sys.databases WHERE database_id = @db"));
  return store;
}

Status MetadataStore::UpsertState(DbId db, policy::DbState state,
                                  EpochSeconds predicted_start) {
  if (journal_ != nullptr) {
    // Journal-before-apply: the mutation must be recoverable before any
    // caller can observe it.  A refused append means the control plane is
    // dead — nothing is applied, nothing acknowledged.
    JournalRecord rec;
    rec.event = JournalEvent::kMetaUpsert;
    rec.epoch = epoch_;
    rec.db = db;
    rec.cls = static_cast<uint8_t>(StateCode(state));
    rec.predicted_start = predicted_start;
    PRORP_RETURN_IF_ERROR(journal_->Append(rec));
  }
  return ApplyUpsert(db, state, predicted_start);
}

Status MetadataStore::RestoreUpsert(DbId db, int32_t state_code,
                                    EpochSeconds predicted_start) {
  PRORP_ASSIGN_OR_RETURN(policy::DbState state, StateFromCode(state_code));
  return ApplyUpsert(db, state, predicted_start);
}

Status MetadataStore::ApplyUpsert(DbId db, policy::DbState state,
                                  EpochSeconds predicted_start) {
  if (state != policy::DbState::kPhysicallyPaused) predicted_start = 0;
  if (db >= entries_.size()) {
    // Geometric growth: resize(db + 1) alone would make sequential
    // first-inserts quadratic.
    entries_.resize(std::max<size_t>(db + 1, entries_.size() * 2));
  }
  Entry& entry = entries_[db];
  if (!entry.present) {
    if (db_ != nullptr) {
      sql::Params params{{"db", static_cast<int64_t>(db)},
                         {"state", StateCode(state)},
                         {"pred", predicted_start}};
      PRORP_RETURN_IF_ERROR(
          db_->ExecuteStatement(insert_stmt_, params).status());
    }
    ++live_;
  } else {
    // Drop the stale index entry before overwriting.
    if (entry.state == policy::DbState::kPhysicallyPaused &&
        entry.predicted_start > 0) {
      resume_index_.erase({entry.predicted_start, db});
    }
    if (db_ != nullptr) {
      sql::Params params{{"db", static_cast<int64_t>(db)},
                         {"state", StateCode(state)},
                         {"pred", predicted_start}};
      PRORP_RETURN_IF_ERROR(
          db_->ExecuteStatement(update_stmt_, params).status());
    }
  }
  entry = {state, predicted_start, true};
  if (state == policy::DbState::kPhysicallyPaused && predicted_start > 0) {
    resume_index_[{predicted_start, db}] = true;
  }
  return Status::OK();
}

Result<std::vector<DbId>> MetadataStore::SelectDueForResume(
    EpochSeconds now, DurationSeconds k, DurationSeconds period) const {
  std::vector<DbId> due;
  EpochSeconds lo = now + k;
  EpochSeconds hi = now + k + period;
  for (auto it = resume_index_.lower_bound({lo, 0});
       it != resume_index_.end() && it->first.first < hi; ++it) {
    due.push_back(it->first.second);
  }
  return due;
}

bool MetadataStore::AnyDueForResume(EpochSeconds now, DurationSeconds k,
                                    DurationSeconds period) const {
  auto it = resume_index_.lower_bound({now + k, 0});
  return it != resume_index_.end() && it->first.first < now + k + period;
}

Result<std::vector<DbId>> MetadataStore::SelectDueForResumeSql(
    EpochSeconds now, DurationSeconds k, DurationSeconds period) const {
  if (db_ == nullptr) {
    return Status::FailedPrecondition(
        "SelectDueForResumeSql requires Backing::kSqlMirrored");
  }
  sql::Params params{{"lo", now + k}, {"hi", now + k + period}};
  PRORP_ASSIGN_OR_RETURN(sql::QueryResult r,
                         db_->ExecuteStatement(select_due_stmt_, params));
  std::vector<DbId> due;
  due.reserve(r.rows.size());
  for (const sql::Row& row : r.rows) {
    due.push_back(static_cast<DbId>(row[0]));
  }
  return due;
}

Result<std::vector<MissedResume>> MetadataStore::SelectMissedResume(
    EpochSeconds now, DurationSeconds lookback, DurationSeconds k) const {
  std::vector<MissedResume> missed;
  EpochSeconds lo = now - lookback;
  EpochSeconds hi = now + k;
  for (auto it = resume_index_.lower_bound({lo, 0});
       it != resume_index_.end() && it->first.first < hi; ++it) {
    missed.push_back({it->first.second, it->first.first});
  }
  return missed;
}

Status MetadataStore::Remove(DbId db) {
  if (journal_ != nullptr && Contains(db)) {
    JournalRecord rec;
    rec.event = JournalEvent::kMetaRemove;
    rec.epoch = epoch_;
    rec.db = db;
    PRORP_RETURN_IF_ERROR(journal_->Append(rec));
  }
  return ApplyRemove(db);
}

Status MetadataStore::ApplyRemove(DbId db) {
  if (!Contains(db)) return Status::OK();
  Entry& entry = entries_[db];
  if (entry.state == policy::DbState::kPhysicallyPaused &&
      entry.predicted_start > 0) {
    resume_index_.erase({entry.predicted_start, db});
  }
  if (db_ != nullptr) {
    sql::Params params{{"db", static_cast<int64_t>(db)}};
    PRORP_RETURN_IF_ERROR(
        db_->ExecuteStatement(delete_stmt_, params).status());
  }
  entry = Entry{};
  --live_;
  return Status::OK();
}

std::vector<MetadataStore::ExportedEntry> MetadataStore::Export() const {
  std::vector<ExportedEntry> out;
  out.reserve(live_);
  // Index order is id order, so the result is born sorted.
  for (DbId db = 0; db < entries_.size(); ++db) {
    const Entry& entry = entries_[db];
    if (!entry.present) continue;
    out.push_back({db, static_cast<int32_t>(StateCode(entry.state)),
                   entry.predicted_start});
  }
  return out;
}

}  // namespace prorp::controlplane
