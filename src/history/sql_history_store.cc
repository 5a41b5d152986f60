#include "history/sql_history_store.h"

#include "sql/parser.h"

namespace prorp::history {

namespace {
constexpr const char kHistoryTable[] = "sys.pause_resume_history";
}  // namespace

Result<std::unique_ptr<SqlHistoryStore>> SqlHistoryStore::Open(
    const std::string& dir, const storage::DurableTree::Options* tuning) {
  std::unique_ptr<SqlHistoryStore> store(new SqlHistoryStore());
  store->db_ = std::make_unique<sql::Database>(dir);
  if (tuning != nullptr) store->db_->set_storage_tuning(*tuning);
  PRORP_RETURN_IF_ERROR(store->Prepare());
  return store;
}

Status SqlHistoryStore::Prepare() {
  // Schema of Section 5: unique integer epoch timestamps (clustered
  // B+tree primary key) and a binary event type.
  PRORP_RETURN_IF_ERROR(
      db_->Execute("CREATE TABLE sys.pause_resume_history ("
                   "time_snapshot BIGINT PRIMARY KEY, event_type INT)")
          .status());

  // Algorithm 2 lines 3-5: IF NOT EXISTS (...) guard.
  PRORP_ASSIGN_OR_RETURN(
      exists_stmt_,
      sql::Parse("SELECT COUNT(*) FROM sys.pause_resume_history "
                 "WHERE time_snapshot = @time"));
  // Algorithm 2 lines 6-9.
  PRORP_ASSIGN_OR_RETURN(
      insert_stmt_,
      sql::Parse("INSERT INTO sys.pause_resume_history "
                 "(time_snapshot, event_type) VALUES (@time, @type)"));
  // Algorithm 3 lines 4-5.
  PRORP_ASSIGN_OR_RETURN(
      min_ts_stmt_, sql::Parse("SELECT MIN(time_snapshot) FROM "
                               "sys.pause_resume_history"));
  // Algorithm 3 lines 8-10: keep the oldest tuple, delete everything else
  // older than the start of recent history.
  PRORP_ASSIGN_OR_RETURN(
      delete_old_stmt_,
      sql::Parse("DELETE FROM sys.pause_resume_history "
                 "WHERE @minTimestamp < time_snapshot AND "
                 "time_snapshot < @historyStart"));
  // Algorithm 4 lines 19-24.
  PRORP_ASSIGN_OR_RETURN(
      login_minmax_stmt_,
      sql::Parse("SELECT MIN(time_snapshot), MAX(time_snapshot) "
                 "FROM sys.pause_resume_history "
                 "WHERE event_type = 1 AND "
                 "@winStartPrevDay <= time_snapshot AND "
                 "time_snapshot < @winEndPrevDay"));
  PRORP_ASSIGN_OR_RETURN(
      collect_logins_stmt_,
      sql::Parse("SELECT time_snapshot FROM sys.pause_resume_history "
                 "WHERE event_type = 1 AND "
                 "@lo <= time_snapshot AND time_snapshot < @hi"));
  PRORP_ASSIGN_OR_RETURN(
      read_all_stmt_,
      sql::Parse("SELECT time_snapshot, event_type FROM "
                 "sys.pause_resume_history ORDER BY time_snapshot"));
  PRORP_ASSIGN_OR_RETURN(count_stmt_,
                         sql::Parse("SELECT COUNT(*) FROM "
                                    "sys.pause_resume_history"));
  return Status::OK();
}

Status SqlHistoryStore::InsertHistory(EpochSeconds time, int event_type) {
  if (event_type != kEventLogin && event_type != kEventLogout) {
    return Status::InvalidArgument("event_type must be 0 or 1");
  }
  sql::Params params{{"time", time}, {"type", event_type}};
  PRORP_ASSIGN_OR_RETURN(sql::QueryResult exists,
                         db_->ExecuteStatement(exists_stmt_, params));
  if (exists.rows[0][0] != 0) return Status::OK();  // IF NOT EXISTS
  return db_->ExecuteStatement(insert_stmt_, params).status();
}

Result<bool> SqlHistoryStore::DeleteOldHistory(DurationSeconds h,
                                               EpochSeconds now) {
  if (h <= 0) return Status::InvalidArgument("history length must be > 0");
  // Line 3: @historyStart = @now - @h (h is already in seconds here;
  // the paper multiplies out @h*24*60*60 from days).
  EpochSeconds history_start = now - h;
  // Lines 4-5.
  PRORP_ASSIGN_OR_RETURN(sql::QueryResult min_row,
                         db_->ExecuteStatement(min_ts_stmt_, {}));
  sql::NullableValue min_ts = min_row.Cell();
  if (min_ts.is_null) return false;  // empty history: not old
  // Lines 6-11.
  if (min_ts.value < history_start) {
    sql::Params params{{"minTimestamp", min_ts.value},
                       {"historyStart", history_start}};
    PRORP_RETURN_IF_ERROR(
        db_->ExecuteStatement(delete_old_stmt_, params).status());
    return true;
  }
  return false;
}

Result<LoginRangeAgg> SqlHistoryStore::LoginMinMax(EpochSeconds lo,
                                                   EpochSeconds hi) const {
  sql::Params params{{"winStartPrevDay", lo}, {"winEndPrevDay", hi}};
  PRORP_ASSIGN_OR_RETURN(
      sql::QueryResult r,
      db_->ExecuteStatement(login_minmax_stmt_, params));
  LoginRangeAgg agg;
  if (!r.nulls.empty() && !r.nulls[0]) {
    agg.any = true;
    agg.first_login = r.rows[0][0];
    agg.last_login = r.rows[0][1];
  }
  return agg;
}

Result<std::vector<EpochSeconds>> SqlHistoryStore::CollectLogins(
    EpochSeconds lo, EpochSeconds hi) const {
  sql::Params params{{"lo", lo}, {"hi", hi}};
  PRORP_ASSIGN_OR_RETURN(
      sql::QueryResult r,
      db_->ExecuteStatement(collect_logins_stmt_, params));
  std::vector<EpochSeconds> out;
  out.reserve(r.rows.size());
  for (const sql::Row& row : r.rows) out.push_back(row[0]);
  return out;
}

Result<std::vector<HistoryTuple>> SqlHistoryStore::ReadAll() const {
  PRORP_ASSIGN_OR_RETURN(
      sql::QueryResult r,
      db_->ExecuteStatement(read_all_stmt_, {}));
  std::vector<HistoryTuple> out;
  out.reserve(r.rows.size());
  for (const sql::Row& row : r.rows) {
    out.push_back({row[0], static_cast<int>(row[1])});
  }
  return out;
}

Result<EpochSeconds> SqlHistoryStore::MinTimestamp() const {
  PRORP_ASSIGN_OR_RETURN(sql::QueryResult r,
                         db_->ExecuteStatement(min_ts_stmt_, {}));
  sql::NullableValue v = r.Cell();
  if (v.is_null) return Status::NotFound("history is empty");
  return v.value;
}

storage::IntegrityStats SqlHistoryStore::integrity_stats() const {
  auto table = db_->GetTable(kHistoryTable);
  if (!table.ok()) return {};
  return (*table)->durable_tree()->integrity_stats();
}

uint64_t SqlHistoryStore::NumTuples() const {
  auto r = db_->ExecuteStatement(count_stmt_, {});
  if (!r.ok()) return 0;
  return static_cast<uint64_t>(r->rows[0][0]);
}

std::string FormatHistoryView(const std::vector<HistoryTuple>& tuples) {
  std::string out = "activity_time          event\n";
  for (const HistoryTuple& t : tuples) {
    out += FormatTimestamp(t.time_snapshot);
    out += (t.event_type == kEventLogin) ? "    activity_start\n"
                                         : "    activity_end\n";
  }
  return out;
}

}  // namespace prorp::history
