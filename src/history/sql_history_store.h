#ifndef PRORP_HISTORY_SQL_HISTORY_STORE_H_
#define PRORP_HISTORY_SQL_HISTORY_STORE_H_

#include <memory>
#include <string>

#include "history/history_store.h"
#include "sql/ast.h"
#include "sql/database.h"

namespace prorp::history {

/// The faithful history store: sys.pause_resume_history lives as a real
/// SQL table inside the (simulated) database itself, exactly as the paper
/// mandates — clustered B+tree index on time_snapshot, SQL interface,
/// durability via the storage engine's WAL + snapshots, and backup/restore
/// for cross-node moves.
///
/// Algorithms 2 and 3 execute as SQL statement sequences; statements are
/// parsed once and cached, mirroring stored-procedure compilation.
class SqlHistoryStore : public HistoryStore {
 public:
  /// `dir` empty => ephemeral (unit tests / simulation).  Otherwise the
  /// table persists under dir and reopening recovers it.  `tuning`, when
  /// given, supplies the storage knobs (checkpoint threshold, fsync
  /// policy, fault plan) for the underlying table — crash-torture tests
  /// use it to run the full SQL stack over a faulty disk.
  static Result<std::unique_ptr<SqlHistoryStore>> Open(
      const std::string& dir = "",
      const storage::DurableTree::Options* tuning = nullptr);

  Status InsertHistory(EpochSeconds time, int event_type) override;
  Result<bool> DeleteOldHistory(DurationSeconds h, EpochSeconds now) override;
  Result<LoginRangeAgg> LoginMinMax(EpochSeconds lo,
                                    EpochSeconds hi) const override;
  Result<std::vector<EpochSeconds>> CollectLogins(
      EpochSeconds lo, EpochSeconds hi) const override;
  Result<std::vector<HistoryTuple>> ReadAll() const override;
  Result<EpochSeconds> MinTimestamp() const override;
  uint64_t NumTuples() const override;

  /// The embedded SQL database (exposed for tests and the latency bench).
  sql::Database* database() { return db_.get(); }
  const sql::Database* database() const { return db_.get(); }

  /// Detect / repair / quarantine counters of the history table's tree.
  storage::IntegrityStats integrity_stats() const;

 private:
  SqlHistoryStore() = default;

  Status Prepare();

  // Mutable: SELECT execution goes through the same statement executor as
  // mutations, and the buffer pool underneath caches pages on reads.
  mutable std::unique_ptr<sql::Database> db_;
  // Cached parsed statements ("compiled stored procedures").
  sql::Statement exists_stmt_;
  sql::Statement insert_stmt_;
  sql::Statement min_ts_stmt_;
  sql::Statement delete_old_stmt_;
  sql::Statement login_minmax_stmt_;
  sql::Statement collect_logins_stmt_;
  sql::Statement read_all_stmt_;
  sql::Statement count_stmt_;
};

}  // namespace prorp::history

#endif  // PRORP_HISTORY_SQL_HISTORY_STORE_H_
