#ifndef PRORP_HISTORY_HISTORY_STORE_H_
#define PRORP_HISTORY_HISTORY_STORE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/time_util.h"

namespace prorp::history {

/// One tuple of sys.pause_resume_history (paper Section 5): the epoch time
/// of a customer-activity boundary and its type.
struct HistoryTuple {
  EpochSeconds time_snapshot = 0;
  /// 1 = start of customer activity (login), 0 = end of activity.
  int event_type = 0;

  friend bool operator==(const HistoryTuple&, const HistoryTuple&) = default;
};

inline constexpr int kEventLogin = 1;
inline constexpr int kEventLogout = 0;

/// Aggregate of the range query in Algorithm 4 lines 19-24: MIN/MAX of
/// login timestamps within a window on a previous season.
struct LoginRangeAgg {
  bool any = false;          // "@firstLogin IS NOT NULL"
  EpochSeconds first_login = 0;
  EpochSeconds last_login = 0;
};

/// Size of one history tuple: two 64-bit integers (Section 9.3), which is
/// how the paper derives "500 tuples ~ 7 KB".
inline constexpr uint64_t kTupleBytes = 16;

/// Per-database customer-activity history store.
///
/// Two implementations share this contract:
///  * SqlHistoryStore — the faithful one: an actual SQL table with a
///    clustered B+tree on time_snapshot; Algorithms 2 and 3 are executed
///    as SQL statements (this is what the overhead evaluation measures);
///  * MemHistoryStore — an equivalent in-memory store (one ascending
///    array of logins, one of logouts) used by the fleet simulator,
///    cross-checked against the SQL one by property tests.
class HistoryStore {
 public:
  virtual ~HistoryStore() = default;

  /// Algorithm 2 (sys.InsertHistory): inserts (time, type) unless a tuple
  /// with this timestamp already exists; the insert is idempotent because
  /// timestamps are unique by construction.
  virtual Status InsertHistory(EpochSeconds time, int event_type) = 0;

  /// Algorithm 3 (sys.DeleteOldHistory): deletes all tuples strictly
  /// between the oldest tuple and `now - h`, keeping the oldest tuple as
  /// the database lifespan witness.  Returns `old`: whether the database
  /// existed before the start of recent history (i.e. has at least h of
  /// lifespan and thus enough history for a reliable prediction).
  virtual Result<bool> DeleteOldHistory(DurationSeconds h,
                                        EpochSeconds now) = 0;

  /// Algorithm 4's inner range query: MIN/MAX login timestamps with
  /// event_type = 1 in the half-open range [lo, hi).  The upper bound is
  /// exclusive so a login exactly on a sliding-window boundary belongs
  /// to exactly one window — an inclusive bound double-counts it in two
  /// adjacent windows and inflates seasons_with_activity.
  virtual Result<LoginRangeAgg> LoginMinMax(EpochSeconds lo,
                                            EpochSeconds hi) const = 0;

  /// All login timestamps in [lo, hi), ascending (the fast predictor's
  /// bulk read; one range scan instead of one query per window).
  virtual Result<std::vector<EpochSeconds>> CollectLogins(
      EpochSeconds lo, EpochSeconds hi) const = 0;

  /// The logins of CollectLogins(lo, hi) as a view, valid until the next
  /// mutation of this store or of `*scratch`.  A store whose logins are
  /// contiguous points into its own array and leaves `*scratch` alone;
  /// this default fills `*scratch` through CollectLogins, so it is one
  /// history read either way.
  virtual Result<std::span<const EpochSeconds>> ReadLogins(
      EpochSeconds lo, EpochSeconds hi,
      std::vector<EpochSeconds>* scratch) const {
    PRORP_ASSIGN_OR_RETURN(*scratch, CollectLogins(lo, hi));
    return std::span<const EpochSeconds>(*scratch);
  }

  /// Full contents in timestamp order (tests, debugging, the customer
  /// materialized view).
  virtual Result<std::vector<HistoryTuple>> ReadAll() const = 0;

  /// Oldest timestamp; NotFound when empty.
  virtual Result<EpochSeconds> MinTimestamp() const = 0;

  /// Number of stored tuples (Figure 10(a) metric).
  virtual uint64_t NumTuples() const = 0;

  /// Logical size in bytes = NumTuples() * 16 (Figure 10(b) metric).
  uint64_t SizeBytes() const { return NumTuples() * kTupleBytes; }
};

/// Renders the customer-facing materialized view over the history
/// (Section 5): human-readable timestamps and event names, read-only.
std::string FormatHistoryView(const std::vector<HistoryTuple>& tuples);

}  // namespace prorp::history

#endif  // PRORP_HISTORY_HISTORY_STORE_H_
