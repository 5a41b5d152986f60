#include "history/mem_history_store.h"

#include <algorithm>

namespace prorp::history {
namespace {

bool TupleTimeLess(const HistoryTuple& t, EpochSeconds time) {
  return t.time_snapshot < time;
}

}  // namespace

Status MemHistoryStore::InsertHistory(EpochSeconds time, int event_type) {
  if (event_type != kEventLogin && event_type != kEventLogout) {
    return Status::InvalidArgument("event_type must be 0 or 1");
  }
  if (tuples_.empty() || tuples_.back().time_snapshot < time) {
    tuples_.push_back({time, event_type});
    return Status::OK();
  }
  auto it = std::lower_bound(tuples_.begin(), tuples_.end(), time,
                             TupleTimeLess);
  if (it != tuples_.end() && it->time_snapshot == time) {
    return Status::OK();  // IF NOT EXISTS: keep the first writer's tuple
  }
  tuples_.insert(it, {time, event_type});
  return Status::OK();
}

Result<bool> MemHistoryStore::DeleteOldHistory(DurationSeconds h,
                                               EpochSeconds now) {
  if (h <= 0) return Status::InvalidArgument("history length must be > 0");
  if (tuples_.empty()) return false;
  EpochSeconds history_start = now - h;
  EpochSeconds min_ts = tuples_.front().time_snapshot;
  if (min_ts >= history_start) return false;
  // Keep the oldest tuple (the lifespan witness), delete everything in
  // (min_ts, history_start).
  auto first_kept =
      std::lower_bound(tuples_.begin() + 1, tuples_.end(), history_start,
                       TupleTimeLess);
  tuples_.erase(tuples_.begin() + 1, first_kept);
  return true;
}

Result<LoginRangeAgg> MemHistoryStore::LoginMinMax(EpochSeconds lo,
                                                   EpochSeconds hi) const {
  LoginRangeAgg agg;
  auto it = std::lower_bound(tuples_.begin(), tuples_.end(), lo,
                             TupleTimeLess);
  for (; it != tuples_.end() && it->time_snapshot < hi; ++it) {
    if (it->event_type != kEventLogin) continue;
    if (!agg.any) {
      agg.any = true;
      agg.first_login = it->time_snapshot;
    }
    agg.last_login = it->time_snapshot;
  }
  return agg;
}

Result<std::vector<EpochSeconds>> MemHistoryStore::CollectLogins(
    EpochSeconds lo, EpochSeconds hi) const {
  auto first = std::lower_bound(tuples_.begin(), tuples_.end(), lo,
                                TupleTimeLess);
  auto last = std::lower_bound(first, tuples_.end(), hi, TupleTimeLess);
  std::vector<EpochSeconds> out;
  out.reserve(static_cast<size_t>(last - first));
  for (auto it = first; it != last; ++it) {
    if (it->event_type == kEventLogin) out.push_back(it->time_snapshot);
  }
  return out;
}

Result<std::vector<HistoryTuple>> MemHistoryStore::ReadAll() const {
  return tuples_;
}

Result<EpochSeconds> MemHistoryStore::MinTimestamp() const {
  if (tuples_.empty()) return Status::NotFound("history is empty");
  return tuples_.front().time_snapshot;
}

}  // namespace prorp::history
