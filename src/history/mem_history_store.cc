#include "history/mem_history_store.h"

#include <algorithm>

namespace prorp::history {
namespace {

/// std::lower_bound for a `value` that usually lies near `first`: probes
/// first[1], first[2], first[4], ... and binary-searches the last
/// doubling, so a target k elements in costs O(log k) and touches only
/// the cache lines near `first`.  Retention cuts and the predictor's
/// read both start at the oldest kept tuple.
template <typename It>
It GallopLowerBound(It first, It last, EpochSeconds value) {
  const ptrdiff_t n = last - first;
  ptrdiff_t hi = 1;
  while (hi < n && first[hi] < value) hi *= 2;
  return std::lower_bound(first + hi / 2, first + std::min(hi + 1, n), value);
}

}  // namespace

std::span<const EpochSeconds> MemHistoryStore::Column::Range(
    EpochSeconds lo, EpochSeconds hi) const {
  std::span<const EpochSeconds> all = live();
  auto first = GallopLowerBound(all.begin(), all.end(), lo);
  // The predictor's reads end at or after the newest login.
  auto last = all.empty() || all.back() < hi
                  ? all.end()
                  : std::lower_bound(first, all.end(), hi);
  return {first, last};
}

bool MemHistoryStore::Column::Contains(EpochSeconds time) const {
  std::span<const EpochSeconds> all = live();
  return std::binary_search(all.begin(), all.end(), time);
}

void MemHistoryStore::Column::Insert(EpochSeconds time) {
  // Reclaim the dead prefix instead of growing, once it is worth a move.
  if (head > 0 && times.size() == times.capacity() &&
      head >= times.size() / 4) {
    times.erase(times.begin(), times.begin() + static_cast<ptrdiff_t>(head));
    head = 0;
  }
  if (times.size() == head || times.back() < time) {
    times.push_back(time);
    return;
  }
  times.insert(std::lower_bound(times.begin() + static_cast<ptrdiff_t>(head),
                                times.end(), time),
               time);
}

void MemHistoryStore::Column::DropBefore(EpochSeconds history_start,
                                         bool keep_first) {
  const auto first = times.begin() + static_cast<ptrdiff_t>(head);
  const auto kept = GallopLowerBound(keep_first ? first + 1 : first,
                                    times.end(), history_start);
  if (!keep_first) {
    head = static_cast<size_t>(kept - times.begin());
    return;
  }
  // The witness moves next to the first kept timestamp: everything
  // between them is deleted, so the live range stays ascending.
  *(kept - 1) = *first;
  head = static_cast<size_t>(kept - times.begin()) - 1;
}

Status MemHistoryStore::InsertHistory(EpochSeconds time, int event_type) {
  if (event_type != kEventLogin && event_type != kEventLogout) {
    return Status::InvalidArgument("event_type must be 0 or 1");
  }
  Column& column = event_type == kEventLogin ? logins_ : logouts_;
  if (time > newest_) {  // the common case: nothing to look up
    newest_ = time;
    column.Insert(time);
    return Status::OK();
  }
  if (logins_.Contains(time) || logouts_.Contains(time)) {
    return Status::OK();  // IF NOT EXISTS: keep the first writer's tuple
  }
  column.Insert(time);
  return Status::OK();
}

Result<bool> MemHistoryStore::DeleteOldHistory(DurationSeconds h,
                                               EpochSeconds now) {
  if (h <= 0) return Status::InvalidArgument("history length must be > 0");
  Result<EpochSeconds> min_ts = MinTimestamp();
  if (!min_ts.ok()) return false;
  EpochSeconds history_start = now - h;
  if (*min_ts >= history_start) return false;
  // Keep the oldest tuple (the lifespan witness), delete everything in
  // (min_ts, history_start).
  const bool witness_is_login =
      !logins_.live().empty() && logins_.live().front() == *min_ts;
  logins_.DropBefore(history_start, witness_is_login);
  logouts_.DropBefore(history_start, !witness_is_login);
  return true;
}

Result<LoginRangeAgg> MemHistoryStore::LoginMinMax(EpochSeconds lo,
                                                   EpochSeconds hi) const {
  std::span<const EpochSeconds> range = logins_.Range(lo, hi);
  if (range.empty()) return LoginRangeAgg{};
  return LoginRangeAgg{true, range.front(), range.back()};
}

Result<std::vector<EpochSeconds>> MemHistoryStore::CollectLogins(
    EpochSeconds lo, EpochSeconds hi) const {
  std::span<const EpochSeconds> range = logins_.Range(lo, hi);
  return std::vector<EpochSeconds>(range.begin(), range.end());
}

Result<std::span<const EpochSeconds>> MemHistoryStore::ReadLogins(
    EpochSeconds lo, EpochSeconds hi, std::vector<EpochSeconds>*) const {
  return logins_.Range(lo, hi);
}

Result<std::vector<HistoryTuple>> MemHistoryStore::ReadAll() const {
  std::span<const EpochSeconds> in = logins_.live();
  std::span<const EpochSeconds> out = logouts_.live();
  std::vector<HistoryTuple> all;
  all.reserve(in.size() + out.size());
  size_t i = 0;
  size_t o = 0;
  while (i < in.size() || o < out.size()) {
    if (o == out.size() || (i < in.size() && in[i] < out[o])) {
      all.push_back({in[i++], kEventLogin});
    } else {
      all.push_back({out[o++], kEventLogout});
    }
  }
  return all;
}

Result<EpochSeconds> MemHistoryStore::MinTimestamp() const {
  std::span<const EpochSeconds> in = logins_.live();
  std::span<const EpochSeconds> out = logouts_.live();
  if (in.empty() && out.empty()) return Status::NotFound("history is empty");
  if (in.empty()) return out.front();
  if (out.empty()) return in.front();
  return std::min(in.front(), out.front());
}

}  // namespace prorp::history
