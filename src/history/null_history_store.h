#ifndef PRORP_HISTORY_NULL_HISTORY_STORE_H_
#define PRORP_HISTORY_NULL_HISTORY_STORE_H_

#include "history/history_store.h"

namespace prorp::history {

/// A history store that remembers nothing.  For reactive-policy scale
/// runs the store is write-only: the lifecycle controller inserts an
/// activity-boundary tuple per login/logout but only ever reads history
/// through RefreshPrediction, which is gated on the proactive mode.
/// Dropping the writes is therefore behavior-neutral (the differential
/// test pins this) and removes the O(events) memory that would otherwise
/// dwarf a million-database fleet's working set.
///
/// Stateless, so a single instance can serve every database in a fleet.
/// Reads answer "no history": prediction-dependent policies must not be
/// configured with this store (the simulator rejects that combination).
class NullHistoryStore final : public HistoryStore {
 public:
  Status InsertHistory(EpochSeconds, int) override { return Status::OK(); }

  Result<bool> DeleteOldHistory(DurationSeconds, EpochSeconds) override {
    return false;  // never enough lifespan for a reliable prediction
  }

  Result<LoginRangeAgg> LoginMinMax(EpochSeconds, EpochSeconds)
      const override {
    return LoginRangeAgg{};
  }

  Result<std::vector<EpochSeconds>> CollectLogins(EpochSeconds, EpochSeconds)
      const override {
    return std::vector<EpochSeconds>{};
  }

  Result<std::vector<HistoryTuple>> ReadAll() const override {
    return std::vector<HistoryTuple>{};
  }

  Result<EpochSeconds> MinTimestamp() const override {
    return Status::NotFound("null history store is empty");
  }

  uint64_t NumTuples() const override { return 0; }
};

}  // namespace prorp::history

#endif  // PRORP_HISTORY_NULL_HISTORY_STORE_H_
