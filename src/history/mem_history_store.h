#ifndef PRORP_HISTORY_MEM_HISTORY_STORE_H_
#define PRORP_HISTORY_MEM_HISTORY_STORE_H_

#include <cstdint>
#include <vector>

#include "history/history_store.h"

namespace prorp::history {

/// In-memory history store with the same semantics as SqlHistoryStore.
/// The fleet simulator instantiates one of these per database (hundreds
/// of thousands), which is why it exists.
///
/// Layout: logins and logouts each live in their own ascending array of
/// timestamps (8 bytes per tuple, no event-type field or padding), so the
/// logins the predictor reads are contiguous and ReadLogins hands them
/// out in place.  Timestamps are unique across both arrays.  Inserts are
/// append-mostly (timestamps arrive in order), so the common path is an
/// O(1) amortized append that reads neither array; out-of-order inserts
/// fall back to binary-search insertion.
///
/// Retention: each array's live elements start at a head index.
/// DeleteOldHistory advances the heads past the deleted tuples and copies
/// the lifespan witness into the slot just before its array's first kept
/// element, which keeps the array sorted at O(1) cost beyond the search
/// for the cut (a galloping search from the head, O(log k) for k deleted
/// tuples).  The dead prefix is compacted away only when an append would
/// otherwise grow the array, and only once it is a quarter of it, so
/// compaction is amortized O(1) per tuple.
///
/// Property tests in tests/history assert that MemHistoryStore and
/// SqlHistoryStore produce identical observable behaviour.
class MemHistoryStore : public HistoryStore {
 public:
  MemHistoryStore() = default;

  Status InsertHistory(EpochSeconds time, int event_type) override;
  Result<bool> DeleteOldHistory(DurationSeconds h, EpochSeconds now) override;
  Result<LoginRangeAgg> LoginMinMax(EpochSeconds lo,
                                    EpochSeconds hi) const override;
  Result<std::vector<EpochSeconds>> CollectLogins(
      EpochSeconds lo, EpochSeconds hi) const override;
  Result<std::span<const EpochSeconds>> ReadLogins(
      EpochSeconds lo, EpochSeconds hi,
      std::vector<EpochSeconds>* scratch) const override;
  Result<std::vector<HistoryTuple>> ReadAll() const override;
  Result<EpochSeconds> MinTimestamp() const override;
  uint64_t NumTuples() const override {
    return logins_.live().size() + logouts_.live().size();
  }

 private:
  /// One event type's timestamps: ascending, unique, live from `head`.
  struct Column {
    std::vector<EpochSeconds> times;
    size_t head = 0;

    std::span<const EpochSeconds> live() const {
      return std::span<const EpochSeconds>(times).subspan(head);
    }
    /// Live timestamps in [lo, hi).
    std::span<const EpochSeconds> Range(EpochSeconds lo,
                                        EpochSeconds hi) const;
    bool Contains(EpochSeconds time) const;
    void Insert(EpochSeconds time);
    /// Drops the live timestamps before `history_start`; with
    /// `keep_first`, the oldest live one survives as the lifespan witness.
    void DropBefore(EpochSeconds history_start, bool keep_first);
  };

  Column logins_;
  Column logouts_;
  /// At least every live timestamp (retention never lowers it), so an
  /// insert above it appends without looking anything up.
  EpochSeconds newest_ = INT64_MIN;
};

}  // namespace prorp::history

#endif  // PRORP_HISTORY_MEM_HISTORY_STORE_H_
