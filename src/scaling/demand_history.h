#ifndef PRORP_SCALING_DEMAND_HISTORY_H_
#define PRORP_SCALING_DEMAND_HISTORY_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/time_util.h"

namespace prorp::scaling {

/// Compute demand in fractional vCores.  The serverless SKU scales in
/// small increments (paper Section 11, future work 1); 0 means idle.
using VCores = double;

/// Compact per-database demand history: the peak demand observed in each
/// fixed time slot of each of the last `days` days.  This is the
/// auto-scaling analogue of sys.pause_resume_history — small (a few KiB:
/// days x slots doubles), aligned to the seasonality the predictor uses,
/// and pruned automatically as days roll over.
class DemandHistory {
 public:
  /// `slot_width` divides a day evenly (e.g. 30 minutes -> 48 slots).
  DemandHistory(DurationSeconds slot_width = Minutes(30), int days = 28);

  /// Records that demand reached `vcores` at time `t`.  Out-of-order
  /// samples within the retained window are folded in; samples older than
  /// the retained window are ignored.
  Status Record(EpochSeconds t, VCores vcores);

  /// The peaks of the slot containing time-of-day `slot_of(t)` across the
  /// last `days` days strictly before the day of `t`, most recent first.
  /// Days with no sample contribute 0 (idle day).
  std::vector<VCores> SlotPeaksBefore(EpochSeconds t) const;

  /// The `quantile`-th (in [0,1]) of SlotPeaksBefore(t): the demand level
  /// this slot historically needs.  0 when there is no history.
  VCores SlotQuantileBefore(EpochSeconds t, double quantile) const;

  int slots_per_day() const { return slots_per_day_; }
  int days() const { return days_; }
  DurationSeconds slot_width() const { return slot_width_; }

  /// Logical footprint in bytes (days x slots x sizeof(double)).
  uint64_t SizeBytes() const {
    return static_cast<uint64_t>(days_) * slots_per_day_ * sizeof(VCores);
  }

 private:
  /// Ensures the ring covers the day of `t`, zeroing rolled-over rows.
  void RollTo(int64_t day_index);

  VCores& Cell(int64_t day_index, int slot);
  const VCores& Cell(int64_t day_index, int slot) const;

  DurationSeconds slot_width_;
  int days_;
  int slots_per_day_;
  /// Ring buffer: row (day_index % days_) holds that day's slot peaks.
  std::vector<VCores> ring_;
  /// Which absolute day each ring row currently holds (-1 = empty).
  std::vector<int64_t> row_day_;
  int64_t latest_day_ = -1;
  int64_t first_day_ = -1;  // first day ever observed
};

}  // namespace prorp::scaling

#endif  // PRORP_SCALING_DEMAND_HISTORY_H_
