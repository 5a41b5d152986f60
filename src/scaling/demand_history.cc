#include "scaling/demand_history.h"

#include <algorithm>
#include <cmath>

namespace prorp::scaling {

DemandHistory::DemandHistory(DurationSeconds slot_width, int days)
    : slot_width_(slot_width), days_(days) {
  if (slot_width_ <= 0 || kSecondsPerDay % slot_width_ != 0) {
    slot_width_ = Minutes(30);
  }
  if (days_ <= 0) days_ = 28;
  slots_per_day_ = static_cast<int>(kSecondsPerDay / slot_width_);
  ring_.assign(static_cast<size_t>(days_) * slots_per_day_, 0.0);
  row_day_.assign(days_, -1);
}

VCores& DemandHistory::Cell(int64_t day_index, int slot) {
  return ring_[static_cast<size_t>(day_index % days_) * slots_per_day_ +
               slot];
}

const VCores& DemandHistory::Cell(int64_t day_index, int slot) const {
  return ring_[static_cast<size_t>(day_index % days_) * slots_per_day_ +
               slot];
}

void DemandHistory::RollTo(int64_t day_index) {
  if (day_index <= latest_day_) return;
  // Zero every row that now holds a different day.
  int64_t first_new = std::max(latest_day_ + 1, day_index - days_ + 1);
  for (int64_t d = first_new; d <= day_index; ++d) {
    size_t row = static_cast<size_t>(d % days_);
    std::fill(ring_.begin() + row * slots_per_day_,
              ring_.begin() + (row + 1) * slots_per_day_, 0.0);
    row_day_[row] = d;
  }
  latest_day_ = day_index;
}

Status DemandHistory::Record(EpochSeconds t, VCores vcores) {
  if (vcores < 0 || !std::isfinite(vcores)) {
    return Status::InvalidArgument("demand must be a finite non-negative "
                                   "vCore count");
  }
  int64_t day = DayIndex(t);
  if (latest_day_ >= 0 && day <= latest_day_ - days_) {
    return Status::OK();  // older than the retained window: ignored
  }
  if (first_day_ < 0 || day < first_day_) first_day_ = day;
  RollTo(day);
  if (row_day_[day % days_] != day) return Status::OK();  // rolled away
  int slot = static_cast<int>(SecondsIntoDay(t) / slot_width_);
  VCores& cell = Cell(day, slot);
  cell = std::max(cell, vcores);
  return Status::OK();
}

std::vector<VCores> DemandHistory::SlotPeaksBefore(EpochSeconds t) const {
  std::vector<VCores> peaks;
  peaks.reserve(days_);
  int64_t today = DayIndex(t);
  int slot = static_cast<int>(SecondsIntoDay(t) / slot_width_);
  for (int64_t d = today - 1; d > today - 1 - days_; --d) {
    // Days before the first observation are unknown, not idle: they must
    // not dilute the quantile of a young database.
    if (d < 0 || first_day_ < 0 || d < first_day_) break;
    size_t row = static_cast<size_t>(d % days_);
    peaks.push_back(row_day_[row] == d ? Cell(d, slot) : 0.0);
  }
  return peaks;
}

VCores DemandHistory::SlotQuantileBefore(EpochSeconds t,
                                         double quantile) const {
  std::vector<VCores> peaks = SlotPeaksBefore(t);
  if (peaks.empty()) return 0;
  std::sort(peaks.begin(), peaks.end());
  quantile = std::clamp(quantile, 0.0, 1.0);
  double rank = quantile * static_cast<double>(peaks.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = static_cast<size_t>(std::ceil(rank));
  double frac = rank - static_cast<double>(lo);
  return peaks[lo] + (peaks[hi] - peaks[lo]) * frac;
}

}  // namespace prorp::scaling
