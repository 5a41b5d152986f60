#include "workload/trace.h"

namespace prorp::workload {

GapStats ComputeGapStats(const std::vector<DbTrace>& traces,
                         DurationSeconds short_gap, DurationSeconds l) {
  GapStats stats;
  uint64_t short_count = 0;
  uint64_t within_l_count = 0;
  double short_duration = 0;
  for (const DbTrace& trace : traces) {
    for (size_t i = 1; i < trace.sessions.size(); ++i) {
      DurationSeconds gap =
          trace.sessions[i].start - trace.sessions[i - 1].end;
      if (gap <= 0) continue;
      ++stats.gap_count;
      stats.total_gap_seconds += static_cast<double>(gap);
      stats.gap_durations.Add(static_cast<double>(gap));
      if (gap < short_gap) {
        ++short_count;
        short_duration += static_cast<double>(gap);
      }
      if (gap < l) ++within_l_count;
    }
  }
  if (stats.gap_count > 0) {
    stats.short_gap_count_fraction =
        static_cast<double>(short_count) /
        static_cast<double>(stats.gap_count);
    stats.within_l_count_fraction =
        static_cast<double>(within_l_count) /
        static_cast<double>(stats.gap_count);
  }
  if (stats.total_gap_seconds > 0) {
    stats.short_gap_duration_fraction =
        short_duration / stats.total_gap_seconds;
  }
  return stats;
}

}  // namespace prorp::workload
