#ifndef PRORP_WORKLOAD_TRACE_H_
#define PRORP_WORKLOAD_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/time_util.h"

namespace prorp::workload {

/// One interval of customer activity: demand D(d, t) = 1 for
/// t in [start, end).
struct Session {
  EpochSeconds start = 0;
  EpochSeconds end = 0;

  DurationSeconds duration() const { return end - start; }
  friend bool operator==(const Session&, const Session&) = default;
};

/// Customer usage archetypes observed in the fleet (Section 1, Challenge 1:
/// "databases with stable usage, databases that follow a weekly or a daily
/// pattern, and databases that have short unpredictable spikes").
enum class PatternType : uint8_t {
  kDailyBusiness,  // weekday business hours with intraday breaks
  kDaily,          // a fixed daily window, 7 days a week
  kWeekly,         // one or two fixed weekdays
  kAlwaysBusy,     // near-continuous usage with short gaps
  kSporadic,       // Poisson sessions, days apart; unpredictable
  kBursty,         // rare days with dozens of short sessions
  kDevTest,        // occasional short workday sessions
};

/// The activity trace of one simulated database.
struct DbTrace {
  uint32_t db_id = 0;
  PatternType pattern = PatternType::kSporadic;
  /// Creation time of the database (its first login).
  EpochSeconds created_at = 0;
  /// Non-overlapping sessions, ascending, all within the generation
  /// window, first session starting at created_at.
  std::vector<Session> sessions;
};

/// Idle-gap fragmentation statistics (Figure 3): the distribution of idle
/// intervals between consecutive sessions, by count and by total duration.
struct GapStats {
  uint64_t gap_count = 0;
  double total_gap_seconds = 0;
  /// Fraction of idle intervals shorter than one hour (paper: ~72%).
  double short_gap_count_fraction = 0;
  /// Their share of the total idle duration (paper: ~5%).
  double short_gap_duration_fraction = 0;
  /// Fraction of idle intervals within the logical pause duration l = 7 h
  /// (bounds the reactive policy's best-case QoS).
  double within_l_count_fraction = 0;
  Summary gap_durations;  // seconds; for CDF printing
};

GapStats ComputeGapStats(const std::vector<DbTrace>& traces,
                         DurationSeconds short_gap = Hours(1),
                         DurationSeconds l = Hours(7));

}  // namespace prorp::workload

#endif  // PRORP_WORKLOAD_TRACE_H_
