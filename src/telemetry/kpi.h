#ifndef PRORP_TELEMETRY_KPI_H_
#define PRORP_TELEMETRY_KPI_H_

#include <string>

#include "common/stats.h"
#include "common/time_util.h"
#include "telemetry/events.h"
#include "telemetry/usage_ledger.h"

namespace prorp::telemetry {

/// The KPI metrics of Section 8, computed offline from telemetry.
struct KpiReport {
  // --- Quality of service ---
  /// First logins after idle intervals, split by resource availability.
  uint64_t logins_total = 0;
  uint64_t logins_available = 0;
  uint64_t logins_reactive = 0;

  /// % of first logins that found resources available (the Figure 6(a) /
  /// 7(a) metric: reactive policy 60-68%, proactive policy 80-90%).
  double QosAvailablePct() const {
    return logins_total == 0
               ? 0
               : 100.0 * static_cast<double>(logins_available) /
                     static_cast<double>(logins_total);
  }

  // --- Operational cost (percent of fleet database-time) ---
  double idle_logical_pct = 0;
  double idle_proactive_correct_pct = 0;
  double idle_proactive_wrong_pct = 0;
  double active_pct = 0;
  double reclaimed_pct = 0;
  double unavailable_pct = 0;

  /// Total idle % (Figure 6(b) / 7(b)): reactive 5-12%, proactive 7-14%.
  double IdleTotalPct() const {
    return idle_logical_pct + idle_proactive_correct_pct +
           idle_proactive_wrong_pct;
  }

  // --- Workflow volumes ---
  uint64_t logical_pauses = 0;
  uint64_t physical_pauses = 0;
  uint64_t proactive_resumes = 0;
  uint64_t forced_evictions = 0;
  uint64_t predictions = 0;

  /// One formatted row for bench output.
  std::string ToString() const;
};

/// Computes the KPI report from the event counters and a fleet time
/// breakdown (a finished ledger's fleet_total()).  A buffered event
/// log is counted first (EventCounts::FromRecorder), so full and
/// streaming telemetry modes produce bit-identical KPI reports.
KpiReport ComputeKpi(const EventCounts& counts, const TimeBreakdown& total);

/// Figures 11-12: five-number summary of the number of events of `kind`
/// per `interval`-second bucket across [start, end).  Buckets with zero
/// events count.
BoxPlot WorkflowFrequency(const Recorder& recorder, EventKind kind,
                          DurationSeconds interval, EpochSeconds start,
                          EpochSeconds end);

}  // namespace prorp::telemetry

#endif  // PRORP_TELEMETRY_KPI_H_
