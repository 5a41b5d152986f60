#include "telemetry/kpi.h"

#include <cstdio>
#include <vector>

namespace prorp::telemetry {

std::string KpiReport::ToString() const {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "QoS avail=%5.1f%% (n=%llu)  idle: logical=%4.1f%% "
      "pro_ok=%4.1f%% pro_wrong=%4.1f%% total=%4.1f%%  active=%4.1f%% "
      "saved=%4.1f%% unavail=%5.2f%%",
      QosAvailablePct(), static_cast<unsigned long long>(logins_total),
      idle_logical_pct, idle_proactive_correct_pct,
      idle_proactive_wrong_pct, IdleTotalPct(), active_pct, reclaimed_pct,
      unavailable_pct);
  return buf;
}

KpiReport ComputeKpi(const EventCounts& counts, const TimeBreakdown& t) {
  KpiReport report;
  report.logins_available = counts.Count(EventKind::kLoginAvailable);
  report.logins_reactive = counts.Count(EventKind::kLoginReactive);
  report.logical_pauses = counts.Count(EventKind::kLogicalPause);
  report.physical_pauses = counts.Count(EventKind::kPhysicalPause);
  report.proactive_resumes = counts.Count(EventKind::kProactiveResume);
  report.forced_evictions = counts.Count(EventKind::kForcedEviction);
  report.predictions = counts.Count(EventKind::kPrediction);
  report.logins_total = report.logins_available + report.logins_reactive;

  double total = t.Total();
  if (total > 0) {
    report.idle_logical_pct = 100.0 * t.idle_logical / total;
    report.idle_proactive_correct_pct =
        100.0 * t.idle_proactive_correct / total;
    report.idle_proactive_wrong_pct = 100.0 * t.idle_proactive_wrong / total;
    report.active_pct = 100.0 * t.active / total;
    report.reclaimed_pct = 100.0 * t.reclaimed / total;
    report.unavailable_pct = 100.0 * t.unavailable / total;
  }
  return report;
}

BoxPlot WorkflowFrequency(const Recorder& recorder, EventKind kind,
                          DurationSeconds interval, EpochSeconds start,
                          EpochSeconds end) {
  if (interval <= 0 || end <= start) return BoxPlot{};
  size_t buckets = static_cast<size_t>((end - start + interval - 1) /
                                       interval);
  std::vector<double> counts(buckets, 0);
  for (const FleetEvent& e : recorder.events()) {
    if (e.kind != kind || e.time < start || e.time >= end) continue;
    counts[static_cast<size_t>((e.time - start) / interval)] += 1;
  }
  Summary summary;
  summary.AddAll(counts);
  return summary.ToBoxPlot();
}

}  // namespace prorp::telemetry
