#include "maintenance/scheduler.h"

#include <algorithm>

#include "history/mem_history_store.h"

namespace prorp::maintenance {

Result<EpochSeconds> FixedHourScheduler::Schedule(
    const MaintenanceOp& op, const history::HistoryStore&) {
  if (op.window_end - op.window_start < op.duration) {
    return Status::InvalidArgument("maintenance window too small");
  }
  // The fixed hour on the window's first day, clamped into the window.
  EpochSeconds candidate = StartOfDay(op.window_start) + hour_of_day_;
  if (candidate < op.window_start) candidate += Days(1);
  return std::clamp(candidate, op.window_start,
                    op.window_end - op.duration);
}

Result<EpochSeconds> PredictionAlignedScheduler::Schedule(
    const MaintenanceOp& op, const history::HistoryStore& history) {
  if (op.window_end - op.window_start < op.duration) {
    return Status::InvalidArgument("maintenance window too small");
  }
  if (predictor_ != nullptr) {
    auto pred = predictor_->PredictNextActivity(history, op.window_start);
    if (pred.ok() && pred->HasPrediction() &&
        pred->start + op.duration <= op.window_end) {
      // Aim one third into the predicted window: late enough that the
      // customer login has (probabilistically) happened, early enough to
      // fit before the window closes.
      EpochSeconds third =
          pred->start + std::max<DurationSeconds>(
                            (pred->end - pred->start) / 3, Minutes(10));
      EpochSeconds start = std::clamp(third, op.window_start,
                                      op.window_end - op.duration);
      if (start + op.duration <= op.window_end) return start;
    }
    // Prediction unavailable or does not fit: fall back below.
  }
  return fallback_.Schedule(op, history);
}

Result<MaintenanceReport> ReplayMaintenance(const workload::DbTrace& trace,
                                            MaintenanceScheduler& scheduler,
                                            EpochSeconds from,
                                            EpochSeconds to,
                                            DurationSeconds op_duration) {
  if (to <= from) return Status::InvalidArgument("empty replay window");
  MaintenanceReport report;
  // History accumulates as the replay progresses; sessions are folded in
  // day by day so the scheduler only sees the past.
  history::MemHistoryStore history;
  size_t next_session = 0;

  for (EpochSeconds day = StartOfDay(from); day < to; day += Days(1)) {
    // Fold in all sessions that completed before this day.
    while (next_session < trace.sessions.size() &&
           trace.sessions[next_session].end <= day) {
      const workload::Session& s = trace.sessions[next_session];
      PRORP_RETURN_IF_ERROR(
          history.InsertHistory(s.start, history::kEventLogin));
      PRORP_RETURN_IF_ERROR(
          history.InsertHistory(s.end, history::kEventLogout));
      ++next_session;
    }
    (void)history.DeleteOldHistory(Days(28), day);

    MaintenanceOp op;
    op.duration = op_duration;
    op.window_start = day;
    op.window_end = std::min(day + Days(1), to);
    if (op.window_end - op.window_start < op.duration) continue;
    PRORP_ASSIGN_OR_RETURN(EpochSeconds start,
                           scheduler.Schedule(op, history));
    ++report.ops_total;
    bool covered = false;
    for (const workload::Session& s : trace.sessions) {
      if (s.start <= start && start + op.duration <= s.end) {
        covered = true;
        break;
      }
      if (s.start > start + op.duration) break;
    }
    if (covered) {
      ++report.ops_during_activity;
    } else {
      ++report.ops_dedicated_resume;
    }
  }
  return report;
}

}  // namespace prorp::maintenance
