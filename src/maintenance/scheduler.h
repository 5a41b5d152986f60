#ifndef PRORP_MAINTENANCE_SCHEDULER_H_
#define PRORP_MAINTENANCE_SCHEDULER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "forecast/predictor.h"
#include "workload/trace.h"

namespace prorp::maintenance {

/// A system maintenance operation on one database (paper Section 11,
/// future work 4: backups, software updates, version upgrades, stats
/// refresh).  Maintenance resumes the database's resources if it is
/// paused — the paper explicitly excludes such resumes from the customer
/// activity history (Section 3.3) — so every maintenance run on a paused
/// database costs an extra resume/pause cycle.
struct MaintenanceOp {
  enum class Kind { kBackup, kStatsRefresh, kSoftwareUpdate };
  Kind kind = Kind::kBackup;
  DurationSeconds duration = Minutes(10);
  /// Earliest allowed start and hard deadline.
  EpochSeconds window_start = 0;
  EpochSeconds window_end = 0;
};

/// Picks a start time for a maintenance op within its window.
class MaintenanceScheduler {
 public:
  virtual ~MaintenanceScheduler() = default;

  /// Returns the chosen start time in
  /// [op.window_start, op.window_end - op.duration].
  virtual Result<EpochSeconds> Schedule(
      const MaintenanceOp& op, const history::HistoryStore& history) = 0;

  virtual std::string name() const = 0;
};

/// The classic production default: run maintenance at a fixed off-peak
/// hour (e.g. 03:00 local), regardless of the database's own pattern.
class FixedHourScheduler : public MaintenanceScheduler {
 public:
  explicit FixedHourScheduler(DurationSeconds hour_of_day = Hours(3))
      : hour_of_day_(hour_of_day) {}

  Result<EpochSeconds> Schedule(const MaintenanceOp& op,
                                const history::HistoryStore&) override;
  std::string name() const override { return "fixed_hour"; }

 private:
  DurationSeconds hour_of_day_;
};

/// Prediction-aligned scheduling: place the op inside the predicted
/// customer-activity window, when the database will be online anyway, so
/// no dedicated resume is needed.  Falls back to the fixed hour when
/// nothing is predicted inside the op's window.
class PredictionAlignedScheduler : public MaintenanceScheduler {
 public:
  PredictionAlignedScheduler(const forecast::Predictor* predictor,
                             DurationSeconds fallback_hour = Hours(3))
      : predictor_(predictor), fallback_(fallback_hour) {}

  Result<EpochSeconds> Schedule(
      const MaintenanceOp& op,
      const history::HistoryStore& history) override;
  std::string name() const override { return "prediction_aligned"; }

 private:
  const forecast::Predictor* predictor_;
  FixedHourScheduler fallback_;
};

/// Outcome of replaying a maintenance cadence against what the customer
/// actually did.
struct MaintenanceReport {
  uint64_t ops_total = 0;
  /// The op ran while the customer was online: zero extra resumes.
  uint64_t ops_during_activity = 0;
  /// The op hit a paused database: one dedicated resume/pause cycle.
  uint64_t ops_dedicated_resume = 0;

  double CoScheduledPct() const {
    return ops_total == 0
               ? 0
               : 100.0 * static_cast<double>(ops_during_activity) /
                     static_cast<double>(ops_total);
  }
};

/// Replays one maintenance op per day over [from, to) for the database
/// whose real activity is `trace`, building its history as days pass and
/// asking `scheduler` for each day's slot (window = that whole day).
/// An op counts as co-scheduled when its full duration lies inside an
/// actual customer session.
Result<MaintenanceReport> ReplayMaintenance(
    const workload::DbTrace& trace, MaintenanceScheduler& scheduler,
    EpochSeconds from, EpochSeconds to,
    DurationSeconds op_duration = Minutes(10));

}  // namespace prorp::maintenance

#endif  // PRORP_MAINTENANCE_SCHEDULER_H_
