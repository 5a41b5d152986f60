#include "maintenance/scheduler.h"

#include <gtest/gtest.h>

#include "forecast/fast_predictor.h"
#include "history/mem_history_store.h"
#include "workload/trace_source.h"

namespace prorp::maintenance {
namespace {

constexpr EpochSeconds kT0 = Days(1005);  // Monday 00:00 UTC

/// 9:00-17:00 every day, deterministic.
workload::DbTrace StrictDailyTrace(EpochSeconds from, EpochSeconds to) {
  workload::DbTrace trace;
  for (EpochSeconds day = StartOfDay(from); day < to; day += Days(1)) {
    trace.sessions.push_back({day + Hours(9), day + Hours(17)});
  }
  trace.created_at = trace.sessions.front().start;
  return trace;
}

TEST(FixedHourSchedulerTest, PicksTheConfiguredHour) {
  FixedHourScheduler scheduler(Hours(3));
  history::MemHistoryStore empty;
  MaintenanceOp op;
  op.window_start = kT0;
  op.window_end = kT0 + Days(1);
  op.duration = Minutes(10);
  auto t = scheduler.Schedule(op, empty);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, kT0 + Hours(3));
}

TEST(FixedHourSchedulerTest, ClampsIntoWindow) {
  FixedHourScheduler scheduler(Hours(3));
  history::MemHistoryStore empty;
  MaintenanceOp op;
  op.window_start = kT0 + Hours(5);  // 03:00 already passed
  op.window_end = kT0 + Hours(8);
  op.duration = Minutes(10);
  auto t = scheduler.Schedule(op, empty);
  ASSERT_TRUE(t.ok());
  EXPECT_GE(*t, op.window_start);
  EXPECT_LE(*t + op.duration, op.window_end);
}

TEST(FixedHourSchedulerTest, RejectsTinyWindow) {
  FixedHourScheduler scheduler;
  history::MemHistoryStore empty;
  MaintenanceOp op;
  op.window_start = kT0;
  op.window_end = kT0 + Minutes(5);
  op.duration = Minutes(10);
  EXPECT_FALSE(scheduler.Schedule(op, empty).ok());
}

TEST(PredictionAlignedSchedulerTest, LandsInsidePredictedWindow) {
  history::MemHistoryStore history;
  for (int d = 1; d <= 28; ++d) {
    ASSERT_TRUE(
        history.InsertHistory(kT0 - Days(d) + Hours(9), history::kEventLogin)
            .ok());
    ASSERT_TRUE(history
                    .InsertHistory(kT0 - Days(d) + Hours(17),
                                   history::kEventLogout)
                    .ok());
  }
  PredictionConfig cfg;
  forecast::FastPredictor predictor(cfg);
  PredictionAlignedScheduler scheduler(&predictor);
  MaintenanceOp op;
  op.window_start = kT0;
  op.window_end = kT0 + Days(1);
  op.duration = Minutes(10);
  auto t = scheduler.Schedule(op, history);
  ASSERT_TRUE(t.ok());
  // Scheduled during the predicted business window, not at 03:00.
  EXPECT_GE(*t, kT0 + Hours(8));
  EXPECT_LE(*t, kT0 + Hours(18));
}

TEST(PredictionAlignedSchedulerTest, FallsBackWithoutHistory) {
  history::MemHistoryStore empty;
  PredictionConfig cfg;
  forecast::FastPredictor predictor(cfg);
  PredictionAlignedScheduler scheduler(&predictor, Hours(3));
  MaintenanceOp op;
  op.window_start = kT0;
  op.window_end = kT0 + Days(1);
  op.duration = Minutes(10);
  auto t = scheduler.Schedule(op, empty);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, kT0 + Hours(3));  // the fixed-hour fallback
}

TEST(ReplayMaintenanceTest, PredictionAlignedAvoidsDedicatedResumes) {
  // 28 days of warm-up history + 7 evaluation days.
  EpochSeconds from = kT0;
  EpochSeconds to = kT0 + Days(7);
  workload::DbTrace trace = StrictDailyTrace(kT0 - Days(28), to);

  FixedHourScheduler fixed(Hours(3));  // 03:00: customer always offline
  auto naive = ReplayMaintenance(trace, fixed, from, to);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->ops_total, 7u);
  EXPECT_EQ(naive->ops_during_activity, 0u);
  EXPECT_EQ(naive->ops_dedicated_resume, 7u);

  PredictionConfig cfg;
  forecast::FastPredictor predictor(cfg);
  PredictionAlignedScheduler aligned(&predictor);
  auto smart = ReplayMaintenance(trace, aligned, from, to);
  ASSERT_TRUE(smart.ok());
  EXPECT_EQ(smart->ops_total, 7u);
  // A strict daily pattern is fully predictable: every op lands while the
  // customer is online.
  EXPECT_EQ(smart->ops_during_activity, 7u)
      << "co-scheduled " << smart->CoScheduledPct() << "%";
  EXPECT_DOUBLE_EQ(smart->CoScheduledPct(), 100.0);
}

TEST(ReplayMaintenanceTest, MixedPatternStillImproves) {
  Rng rng(21);
  workload::DbTrace trace = workload::GenerateTrace(
      workload::PatternType::kDailyBusiness, 0, kT0 - Days(28),
      kT0 + Days(7), rng);
  FixedHourScheduler fixed(Hours(3));
  PredictionConfig cfg;
  forecast::FastPredictor predictor(cfg);
  PredictionAlignedScheduler aligned(&predictor);
  auto naive = ReplayMaintenance(trace, fixed, kT0, kT0 + Days(7));
  auto smart = ReplayMaintenance(trace, aligned, kT0, kT0 + Days(7));
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(smart.ok());
  EXPECT_GE(smart->ops_during_activity, naive->ops_during_activity);
}

TEST(ReplayMaintenanceTest, Validation) {
  workload::DbTrace trace;
  FixedHourScheduler fixed;
  EXPECT_FALSE(ReplayMaintenance(trace, fixed, kT0, kT0).ok());
}

}  // namespace
}  // namespace prorp::maintenance
