
#include <gtest/gtest.h>

#include "telemetry/events.h"
#include "telemetry/kpi.h"
#include "telemetry/usage_ledger.h"

namespace prorp::telemetry {
namespace {

TEST(RecorderTest, RecordsAndCounts) {
  Recorder r;
  r.Record(100, 1, EventKind::kLoginAvailable);
  r.Record(200, 2, EventKind::kLoginReactive);
  r.Record(300, 1, EventKind::kLoginAvailable);
  EXPECT_EQ(r.size(), 3u);
  EventCounts counts = EventCounts::FromRecorder(r);
  EXPECT_EQ(counts.Count(EventKind::kLoginAvailable), 2u);
  EXPECT_EQ(counts.Count(EventKind::kPhysicalPause), 0u);
  EXPECT_EQ(counts.total(), 3u);
}

TEST(UsageLedgerTest, IntegratesPhases) {
  UsageLedger ledger(1, 0);
  ledger.SetPhase(0, Phase::kActive, 0);
  ledger.SetPhase(0, Phase::kIdleLogical, 100);
  ledger.SetPhase(0, Phase::kReclaimed, 150);
  ledger.Finish(400);
  const TimeBreakdown& t = ledger.fleet_total();
  EXPECT_DOUBLE_EQ(t.active, 100);
  EXPECT_DOUBLE_EQ(t.idle_logical, 50);
  EXPECT_DOUBLE_EQ(t.reclaimed, 250);
  EXPECT_DOUBLE_EQ(t.Total(), 400);
}

TEST(UsageLedgerTest, ProactiveIdleClassifiedByOutcome) {
  UsageLedger ledger(2, 0);
  // DB 0: pre-warm used by the customer => correct.
  ledger.SetPhase(0, Phase::kIdleProactive, 0);
  ledger.SetPhase(0, Phase::kActive, 300);
  // DB 1: pre-warm reclaimed unused => wrong.
  ledger.SetPhase(1, Phase::kIdleProactive, 0);
  ledger.SetPhase(1, Phase::kReclaimed, 500);
  ledger.Finish(1000);
  EXPECT_DOUBLE_EQ(ledger.db_total(0).idle_proactive_correct, 300);
  EXPECT_DOUBLE_EQ(ledger.db_total(0).idle_proactive_wrong, 0);
  EXPECT_DOUBLE_EQ(ledger.db_total(1).idle_proactive_wrong, 500);
  EXPECT_DOUBLE_EQ(ledger.fleet_total().idle_proactive_correct, 300);
  EXPECT_DOUBLE_EQ(ledger.fleet_total().idle_proactive_wrong, 500);
}

TEST(UsageLedgerTest, OpenProactiveSegmentAtEndCountsWrong) {
  UsageLedger ledger(1, 0);
  ledger.SetPhase(0, Phase::kIdleProactive, 100);
  ledger.Finish(400);
  EXPECT_DOUBLE_EQ(ledger.db_total(0).idle_proactive_wrong, 300);
}

TEST(UsageLedgerTest, DbWithNoPhasesContributesNothing) {
  UsageLedger ledger(3, 0);
  ledger.SetPhase(1, Phase::kActive, 0);
  ledger.Finish(100);
  EXPECT_DOUBLE_EQ(ledger.db_total(0).Total(), 0);
  EXPECT_DOUBLE_EQ(ledger.db_total(2).Total(), 0);
  EXPECT_DOUBLE_EQ(ledger.fleet_total().Total(), 100);
}

TEST(UsageLedgerTest, UnavailableTimeTracked) {
  UsageLedger ledger(1, 0);
  ledger.SetPhase(0, Phase::kUnavailable, 0);
  ledger.SetPhase(0, Phase::kActive, 60);
  ledger.Finish(100);
  EXPECT_DOUBLE_EQ(ledger.fleet_total().unavailable, 60);
  EXPECT_DOUBLE_EQ(ledger.fleet_total().active, 40);
}

TEST(KpiTest, ComputesQosAndIdlePercentages) {
  Recorder recorder;
  recorder.Record(10, 0, EventKind::kLoginAvailable);
  recorder.Record(20, 0, EventKind::kLoginAvailable);
  recorder.Record(30, 0, EventKind::kLoginAvailable);
  recorder.Record(40, 0, EventKind::kLoginReactive);
  recorder.Record(50, 0, EventKind::kLogicalPause);
  recorder.Record(60, 0, EventKind::kPhysicalPause);
  recorder.Record(70, 0, EventKind::kProactiveResume);

  UsageLedger ledger(1, 0);
  ledger.SetPhase(0, Phase::kActive, 0);
  ledger.SetPhase(0, Phase::kIdleLogical, 500);
  ledger.SetPhase(0, Phase::kReclaimed, 600);
  ledger.Finish(1000);

  KpiReport kpi =
      ComputeKpi(EventCounts::FromRecorder(recorder), ledger.fleet_total());
  EXPECT_EQ(kpi.logins_total, 4u);
  EXPECT_DOUBLE_EQ(kpi.QosAvailablePct(), 75.0);
  EXPECT_DOUBLE_EQ(kpi.idle_logical_pct, 10.0);
  EXPECT_DOUBLE_EQ(kpi.active_pct, 50.0);
  EXPECT_DOUBLE_EQ(kpi.reclaimed_pct, 40.0);
  EXPECT_EQ(kpi.logical_pauses, 1u);
  EXPECT_EQ(kpi.physical_pauses, 1u);
  EXPECT_EQ(kpi.proactive_resumes, 1u);
  std::string s = kpi.ToString();
  EXPECT_NE(s.find("QoS avail= 75.0%"), std::string::npos) << s;
}

TEST(KpiTest, EmptyInputsAreZero) {
  Recorder recorder;
  UsageLedger ledger(0, 0);
  ledger.Finish(0);
  KpiReport kpi =
      ComputeKpi(EventCounts::FromRecorder(recorder), ledger.fleet_total());
  EXPECT_EQ(kpi.logins_total, 0u);
  EXPECT_DOUBLE_EQ(kpi.QosAvailablePct(), 0.0);
  EXPECT_DOUBLE_EQ(kpi.IdleTotalPct(), 0.0);
}

TEST(WorkflowFrequencyTest, BucketsAndBoxPlot) {
  Recorder recorder;
  // 3 resumes in bucket 0, 1 in bucket 1, 0 in buckets 2-3.
  recorder.Record(10, 0, EventKind::kProactiveResume);
  recorder.Record(20, 1, EventKind::kProactiveResume);
  recorder.Record(59, 2, EventKind::kProactiveResume);
  recorder.Record(61, 3, EventKind::kProactiveResume);
  recorder.Record(70, 4, EventKind::kPhysicalPause);  // other kind
  BoxPlot box = WorkflowFrequency(recorder, EventKind::kProactiveResume,
                                  60, 0, 240);
  EXPECT_EQ(box.count, 4u);  // 4 one-minute buckets
  EXPECT_DOUBLE_EQ(box.max, 3);
  EXPECT_DOUBLE_EQ(box.min, 0);
  EXPECT_DOUBLE_EQ(box.median, 0.5);
}

TEST(WorkflowFrequencyTest, DegenerateInputs) {
  Recorder recorder;
  EXPECT_EQ(WorkflowFrequency(recorder, EventKind::kPhysicalPause, 0, 0,
                              100)
                .count,
            0u);
  EXPECT_EQ(WorkflowFrequency(recorder, EventKind::kPhysicalPause, 60, 100,
                              100)
                .count,
            0u);
}

TEST(WorkflowFrequencyTest, IgnoresEventsOutsideWindow) {
  Recorder recorder;
  recorder.Record(10, 0, EventKind::kPhysicalPause);    // before window
  recorder.Record(150, 0, EventKind::kPhysicalPause);   // inside
  recorder.Record(400, 0, EventKind::kPhysicalPause);   // after window
  BoxPlot box = WorkflowFrequency(recorder, EventKind::kPhysicalPause, 60,
                                  100, 300);
  EXPECT_EQ(box.count, 4u);  // ceil(200/60) buckets
  EXPECT_DOUBLE_EQ(box.max, 1);
  EXPECT_DOUBLE_EQ(box.min, 0);
}

// Every kind survives the recorder and is counted under its own slot.
TEST(RecorderTest, CsvCoversEveryKind) {
  Recorder r;
  for (size_t k = 0; k < kNumEventKinds; ++k) {
    r.Record(static_cast<EpochSeconds>(k), 0, static_cast<EventKind>(k));
  }
  ASSERT_EQ(r.size(), kNumEventKinds);
  EventCounts counts = EventCounts::FromRecorder(r);
  for (size_t k = 0; k < kNumEventKinds; ++k) {
    EventKind kind = static_cast<EventKind>(k);
    EXPECT_EQ(r.events()[k].kind, kind) << k;
    EXPECT_EQ(counts.Count(kind), 1u) << k;
  }
}

}  // namespace
}  // namespace prorp::telemetry
