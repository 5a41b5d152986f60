#include <vector>

#include <gtest/gtest.h>

#include "sim/fleet_simulator.h"
#include "workload/region.h"

// Whole-simulation checks of the scale layer's event path: streaming
// telemetry loses nothing the KPI pipeline reads, and the timer wheel
// gives a same-tick storm's capacity back.  The queue order itself is
// checked against a reference priority queue in timer_wheel_test.cc, and
// the whole-simulation runs that once compared the wheel with a
// binary-heap queue are pinned by SimReportDigestTest's Oracle* digests.

namespace prorp::sim {
namespace {

using policy::PolicyMode;

constexpr EpochSeconds kT0 = Days(1004);  // a Monday
constexpr EpochSeconds kMeasureFrom = kT0 + Days(30);
constexpr EpochSeconds kEnd = kT0 + Days(35);

SimOptions BaseOptions(PolicyMode mode) {
  SimOptions options;
  options.mode = mode;
  options.measure_from = kMeasureFrom;
  options.end = kEnd;
  options.seed = 7;
  return options;
}

TEST(TimerWheelDifferentialTest, StreamingTelemetryMatchesFull) {
  // kStreaming must lose nothing the KPI pipeline consumes: identical
  // counters, percentages and histograms, with only the buffered
  // recorder and per-event summaries dropped.
  auto traces = workload::GenerateFleet(workload::RegionEU1(), 40, kT0,
                                        kEnd, 11);
  SimOptions options = BaseOptions(PolicyMode::kProactive);
  options.eviction_per_hour = 0.2;
  options.telemetry = SimOptions::Telemetry::kFull;
  auto full = RunFleetSimulation(traces, options);
  options.telemetry = SimOptions::Telemetry::kStreaming;
  auto streaming = RunFleetSimulation(traces, options);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_TRUE(streaming.ok()) << streaming.status().ToString();

  EXPECT_GT(full->recorder.size(), 0u);
  EXPECT_EQ(streaming->recorder.size(), 0u);
  EXPECT_EQ(full->events_processed, streaming->events_processed);
  for (size_t i = 0; i < telemetry::kNumEventKinds; ++i) {
    auto kind = static_cast<telemetry::EventKind>(i);
    EXPECT_EQ(full->counts.Count(kind), streaming->counts.Count(kind));
  }
  // The running counters agree with a recount of the buffered log.
  auto recount = telemetry::EventCounts::FromRecorder(full->recorder);
  for (size_t i = 0; i < telemetry::kNumEventKinds; ++i) {
    auto kind = static_cast<telemetry::EventKind>(i);
    EXPECT_EQ(full->counts.Count(kind), recount.Count(kind));
  }
  EXPECT_EQ(full->kpi.logins_available, streaming->kpi.logins_available);
  EXPECT_EQ(full->kpi.active_pct, streaming->kpi.active_pct);
  EXPECT_EQ(full->kpi.IdleTotalPct(), streaming->kpi.IdleTotalPct());
  EXPECT_EQ(full->usage.active, streaming->usage.active);
  EXPECT_EQ(full->login_delay_hist.buckets(),
            streaming->login_delay_hist.buckets());
  EXPECT_EQ(full->history_tuples_hist.buckets(),
            streaming->history_tuples_hist.buckets());
  EXPECT_EQ(full->history_bytes_hist.buckets(),
            streaming->history_bytes_hist.buckets());
}

TEST(TimerWheelDifferentialTest, QueueShrinksAfterSameTickStorm) {
  // Every database logs in at the identical instant: one tick holding
  // the whole fleet, the worst case the wheel's pool compaction exists
  // for.  Without it the burst's high-water node pool would be held for
  // the rest of the run.
  const size_t kFleet = 20'000;
  std::vector<workload::DbTrace> traces;
  traces.reserve(kFleet);
  for (uint32_t i = 0; i < kFleet; ++i) {
    workload::DbTrace t;
    t.db_id = i;
    t.pattern = workload::PatternType::kDaily;
    // Two sessions with a >l overnight-sized gap: the second login is a
    // fleet-wide simultaneous login-after-idle storm.
    t.sessions.push_back({kT0 + Hours(1), kT0 + Hours(2)});
    t.sessions.push_back({kT0 + Hours(12), kT0 + Hours(13)});
    t.created_at = kT0 + Hours(1);
    traces.push_back(std::move(t));
  }
  SimOptions options;
  options.mode = PolicyMode::kReactive;
  options.end = kT0 + Days(1);
  options.seed = 7;
  auto report = RunFleetSimulation(traces, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->kpi.logins_total, kFleet);
  // 20k simultaneous events transit the queue; at >= 32 bytes per event
  // that's >= 640 KB at the high-water mark.  The run must not still be
  // holding it at the end.
  EXPECT_LT(report->event_queue_bytes, 600u * 1024);
}

}  // namespace
}  // namespace prorp::sim
