#include <filesystem>
#include <vector>

#include <gtest/gtest.h>

#include "sim/fleet_simulator.h"
#include "workload/region.h"

// The legacy event heap is kept as the differential-testing oracle for
// the timer wheel: both backends must drain the same ticks in the same
// order, so every number a run publishes — counters, percentages, phase
// durations, histogram buckets — must match bit-for-bit, not just
// approximately.  EXPECT_EQ on the doubles is deliberate.

namespace prorp::sim {
namespace {

using policy::PolicyMode;

constexpr EpochSeconds kT0 = Days(1004);  // a Monday
constexpr EpochSeconds kMeasureFrom = kT0 + Days(30);
constexpr EpochSeconds kEnd = kT0 + Days(35);

SimOptions BaseOptions(PolicyMode mode, uint64_t seed = 7) {
  SimOptions options;
  options.mode = mode;
  options.measure_from = kMeasureFrom;
  options.end = kEnd;
  options.seed = seed;
  return options;
}

void ExpectBitIdentical(const SimReport& a, const SimReport& b) {
  // Event volume and per-kind counters.
  EXPECT_EQ(a.events_processed, b.events_processed);
  for (size_t i = 0; i < telemetry::kNumEventKinds; ++i) {
    auto kind = static_cast<telemetry::EventKind>(i);
    EXPECT_EQ(a.counts.Count(kind), b.counts.Count(kind))
        << telemetry::EventKindName(kind);
  }

  // KPI.
  EXPECT_EQ(a.kpi.logins_total, b.kpi.logins_total);
  EXPECT_EQ(a.kpi.logins_available, b.kpi.logins_available);
  EXPECT_EQ(a.kpi.logins_reactive, b.kpi.logins_reactive);
  EXPECT_EQ(a.kpi.logical_pauses, b.kpi.logical_pauses);
  EXPECT_EQ(a.kpi.physical_pauses, b.kpi.physical_pauses);
  EXPECT_EQ(a.kpi.proactive_resumes, b.kpi.proactive_resumes);
  EXPECT_EQ(a.kpi.forced_evictions, b.kpi.forced_evictions);
  EXPECT_EQ(a.kpi.predictions, b.kpi.predictions);
  EXPECT_EQ(a.kpi.idle_logical_pct, b.kpi.idle_logical_pct);
  EXPECT_EQ(a.kpi.idle_proactive_correct_pct, b.kpi.idle_proactive_correct_pct);
  EXPECT_EQ(a.kpi.idle_proactive_wrong_pct, b.kpi.idle_proactive_wrong_pct);
  EXPECT_EQ(a.kpi.active_pct, b.kpi.active_pct);
  EXPECT_EQ(a.kpi.reclaimed_pct, b.kpi.reclaimed_pct);
  EXPECT_EQ(a.kpi.unavailable_pct, b.kpi.unavailable_pct);

  // Phase durations (integer-second sums; exact).
  EXPECT_EQ(a.usage.active, b.usage.active);
  EXPECT_EQ(a.usage.idle_logical, b.usage.idle_logical);
  EXPECT_EQ(a.usage.idle_proactive_correct, b.usage.idle_proactive_correct);
  EXPECT_EQ(a.usage.idle_proactive_wrong, b.usage.idle_proactive_wrong);
  EXPECT_EQ(a.usage.reclaimed, b.usage.reclaimed);
  EXPECT_EQ(a.usage.unavailable, b.usage.unavailable);

  // Robustness counters (outage windows, injected failures, scrubbing).
  EXPECT_EQ(a.robustness.outage_windows, b.robustness.outage_windows);
  EXPECT_EQ(a.robustness.outage_seconds, b.robustness.outage_seconds);
  EXPECT_EQ(a.robustness.resume_failures_outage,
            b.robustness.resume_failures_outage);
  EXPECT_EQ(a.robustness.resume_failures_injected,
            b.robustness.resume_failures_injected);
  EXPECT_EQ(a.robustness.degraded_enters, b.robustness.degraded_enters);
  EXPECT_EQ(a.robustness.degraded_exits, b.robustness.degraded_exits);
  EXPECT_EQ(a.robustness.history_errors, b.robustness.history_errors);
  EXPECT_EQ(a.robustness.maintenance_touches,
            b.robustness.maintenance_touches);

  // Mitigation / graceful-degradation diagnostics.
  EXPECT_EQ(a.diagnostics.observed_iterations, b.diagnostics.observed_iterations);
  EXPECT_EQ(a.diagnostics.max_queue_depth, b.diagnostics.max_queue_depth);
  EXPECT_EQ(a.diagnostics.stuck_workflows, b.diagnostics.stuck_workflows);
  EXPECT_EQ(a.diagnostics.mitigated, b.diagnostics.mitigated);
  EXPECT_EQ(a.diagnostics.skipped_state_changed,
            b.diagnostics.skipped_state_changed);
  EXPECT_EQ(a.diagnostics.failed_then_skipped,
            b.diagnostics.failed_then_skipped);
  EXPECT_EQ(a.diagnostics.failed_then_shed, b.diagnostics.failed_then_shed);
  EXPECT_EQ(a.diagnostics.incidents, b.diagnostics.incidents);
  EXPECT_EQ(a.diagnostics.backoff_retries_scheduled,
            b.diagnostics.backoff_retries_scheduled);
  EXPECT_EQ(a.diagnostics.shed_resumes, b.diagnostics.shed_resumes);
  EXPECT_EQ(a.diagnostics.breaker_opens, b.diagnostics.breaker_opens);
  EXPECT_EQ(a.pending_failed, b.pending_failed);
  EXPECT_EQ(a.control_plane_recoveries, b.control_plane_recoveries);
  EXPECT_EQ(a.control_plane_replayed, b.control_plane_replayed);

  // Streaming histograms: bucket-wise exact.
  auto expect_hist_eq = [](const telemetry::Histogram& x,
                           const telemetry::Histogram& y) {
    EXPECT_EQ(x.count(), y.count());
    EXPECT_EQ(x.max(), y.max());
    EXPECT_EQ(x.sum(), y.sum());
    EXPECT_EQ(x.buckets(), y.buckets());
  };
  expect_hist_eq(a.login_delay_hist, b.login_delay_hist);
  expect_hist_eq(a.history_tuples_hist, b.history_tuples_hist);
  expect_hist_eq(a.history_bytes_hist, b.history_bytes_hist);

  // Per-event summaries and the buffered recorder (full telemetry only).
  EXPECT_EQ(a.recorder.size(), b.recorder.size());
  EXPECT_EQ(a.resumed_per_iteration.count(), b.resumed_per_iteration.count());
  EXPECT_EQ(a.login_delay.count(), b.login_delay.count());
  EXPECT_EQ(a.allocated_samples.count(), b.allocated_samples.count());
  if (!a.allocated_samples.empty()) {
    EXPECT_EQ(a.allocated_samples.Sum(), b.allocated_samples.Sum());
    EXPECT_EQ(a.allocated_samples.Max(), b.allocated_samples.Max());
  }
  if (!a.login_delay.empty()) {
    EXPECT_EQ(a.login_delay.Sum(), b.login_delay.Sum());
    EXPECT_EQ(a.login_delay.Max(), b.login_delay.Max());
  }
}

/// Runs the same fleet through both queue backends and compares the
/// full reports.
void RunBothBackends(const std::vector<workload::DbTrace>& traces,
                     SimOptions options) {
  options.use_legacy_event_heap = false;
  auto wheel = RunFleetSimulation(traces, options);
  options.use_legacy_event_heap = true;
  auto heap = RunFleetSimulation(traces, options);
  ASSERT_TRUE(wheel.ok()) << wheel.status().ToString();
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  ExpectBitIdentical(*wheel, *heap);
}

TEST(TimerWheelDifferentialTest, AllModesAndRegions) {
  for (PolicyMode mode : {PolicyMode::kReactive, PolicyMode::kProactive,
                          PolicyMode::kAlwaysOn}) {
    for (const auto& profile : {workload::RegionEU1(), workload::RegionUS1()}) {
      auto traces = workload::GenerateFleet(profile, 40, kT0, kEnd, 11);
      RunBothBackends(traces, BaseOptions(mode));
    }
  }
}

TEST(TimerWheelDifferentialTest, AcrossSeeds) {
  auto traces = workload::GenerateFleet(workload::RegionEU2(), 40, kT0,
                                        kEnd, 23);
  for (uint64_t seed : {1u, 7u, 99u}) {
    SimOptions options = BaseOptions(PolicyMode::kProactive, seed);
    options.eviction_per_hour = 0.2;
    RunBothBackends(traces, options);
  }
}

TEST(TimerWheelDifferentialTest, UnderNodeOutages) {
  auto traces = workload::GenerateFleet(workload::RegionUS2(), 40, kT0,
                                        kEnd, 5);
  SimOptions options = BaseOptions(PolicyMode::kProactive);
  options.num_nodes = 4;
  options.outage_rate_per_day = 1.0;
  options.outage_duration = Minutes(20);
  options.resume_failure_probability = 0.05;
  RunBothBackends(traces, options);
}

TEST(TimerWheelDifferentialTest, UnderResumeStorm) {
  auto traces = workload::GenerateFleet(workload::RegionEU1(), 40, kT0,
                                        kEnd, 9);
  SimOptions options = BaseOptions(PolicyMode::kProactive);
  options.resume_concurrency_per_node = 2;
  options.node_admission_rate = 0.5;
  options.fleet_outage_at = kMeasureFrom + Days(1);
  options.fleet_outage_duration = Minutes(30);
  RunBothBackends(traces, options);
}

TEST(TimerWheelDifferentialTest, UnderControlPlaneCrash) {
  auto traces = workload::GenerateFleet(workload::RegionEU1(), 30, kT0,
                                        kEnd, 13);
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "prorp_wheel_diff_journal";
  SimOptions options = BaseOptions(PolicyMode::kProactive);
  options.control_plane_crash_at = kMeasureFrom + Days(2);
  options.control_plane_journal_dir = dir.string();

  options.use_legacy_event_heap = false;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto wheel = RunFleetSimulation(traces, options);

  options.use_legacy_event_heap = true;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto heap = RunFleetSimulation(traces, options);

  ASSERT_TRUE(wheel.ok()) << wheel.status().ToString();
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  EXPECT_GE(wheel->control_plane_recoveries, 1u);
  ExpectBitIdentical(*wheel, *heap);
  std::filesystem::remove_all(dir);
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
  // the whole fleet, the worst case the post-storm shrink policy exists
  // for.  Without it the burst's high-water slot capacity (and the
  // legacy heap's) would be held for the rest of the run.
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
  for (bool legacy : {false, true}) {
    options.use_legacy_event_heap = legacy;
    auto report = RunFleetSimulation(traces, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->kpi.logins_total, kFleet);
    // 20k simultaneous events transit the queue; at >= 32 bytes per
    // event that's >= 640 KB at the high-water mark.  The run must not
    // still be holding it at the end.
    EXPECT_LT(report->event_queue_bytes, 600u * 1024)
        << (legacy ? "legacy heap" : "timer wheel");
  }
}

}  // namespace
}  // namespace prorp::sim
