#include "sim/fleet_simulator.h"

#include <filesystem>

#include <gtest/gtest.h>

#include "workload/region.h"

namespace prorp::sim {
namespace {

using policy::PolicyMode;
using workload::DbTrace;
using workload::Session;

constexpr EpochSeconds kT0 = Days(1004);  // a Monday
constexpr EpochSeconds kMeasureFrom = kT0 + Days(30);
constexpr EpochSeconds kEnd = kT0 + Days(35);

/// A database with two sessions per working day: 9:00-12:00 and
/// 13:00-17:00.  The 1 h lunch gap stays within any logical pause; the
/// 16 h overnight gap exceeds l = 7 h.
DbTrace DailyTwoSessionTrace(uint32_t id) {
  DbTrace trace;
  trace.db_id = id;
  trace.pattern = workload::PatternType::kDaily;
  for (EpochSeconds day = kT0; day < kEnd; day += Days(1)) {
    trace.sessions.push_back({day + Hours(9), day + Hours(12)});
    trace.sessions.push_back({day + Hours(13), day + Hours(17)});
  }
  trace.created_at = trace.sessions.front().start;
  return trace;
}

SimOptions BaseOptions(PolicyMode mode) {
  SimOptions options;
  options.mode = mode;
  options.measure_from = kMeasureFrom;
  options.end = kEnd;
  options.seed = 7;
  return options;
}

TEST(FleetSimulatorTest, RequiresEndTime) {
  SimOptions options;
  options.end = 0;
  auto r = RunFleetSimulation({}, options);
  EXPECT_FALSE(r.ok());
}

TEST(FleetSimulatorTest, ReactivePolicyOnDailyPattern) {
  std::vector<DbTrace> traces = {DailyTwoSessionTrace(0)};
  auto report = RunFleetSimulation(traces, BaseOptions(PolicyMode::kReactive));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const auto& kpi = report->kpi;
  // 5 measured days x 2 logins/day = 10 first-logins-after-idle.
  EXPECT_EQ(kpi.logins_total, 10u);
  // Lunch logins (5) find the logical pause; morning logins (5) hit a
  // physically paused database.
  EXPECT_EQ(kpi.logins_available, 5u);
  EXPECT_EQ(kpi.logins_reactive, 5u);
  EXPECT_DOUBLE_EQ(kpi.QosAvailablePct(), 50.0);
  // Idle time: 1 h lunch + 7 h logical pause tail per day out of 24 h.
  EXPECT_NEAR(kpi.IdleTotalPct(), 100.0 * 8.0 / 24.0, 1.5);
  EXPECT_GT(kpi.unavailable_pct, 0.0);
  EXPECT_EQ(kpi.proactive_resumes, 0u);
}

TEST(FleetSimulatorTest, ProactivePolicyOnDailyPattern) {
  std::vector<DbTrace> traces = {DailyTwoSessionTrace(0)};
  auto report =
      RunFleetSimulation(traces, BaseOptions(PolicyMode::kProactive));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const auto& kpi = report->kpi;
  EXPECT_EQ(kpi.logins_total, 10u);
  // The overnight pause ends with a control-plane pre-warm: all logins
  // find resources available.
  EXPECT_EQ(kpi.logins_available, 10u) << kpi.ToString();
  EXPECT_GT(kpi.proactive_resumes, 0u);
  // Proactively pre-warmed idle time exists but is small (5 min/day).
  EXPECT_GT(kpi.idle_proactive_correct_pct, 0.0);
  // The proactive policy reclaims the overnight idle the reactive policy
  // burns: its idle total must be far below reactive's ~33%.
  EXPECT_LT(kpi.IdleTotalPct(), 15.0);
  EXPECT_DOUBLE_EQ(kpi.unavailable_pct, 0.0);
}

TEST(FleetSimulatorTest, AlwaysOnNeverReclaims) {
  std::vector<DbTrace> traces = {DailyTwoSessionTrace(0)};
  auto report =
      RunFleetSimulation(traces, BaseOptions(PolicyMode::kAlwaysOn));
  ASSERT_TRUE(report.ok());
  const auto& kpi = report->kpi;
  EXPECT_DOUBLE_EQ(kpi.QosAvailablePct(), 100.0);
  EXPECT_DOUBLE_EQ(kpi.reclaimed_pct, 0.0);
  // 24h/day allocated, 7h/day used => ~70% idle.
  EXPECT_NEAR(kpi.IdleTotalPct(), 100.0 * 17.0 / 24.0, 1.5);
  EXPECT_EQ(kpi.physical_pauses, 0u);
}

TEST(FleetSimulatorTest, EvictionPressureDegradesReactiveQos) {
  std::vector<DbTrace> traces = {DailyTwoSessionTrace(0)};
  SimOptions options = BaseOptions(PolicyMode::kReactive);
  options.eviction_per_hour = 5.0;  // brutal pressure: ~12 min to eviction
  auto report = RunFleetSimulation(traces, options);
  ASSERT_TRUE(report.ok());
  // Even the 1 h lunch gap now mostly ends physically paused.
  EXPECT_LT(report->kpi.QosAvailablePct(), 30.0);
  EXPECT_GT(report->kpi.forced_evictions, 0u);
}

TEST(FleetSimulatorTest, ResumeFailureInjectionRaisesIncidents) {
  std::vector<DbTrace> traces = {DailyTwoSessionTrace(0)};
  SimOptions options = BaseOptions(PolicyMode::kProactive);
  options.resume_failure_probability = 1.0;  // every attempt fails
  auto report = RunFleetSimulation(traces, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->kpi.proactive_resumes, 0u);
  EXPECT_GT(report->diagnostics.incidents, 0u);
  // Morning logins degrade to reactive resumes.
  EXPECT_EQ(report->kpi.logins_reactive, 5u);
}

TEST(FleetSimulatorTest, TransientFailuresAreMitigated) {
  std::vector<DbTrace> traces = {DailyTwoSessionTrace(0)};
  SimOptions options = BaseOptions(PolicyMode::kProactive);
  options.resume_failure_probability = 0.5;
  auto report = RunFleetSimulation(traces, options);
  ASSERT_TRUE(report.ok());
  // Retries inside the iteration mitigate most transient failures; the
  // customer experience stays intact.
  EXPECT_GT(report->kpi.proactive_resumes, 0u);
  EXPECT_GT(report->diagnostics.stuck_workflows, 0u);
  EXPECT_GT(report->diagnostics.mitigated, 0u);
}

TEST(FleetSimulatorTest, DisablingProactiveResumeLosesQos) {
  std::vector<DbTrace> traces = {DailyTwoSessionTrace(0)};
  SimOptions options = BaseOptions(PolicyMode::kProactive);
  options.proactive_resume_enabled = false;  // ablation
  auto report = RunFleetSimulation(traces, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->kpi.proactive_resumes, 0u);
  EXPECT_EQ(report->kpi.logins_reactive, 5u);  // mornings unprotected
}

TEST(FleetSimulatorTest, SqlScanPathMatchesIndexPath) {
  std::vector<DbTrace> traces;
  for (uint32_t i = 0; i < 5; ++i) {
    traces.push_back(DailyTwoSessionTrace(i));
  }
  SimOptions fast = BaseOptions(PolicyMode::kProactive);
  SimOptions slow = fast;
  slow.use_sql_scan_for_resume_op = true;
  auto a = RunFleetSimulation(traces, fast);
  auto b = RunFleetSimulation(traces, slow);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->kpi.logins_available, b->kpi.logins_available);
  EXPECT_EQ(a->kpi.proactive_resumes, b->kpi.proactive_resumes);
  EXPECT_EQ(a->kpi.physical_pauses, b->kpi.physical_pauses);
  EXPECT_DOUBLE_EQ(a->kpi.IdleTotalPct(), b->kpi.IdleTotalPct());
}

TEST(FleetSimulatorTest, DeterministicInSeed) {
  auto traces = workload::GenerateFleet(workload::RegionEU1(), 50, kT0,
                                        kEnd, 11);
  SimOptions options = BaseOptions(PolicyMode::kProactive);
  options.eviction_per_hour = 0.05;
  auto a = RunFleetSimulation(traces, options);
  auto b = RunFleetSimulation(traces, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->kpi.logins_available, b->kpi.logins_available);
  EXPECT_EQ(a->kpi.logins_reactive, b->kpi.logins_reactive);
  EXPECT_DOUBLE_EQ(a->kpi.IdleTotalPct(), b->kpi.IdleTotalPct());
  EXPECT_EQ(a->recorder.size(), b->recorder.size());
}

/// Regression for the cancelled-timer bookkeeping bug.  SyncTimer() used
/// to leave `scheduled_timer` pointing at the old timestamp when the
/// controller cancelled its timer (NextTimerAt() == 0, e.g. on physical
/// pause).  When a later logical pause re-requested a timer at that same
/// timestamp — the prediction boundary is stable across an eviction /
/// pre-warm cycle — the re-arm was suppressed and the stale event from
/// the previous lifecycle generation was honoured in its original queue
/// position.  In this trace that flips the order of a timer check and a
/// coincident capacity eviction: the timer-initiated expiry pause wins
/// and the forced eviction (whose restore path re-schedules the pre-warm)
/// is silently dropped, changing the QoS of every subsequent login.
///
/// The expected counters below are the fixed behaviour; the pre-fix code
/// yields logins_available=8, physical_pauses=9, proactive_resumes=8,
/// forced_evictions=3 on the same trace.
TEST(FleetSimulatorTest, CancelledTimerDoesNotSwallowReArmedTimer) {
  constexpr EpochSeconds kStart = Days(1005);
  // Activity trace distilled from GenerateFleet(RegionEU1(), 40, seed 4),
  // database 21, which deterministically hits the timer/eviction race
  // under eviction_per_hour = 1 and a 1 h logical pause.
  DbTrace busy;
  busy.db_id = 1;
  busy.sessions = {
      {86874441, 86883444}, {86884544, 86892447}, {87049653, 87071129},
      {87135539, 87142128}, {87220990, 87225852}, {87227500, 87230714},
      {87309359, 87312695}, {87314530, 87316031}, {87393287, 87401008},
      {87402387, 87408729}, {87479526, 87485074}, {87485386, 87490623},
      {87566043, 87572075}, {87654175, 87657351}, {87659396, 87660527},
      {87740872, 87758246}, {87827125, 87829494}, {87830007, 87831863},
      {87912853, 87917678}, {88000004, 88009271}, {88086285, 88092594},
      {88094681, 88098904}, {88171349, 88180470}, {88257738, 88259766},
      {88431345, 88434139}, {88435884, 88436933}, {88517488, 88532991},
      {88604539, 88607328}, {88608225, 88610117}, {88691049, 88696967},
      {88699177, 88702885}, {88862398, 88864885}, {88865556, 88867372},
      {88947893, 88954188}, {88954887, 88960483}, {89035155, 89038689},
      {89040646, 89042223}, {89122495, 89126537}, {89129001, 89130580},
      {89207843, 89222344}, {89295543, 89298495}, {89300121, 89301448},
      {89381837, 89387694}, {89389743, 89393551}, {89467049, 89477163},
      {89478148, 89487277}, {89553620, 89566733}, {89639697, 89647512},
      {89649593, 89655327},
  };
  busy.created_at = busy.sessions.front().start;
  // A single-session pacemaker database anchors the proactive resume
  // operation's tick schedule at the time the original fleet's earliest
  // database would have.
  DbTrace pacemaker;
  pacemaker.db_id = 0;
  pacemaker.sessions = {{86834012, 86834072}};
  pacemaker.created_at = pacemaker.sessions.front().start;
  std::vector<DbTrace> traces = {pacemaker, busy};

  SimOptions options;
  options.mode = PolicyMode::kProactive;
  options.measure_from = kStart + Days(28);
  options.end = kStart + Days(33);
  options.eviction_per_hour = 1.0;
  // Reproduces the eviction hazard stream database 21 drew in the
  // original 40-database fleet (seed 4007): the per-database stream is
  // seeded with seed ^ (kGolden * (id + 1)), so XOR-ing the old and new
  // id mixes re-targets it to fleet position 1.
  options.seed = 0xa4aa86820ef25e43ULL;
  options.config.policy.logical_pause_duration = Hours(1);

  auto report = RunFleetSimulation(traces, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const auto& kpi = report->kpi;
  EXPECT_EQ(kpi.logins_total, 9u) << kpi.ToString();
  EXPECT_EQ(kpi.logins_available, 7u) << kpi.ToString();
  EXPECT_EQ(kpi.logins_reactive, 2u) << kpi.ToString();
  EXPECT_EQ(kpi.physical_pauses, 7u) << kpi.ToString();
  EXPECT_EQ(kpi.proactive_resumes, 5u) << kpi.ToString();
  EXPECT_EQ(kpi.forced_evictions, 2u) << kpi.ToString();
}

TEST(FleetSimulatorTest, RejectsThreadCountOtherThanOne) {
  // Every run is one serial event loop; num_threads survives only as a
  // field that must read 1.
  auto traces = workload::GenerateFleet(workload::RegionEU1(), 20, kT0,
                                        kEnd, 11);
  SimOptions options = BaseOptions(PolicyMode::kReactive);
  for (int threads : {4, 0}) {
    options.num_threads = threads;
    auto report = RunFleetSimulation(traces, options);
    ASSERT_FALSE(report.ok()) << "num_threads=" << threads;
    EXPECT_TRUE(report.status().IsInvalidArgument())
        << report.status().ToString();
  }
  options.num_threads = 1;
  auto report = RunFleetSimulation(traces, options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
}

TEST(FleetSimulatorTest, RejectsLegacyEventHeap) {
  // The event queue is always the timer wheel; use_legacy_event_heap
  // survives only as a field that must read false.
  auto traces = workload::GenerateFleet(workload::RegionEU1(), 20, kT0,
                                        kEnd, 11);
  SimOptions options = BaseOptions(PolicyMode::kReactive);
  options.use_legacy_event_heap = true;
  auto rejected = RunFleetSimulation(traces, options);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument())
      << rejected.status().ToString();
  options.use_legacy_event_heap = false;
  auto report = RunFleetSimulation(traces, options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
}

TEST(FleetSimulatorTest, HistoryStaysCompact) {
  auto traces = workload::GenerateFleet(workload::RegionEU1(), 60, kT0,
                                        kEnd, 3);
  SimOptions options = BaseOptions(PolicyMode::kProactive);
  auto report = RunFleetSimulation(traces, options);
  ASSERT_TRUE(report.ok());
  ASSERT_GT(report->history_tuples.count(), 0u);
  // Histories are pruned to h = 28 days; even bursty databases stay within
  // the paper's worst case of a few thousand tuples / under ~74 KB.
  EXPECT_LT(report->history_bytes.Max(), 80.0 * 1024.0);
}

TEST(FleetSimulatorTest, AllocationCensusIsSane) {
  std::vector<DbTrace> traces = {DailyTwoSessionTrace(0)};
  auto report =
      RunFleetSimulation(traces, BaseOptions(PolicyMode::kProactive));
  ASSERT_TRUE(report.ok());
  // Samples every 5 minutes across the 5-day measurement window.
  EXPECT_GT(report->allocated_samples.count(), 1000u);
  // One database: allocation count is always 0 or 1.
  EXPECT_GE(report->allocated_samples.Min(), 0.0);
  EXPECT_LE(report->allocated_samples.Max(), 1.0);
  EXPECT_GT(report->allocated_samples.Mean(), 0.0);
  // The always-on policy keeps it allocated the whole time.
  auto always = RunFleetSimulation(
      traces, BaseOptions(PolicyMode::kAlwaysOn));
  ASSERT_TRUE(always.ok());
  EXPECT_DOUBLE_EQ(always->allocated_samples.Min(), 1.0);
}

TEST(FleetSimulatorTest, PredictionsCountedInKpi) {
  std::vector<DbTrace> traces = {DailyTwoSessionTrace(0)};
  auto proactive =
      RunFleetSimulation(traces, BaseOptions(PolicyMode::kProactive));
  auto reactive =
      RunFleetSimulation(traces, BaseOptions(PolicyMode::kReactive));
  ASSERT_TRUE(proactive.ok());
  ASSERT_TRUE(reactive.ok());
  EXPECT_GT(proactive->kpi.predictions, 0u);
  EXPECT_EQ(reactive->kpi.predictions, 0u);
}

TEST(FleetSimulatorTest, NodeOutagesFailResumesButDegradeGracefully) {
  auto traces = workload::GenerateFleet(workload::RegionEU1(), 40, kT0,
                                        kEnd, 9);
  SimOptions healthy = BaseOptions(PolicyMode::kProactive);
  SimOptions outages = healthy;
  outages.num_nodes = 4;
  outages.outage_rate_per_day = 24;  // heavy: ~one 10-min outage/hour/node
  outages.outage_duration = Minutes(10);
  auto a = RunFleetSimulation(traces, healthy);
  auto b = RunFleetSimulation(traces, outages);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->robustness.outage_windows, 0u);
  EXPECT_GT(b->robustness.outage_windows, 0u);
  EXPECT_GT(b->robustness.resume_failures_outage, 0u);
  EXPECT_GT(b->diagnostics.stuck_workflows, 0u);
  // Graceful: outages shrink proactive QoS but every login still lands
  // (failed pre-warms fall back to reactive resume, never an error).
  EXPECT_EQ(a->kpi.logins_total, b->kpi.logins_total);
  EXPECT_LE(b->kpi.QosAvailablePct(), a->kpi.QosAvailablePct());
  // The same fleet under the reactive policy is the floor.
  auto r = RunFleetSimulation(traces, BaseOptions(PolicyMode::kReactive));
  ASSERT_TRUE(r.ok());
  EXPECT_GE(b->kpi.QosAvailablePct(), r->kpi.QosAvailablePct());
}

TEST(FleetSimulatorTest, MitigationAccountingReconcilesExactly) {
  // Every workflow that failed at least once must land in exactly one
  // terminal bucket — across outage failures, injected transient
  // failures, and retries cut short by the end of the run.
  auto traces = workload::GenerateFleet(workload::RegionEU1(), 60, kT0,
                                        kEnd, 13);
  SimOptions options = BaseOptions(PolicyMode::kProactive);
  options.num_nodes = 4;
  options.outage_rate_per_day = 12;
  options.resume_failure_probability = 0.3;
  options.eviction_per_hour = 0.05;
  auto report = RunFleetSimulation(traces, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const auto& d = report->diagnostics;
  EXPECT_GT(d.stuck_workflows, 0u);
  EXPECT_EQ(d.stuck_workflows, d.mitigated + d.incidents +
                                   d.failed_then_skipped +
                                   report->pending_failed)
      << "stuck=" << d.stuck_workflows << " mitigated=" << d.mitigated
      << " incidents=" << d.incidents
      << " failed_then_skipped=" << d.failed_then_skipped
      << " pending=" << report->pending_failed;
  EXPECT_EQ(d.backoff_retries_scheduled > 0,
            d.backoff_delay_seconds_total > 0);
}

TEST(FleetSimulatorTest, OutageRunsAreDeterministicInSeed) {
  auto traces = workload::GenerateFleet(workload::RegionEU1(), 30, kT0,
                                        kEnd, 17);
  SimOptions options = BaseOptions(PolicyMode::kProactive);
  options.num_nodes = 4;
  options.outage_rate_per_day = 24;
  auto a = RunFleetSimulation(traces, options);
  auto b = RunFleetSimulation(traces, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->robustness.outage_windows, b->robustness.outage_windows);
  EXPECT_EQ(a->robustness.outage_seconds, b->robustness.outage_seconds);
  EXPECT_EQ(a->robustness.resume_failures_outage,
            b->robustness.resume_failures_outage);
  EXPECT_EQ(a->kpi.logins_available, b->kpi.logins_available);
  EXPECT_EQ(a->diagnostics.breaker_opens, b->diagnostics.breaker_opens);
  EXPECT_EQ(a->recorder.size(), b->recorder.size());
}

TEST(FleetSimulatorTest, PartialSqlHistoryIsKpiNeutralOnFaultFreeRun) {
  // Acceptance gate: moving some databases onto SQL-backed history stores
  // on a fault-free fleet must not move a single policy KPI.
  auto traces = workload::GenerateFleet(workload::RegionEU1(), 20, kT0,
                                        kEnd, 11);
  SimOptions plain = BaseOptions(PolicyMode::kProactive);
  SimOptions mixed = plain;
  mixed.sql_history_count = 5;
  auto a = RunFleetSimulation(traces, plain);
  auto b = RunFleetSimulation(traces, mixed);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->kpi.logins_total, b->kpi.logins_total);
  EXPECT_EQ(a->kpi.logins_available, b->kpi.logins_available);
  EXPECT_EQ(a->kpi.logins_reactive, b->kpi.logins_reactive);
  EXPECT_EQ(a->kpi.proactive_resumes, b->kpi.proactive_resumes);
  EXPECT_EQ(a->kpi.physical_pauses, b->kpi.physical_pauses);
  EXPECT_EQ(a->kpi.predictions, b->kpi.predictions);
  EXPECT_DOUBLE_EQ(a->kpi.IdleTotalPct(), b->kpi.IdleTotalPct());
  EXPECT_EQ(a->recorder.size(), b->recorder.size());

  // The SQL-backed stores found a healthy fleet.
  EXPECT_EQ(b->robustness.corruption_detected, 0u);
  EXPECT_EQ(b->robustness.corruption_repaired, 0u);
  EXPECT_EQ(b->robustness.corruption_quarantined, 0u);
  EXPECT_EQ(b->robustness.corruption_errors, 0u);

  // The simulator runs no periodic scrub; a run that asks for one is
  // rejected rather than silently left unscrubbed.
  mixed.scrub_interval = Hours(6);
  auto rejected = RunFleetSimulation(traces, mixed);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument())
      << rejected.status().ToString();
}

TEST(FleetSimulatorTest, SqlHistoryBackendIsKpiNeutral) {
  // The SQL-backed history store answers the same queries as the
  // in-memory one, so swapping backends must not change policy outcomes.
  auto traces = workload::GenerateFleet(workload::RegionEU1(), 10, kT0,
                                        kEnd, 3);
  SimOptions mem = BaseOptions(PolicyMode::kProactive);
  SimOptions sql = mem;
  sql.sql_history_count = 10;  // every database
  auto a = RunFleetSimulation(traces, mem);
  auto b = RunFleetSimulation(traces, sql);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->kpi.logins_available, b->kpi.logins_available);
  EXPECT_EQ(a->kpi.proactive_resumes, b->kpi.proactive_resumes);
  EXPECT_EQ(a->kpi.predictions, b->kpi.predictions);
  EXPECT_DOUBLE_EQ(a->kpi.IdleTotalPct(), b->kpi.IdleTotalPct());
  EXPECT_EQ(a->history_tuples.count(), b->history_tuples.count());
}

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(FleetSimulatorTest, CrashAtRequiresJournalDir) {
  std::vector<DbTrace> traces = {DailyTwoSessionTrace(0)};
  SimOptions options = BaseOptions(PolicyMode::kProactive);
  options.control_plane_crash_at = kMeasureFrom;
  auto r = RunFleetSimulation(traces, options);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(FleetSimulatorTest, DurableControlPlaneMatchesLegacyBitExactly) {
  // Journaling every control-plane transition must be behavior-neutral:
  // the durable run replays the exact decision sequence of the same plane
  // opened with no journal, including transient-failure mitigation draws.
  auto traces = workload::GenerateFleet(workload::RegionEU1(), 40, kT0,
                                        kEnd, 13);
  SimOptions legacy = BaseOptions(PolicyMode::kProactive);
  legacy.eviction_per_hour = 0.1;
  legacy.resume_failure_probability = 0.02;
  SimOptions durable = legacy;
  durable.control_plane_journal_dir = FreshDir("sim_cp_identity");
  durable.control_plane_checkpoint_every = 512;
  auto a = RunFleetSimulation(traces, legacy);
  auto b = RunFleetSimulation(traces, durable);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b->control_plane_recoveries, 0u);
  EXPECT_EQ(a->kpi.logins_total, b->kpi.logins_total);
  EXPECT_EQ(a->kpi.logins_available, b->kpi.logins_available);
  EXPECT_EQ(a->kpi.logins_reactive, b->kpi.logins_reactive);
  EXPECT_EQ(a->kpi.proactive_resumes, b->kpi.proactive_resumes);
  EXPECT_EQ(a->kpi.physical_pauses, b->kpi.physical_pauses);
  EXPECT_EQ(a->kpi.forced_evictions, b->kpi.forced_evictions);
  EXPECT_EQ(a->kpi.predictions, b->kpi.predictions);
  EXPECT_DOUBLE_EQ(a->usage.active, b->usage.active);
  EXPECT_DOUBLE_EQ(a->usage.reclaimed, b->usage.reclaimed);
  EXPECT_DOUBLE_EQ(a->usage.unavailable, b->usage.unavailable);
  EXPECT_EQ(a->recorder.size(), b->recorder.size());
  EXPECT_EQ(a->diagnostics.observed_iterations,
            b->diagnostics.observed_iterations);
  EXPECT_EQ(a->diagnostics.mitigated, b->diagnostics.mitigated);
  EXPECT_EQ(a->diagnostics.incidents, b->diagnostics.incidents);
  EXPECT_EQ(a->robustness.resume_failures_injected,
            b->robustness.resume_failures_injected);
}

TEST(FleetSimulatorTest, DurableControlPlaneSurvivesMidRunRestart) {
  // Kill the control plane in the middle of the measurement window; the
  // recovered incarnation must pick up the exact journaled state, so the
  // run's KPIs match a crash-free durable run bit for bit.
  auto traces = workload::GenerateFleet(workload::RegionEU1(), 40, kT0,
                                        kEnd, 13);
  SimOptions smooth = BaseOptions(PolicyMode::kProactive);
  smooth.control_plane_journal_dir = FreshDir("sim_cp_smooth");
  smooth.control_plane_checkpoint_every = 512;
  SimOptions crashed = smooth;
  crashed.control_plane_journal_dir = FreshDir("sim_cp_crashed");
  crashed.control_plane_crash_at = kMeasureFrom + Days(2) + Hours(3);
  auto a = RunFleetSimulation(traces, smooth);
  auto b = RunFleetSimulation(traces, crashed);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->control_plane_recoveries, 0u);
  EXPECT_EQ(b->control_plane_recoveries, 1u);
  EXPECT_GT(b->control_plane_replayed, 0u);
  EXPECT_EQ(a->kpi.logins_total, b->kpi.logins_total);
  EXPECT_EQ(a->kpi.logins_available, b->kpi.logins_available);
  EXPECT_EQ(a->kpi.logins_reactive, b->kpi.logins_reactive);
  EXPECT_EQ(a->kpi.proactive_resumes, b->kpi.proactive_resumes);
  EXPECT_EQ(a->kpi.physical_pauses, b->kpi.physical_pauses);
  EXPECT_EQ(a->kpi.predictions, b->kpi.predictions);
  EXPECT_DOUBLE_EQ(a->usage.active, b->usage.active);
  EXPECT_DOUBLE_EQ(a->usage.unavailable, b->usage.unavailable);
  EXPECT_EQ(a->recorder.size(), b->recorder.size());
}

TEST(FleetSimulatorTest, MixedFleetProactiveBeatsReactive) {
  // The headline comparison on a realistic region mix.
  auto traces = workload::GenerateFleet(workload::RegionEU1(), 150, kT0,
                                        kEnd, 5);
  SimOptions reactive = BaseOptions(PolicyMode::kReactive);
  reactive.eviction_per_hour = 0.05;
  SimOptions proactive = BaseOptions(PolicyMode::kProactive);
  proactive.eviction_per_hour = 0.05;
  auto r = RunFleetSimulation(traces, reactive);
  auto p = RunFleetSimulation(traces, proactive);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(p.ok());
  EXPECT_GT(p->kpi.QosAvailablePct(), r->kpi.QosAvailablePct())
      << "reactive: " << r->kpi.ToString()
      << "\nproactive: " << p->kpi.ToString();
  EXPECT_GT(p->kpi.proactive_resumes, 0u);
}

}  // namespace
}  // namespace prorp::sim
