// Fleet-level regression for the transport integration: every
// control-plane resume dispatch crosses the typed message transport, and
// on a fault-free wire that must be behavior-neutral.  Acks arrive
// inline, so a transported run replays the exact decision sequence the
// simulator produced when the control plane called the node executor
// directly: its behaviour digest and event_queue_bytes, pinned from those
// direct-call runs, are unchanged in memory and under the durable journal,
// and a mid-run control-plane crash leaves the KPIs of a crash-free run
// intact.

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/fleet_simulator.h"
#include "sim/sim_report_digest.h"
#include "workload/region.h"

namespace prorp::sim {
namespace {

using golden::SimBehaviourDigest;
using policy::PolicyMode;

constexpr EpochSeconds kT0 = Days(1004);  // a Monday
constexpr EpochSeconds kMeasureFrom = kT0 + Days(30);
constexpr EpochSeconds kEnd = kT0 + Days(35);

// Behaviour digest (SimBehaviourDigest) and event_queue_bytes of the
// direct-call run (the control plane calling the node executor without a
// transport) of BaseOptions' fleet.  The durable journal is
// behaviour-neutral, so the journaled direct-call run reported the same
// values.
constexpr uint64_t kDirectCallDigest = 0x25f70869722ee409ULL;
constexpr uint64_t kDirectCallQueueBytes = 11264;

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

SimOptions BaseOptions() {
  SimOptions options;
  options.mode = PolicyMode::kProactive;
  options.measure_from = kMeasureFrom;
  options.end = kEnd;
  options.seed = 7;
  // Exercise retry/mitigation paths so the identity check covers the
  // failure plumbing, not just the happy path.
  options.eviction_per_hour = 0.1;
  options.resume_failure_probability = 0.02;
  return options;
}

std::vector<workload::DbTrace> Fleet() {
  return workload::GenerateFleet(workload::RegionEU1(), 40, kT0, kEnd, 13);
}

/// The transported run reproduces the direct-call digest, and no dispatch
/// was ever parked: fault-free acks resolve inline.
void ExpectDirectCallRun(const SimReport& r) {
  // The path under test actually ran.
  EXPECT_GT(r.kpi.proactive_resumes, 0u);
  EXPECT_GT(r.robustness.resume_failures_injected, 0u);
  EXPECT_EQ(r.diagnostics.unacked_dispatches, 0u);
  EXPECT_EQ(r.diagnostics.dispatch_timeouts, 0u);
  EXPECT_EQ(r.diagnostics.late_acks, 0u);
  // The inline wire delivers each request once.
  EXPECT_EQ(r.robustness.duplicates_suppressed, 0u);
  const uint64_t digest = SimBehaviourDigest(r);
  EXPECT_EQ(digest, kDirectCallDigest) << "digest 0x" << std::hex << digest;
  EXPECT_EQ(r.event_queue_bytes, kDirectCallQueueBytes);
}

void ExpectIdenticalRuns(const SimReport& a, const SimReport& b) {
  EXPECT_EQ(a.kpi.logins_total, b.kpi.logins_total);
  EXPECT_EQ(a.kpi.logins_available, b.kpi.logins_available);
  EXPECT_EQ(a.kpi.logins_reactive, b.kpi.logins_reactive);
  EXPECT_EQ(a.kpi.proactive_resumes, b.kpi.proactive_resumes);
  EXPECT_EQ(a.kpi.physical_pauses, b.kpi.physical_pauses);
  EXPECT_EQ(a.kpi.forced_evictions, b.kpi.forced_evictions);
  EXPECT_EQ(a.kpi.predictions, b.kpi.predictions);
  EXPECT_DOUBLE_EQ(a.usage.active, b.usage.active);
  EXPECT_DOUBLE_EQ(a.usage.reclaimed, b.usage.reclaimed);
  EXPECT_DOUBLE_EQ(a.usage.unavailable, b.usage.unavailable);
  EXPECT_EQ(a.recorder.size(), b.recorder.size());
  EXPECT_EQ(a.diagnostics.observed_iterations,
            b.diagnostics.observed_iterations);
  EXPECT_EQ(a.diagnostics.mitigated, b.diagnostics.mitigated);
  EXPECT_EQ(a.diagnostics.incidents, b.diagnostics.incidents);
  EXPECT_EQ(a.robustness.resume_failures_injected,
            b.robustness.resume_failures_injected);
}

TEST(TransportSimTest, FaultFreeTransportMatchesDirectCallBitExactly) {
  auto r = RunFleetSimulation(Fleet(), BaseOptions());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectDirectCallRun(*r);
}

TEST(TransportSimTest, TransportIsNeutralUnderDurableJournal) {
  SimOptions options = BaseOptions();
  options.control_plane_journal_dir = FreshDir("net_sim_journal_transport");
  options.control_plane_checkpoint_every = 512;
  auto r = RunFleetSimulation(Fleet(), options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->control_plane_recoveries, 0u);
  ExpectDirectCallRun(*r);
}

TEST(TransportSimTest, TransportSurvivesControlPlaneCrash) {
  // The transport stack outlives the control-plane incarnation: after the
  // mid-run crash the dispatcher re-points at the recovered service and
  // the node fence moves to the new epoch.  KPIs must still match a
  // crash-free transported run bit for bit.
  auto traces = workload::GenerateFleet(workload::RegionEU1(), 40, kT0,
                                        kEnd, 13);
  SimOptions smooth = BaseOptions();
  smooth.control_plane_journal_dir = FreshDir("net_sim_crash_smooth");
  smooth.control_plane_checkpoint_every = 512;
  SimOptions crashed = smooth;
  crashed.control_plane_journal_dir = FreshDir("net_sim_crash_crashed");
  crashed.control_plane_crash_at = kMeasureFrom + Days(2) + Hours(3);
  auto a = RunFleetSimulation(traces, smooth);
  auto b = RunFleetSimulation(traces, crashed);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->control_plane_recoveries, 0u);
  EXPECT_EQ(b->control_plane_recoveries, 1u);
  EXPECT_GT(b->control_plane_replayed, 0u);
  EXPECT_GT(b->kpi.proactive_resumes, 0u);
  ExpectIdenticalRuns(*a, *b);
}

}  // namespace
}  // namespace prorp::sim
