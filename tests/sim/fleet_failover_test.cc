// Fleet-level regression for the failure-detection subsystem
// (SimOptions::failure_detection_enabled) and the injected node crash:
//  * fault-free, detection is pure observation — the run's workload
//    output is identical to a plain transported run (the ISSUE's
//    bit-identity acceptance criterion);
//  * under a node crash, the lease tracker declares the node dead and
//    the failover engine re-places its evicted databases on survivors,
//    beating the passive baseline's login QoS without losing a login;
//  * under the storm layer, login waits caused by the crash are
//    attributed to failover (vs outage) wait, and detection shrinks them.

#include <gtest/gtest.h>

#include "sim/fleet_simulator.h"
#include "workload/region.h"

namespace prorp::sim {
namespace {

using policy::PolicyMode;

constexpr EpochSeconds kT0 = Days(1004);  // a Monday
constexpr EpochSeconds kMeasureFrom = kT0 + Days(30);
constexpr EpochSeconds kEnd = kT0 + Days(35);

SimOptions BaseOptions() {
  SimOptions options;
  options.mode = PolicyMode::kProactive;
  options.measure_from = kMeasureFrom;
  options.end = kEnd;
  options.seed = 7;
  options.num_nodes = 4;  // outage_rate_per_day stays 0: no outages
  return options;
}

void ExpectIdenticalWorkload(const SimReport& a, const SimReport& b) {
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

TEST(FleetFailoverTest, DetectionIsPureObservationOnFaultFreeRun) {
  // The acceptance bar: with the tracker enabled but no fault injected,
  // the lease loop rides alongside the workload without perturbing a
  // single decision — only the event count (lease ticks) may differ.
  auto traces =
      workload::GenerateFleet(workload::RegionEU1(), 40, kT0, kEnd, 13);
  SimOptions plain = BaseOptions();
  // Exercise retry/mitigation paths so the identity check covers the
  // failure plumbing, not just the happy path.
  plain.eviction_per_hour = 0.1;
  plain.resume_failure_probability = 0.02;
  SimOptions detected = plain;
  detected.failure_detection_enabled = true;
  auto a = RunFleetSimulation(traces, plain);
  auto b = RunFleetSimulation(traces, detected);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_GT(b->kpi.proactive_resumes, 0u);
  ExpectIdenticalWorkload(*a, *b);
  // Healthy fleet: the detector saw grants everywhere and stayed quiet.
  EXPECT_EQ(b->robustness.node_deaths, 0u);
  EXPECT_EQ(b->robustness.node_rejoins, 0u);
  EXPECT_EQ(b->robustness.failover_requeues, 0u);
  EXPECT_EQ(b->robustness.resume_failures_node_down, 0u);
}

TEST(FleetFailoverTest, NodeCrashDetectionRePlacesAndBeatsPassiveQos) {
  auto traces =
      workload::GenerateFleet(workload::RegionEU1(), 60, kT0, kEnd, 13);
  SimOptions passive = BaseOptions();
  passive.node_crash_node = 1;
  // Early evening: the day's databases idle in logical pause, so the
  // node still hosts warm resources worth losing.
  passive.node_crash_at = kMeasureFrom + Days(1) + Hours(18);
  passive.node_crash_duration = Days(1);
  SimOptions active = passive;
  active.failure_detection_enabled = true;
  auto a = RunFleetSimulation(traces, passive);
  auto b = RunFleetSimulation(traces, active);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  // The crash fired identically in both arms: the pre-crash prefix is
  // fault-free and bit-identical, so the evicted set is the same.
  EXPECT_GT(a->kpi.forced_evictions, 0u);
  EXPECT_EQ(a->kpi.forced_evictions, b->kpi.forced_evictions);
  EXPECT_EQ(a->robustness.node_crash_windows, 1u);
  EXPECT_EQ(b->robustness.node_crash_windows, 1u);
  // Retransmits to the dead node and failover diversion never deliver a
  // request twice over the inline wire: no agent suppressed a duplicate.
  EXPECT_EQ(a->robustness.duplicates_suppressed, 0u);
  EXPECT_EQ(b->robustness.duplicates_suppressed, 0u);

  // No accepted login is lost in either arm.
  EXPECT_GT(a->kpi.logins_total, 0u);
  EXPECT_EQ(a->kpi.logins_total, b->kpi.logins_total);

  // Passive arm: nobody declares anything; the evicted databases stay
  // cold until their logins find them.
  EXPECT_EQ(a->robustness.node_deaths, 0u);
  EXPECT_EQ(a->robustness.failover_requeues, 0u);

  // Active arm: the tracker declared the death, the engine re-placed the
  // evicted databases on survivors, and the node rejoined after its
  // restart + cooldown.
  EXPECT_GE(b->robustness.node_deaths, 1u);
  EXPECT_GT(b->robustness.failover_requeues, 0u);
  EXPECT_GE(b->robustness.node_rejoins, 1u);

  // The QoS claim: re-placing cold databases before their logins arrive
  // converts reactive logins into available ones.
  EXPECT_GT(b->kpi.logins_available, a->kpi.logins_available);
  EXPECT_LT(b->kpi.logins_reactive, a->kpi.logins_reactive);
}

TEST(FleetFailoverTest, CrashRunsAreDeterministicInSeed) {
  auto traces =
      workload::GenerateFleet(workload::RegionEU1(), 40, kT0, kEnd, 13);
  SimOptions opt = BaseOptions();
  opt.failure_detection_enabled = true;
  opt.node_crash_node = 2;
  opt.node_crash_at = kMeasureFrom + Days(2);
  opt.node_crash_duration = Hours(6);
  auto a = RunFleetSimulation(traces, opt);
  auto b = RunFleetSimulation(traces, opt);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectIdenticalWorkload(*a, *b);
  EXPECT_EQ(a->events_processed, b->events_processed);
  EXPECT_EQ(a->robustness.node_deaths, b->robustness.node_deaths);
  EXPECT_EQ(a->robustness.failover_requeues,
            b->robustness.failover_requeues);
  EXPECT_EQ(a->robustness.failover_deduped, b->robustness.failover_deduped);
  EXPECT_EQ(a->robustness.resume_failures_node_down,
            b->robustness.resume_failures_node_down);
}

TEST(FleetFailoverTest, StormLoginWaitsAttributeToFailoverAndShrink) {
  // Under the storm layer every reactive login's wait is measured; waits
  // that start inside the crash window on the crashed node are
  // attributed to failover (S2's split).  Detection both shortens them
  // (diversion to survivors) and pre-warms the evicted databases.
  auto traces =
      workload::GenerateFleet(workload::RegionEU1(), 60, kT0, kEnd, 13);
  SimOptions passive = BaseOptions();
  passive.resume_concurrency_per_node = 2;  // storm layer on
  passive.node_crash_node = 1;
  passive.node_crash_at = kMeasureFrom + Days(1) + Hours(18);
  passive.node_crash_duration = Days(1);
  SimOptions active = passive;
  active.failure_detection_enabled = true;
  auto a = RunFleetSimulation(traces, passive);
  auto b = RunFleetSimulation(traces, active);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  // No outages configured: every attributed wait is a failover wait.
  EXPECT_EQ(a->robustness.outage_waited_logins, 0u);
  EXPECT_EQ(b->robustness.outage_waited_logins, 0u);
  // The passive arm's crash-window logins wait on the dead node's
  // retransmit/timeout machinery; with detection the dispatcher diverts
  // them to survivors, so the total attributed wait shrinks.
  EXPECT_GT(a->robustness.failover_wait_seconds, 0u);
  EXPECT_LT(b->robustness.failover_wait_seconds,
            a->robustness.failover_wait_seconds);
  EXPECT_GT(b->robustness.failover_requeues, 0u);
}

}  // namespace
}  // namespace prorp::sim
