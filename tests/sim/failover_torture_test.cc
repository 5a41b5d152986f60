#include "sim/plane_torture.h"

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace prorp::sim {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

NodeFaultSpec Fault(NodeFaultSpec::Kind kind, uint32_t node, int at_step,
                    int duration_steps) {
  NodeFaultSpec f;
  f.kind = kind;
  f.node = node;
  f.at_step = at_step;
  f.duration_steps = duration_steps;
  return f;
}

/// Runs one cell and asserts the invariants every failover-torture run
/// must uphold, whatever the fault mix.
PlaneTortureResult RunCell(const std::string& name,
                              PlaneTortureOptions opt) {
  opt.dir = FreshDir(name);
  auto result = RunPlaneTorture(opt);
  EXPECT_TRUE(result.ok()) << name << ": " << result.status().ToString();
  if (!result.ok()) return {};
  EXPECT_TRUE(result->drained) << name;
  EXPECT_EQ(result->lost_reactive, 0u) << name;
  EXPECT_EQ(result->double_applies, 0u) << name;
  EXPECT_EQ(result->stale_epoch_applied, 0u) << name;
  EXPECT_EQ(result->double_live, 0u) << name;
  EXPECT_EQ(result->fence_violations, 0u) << name;
  EXPECT_TRUE(result->accounting_ok) << name;
  EXPECT_GT(result->total_resumed, 0u) << name;
  return *result;
}

// Tentpole: a crashed node is detected, declared dead, and every
// database placed on it is re-dispatched to survivors.
TEST(FailoverTortureTest, NodeCrashIsDetectedAndFailedOver) {
  PlaneTortureOptions opt;
  opt.seed = 11;
  opt.faults = {Fault(NodeFaultSpec::Kind::kCrash, 2, 40, 60)};
  auto r = RunCell("fo_crash", opt);
  EXPECT_GE(r.deaths_declared, 1u);
  EXPECT_GT(r.failover_requeues, 0u);
  EXPECT_GT(r.diverted_dispatches, 0u);
  EXPECT_GT(r.lease_probes, 0u);
  ASSERT_GT(r.detection_delay.count(), 0u);
  // Detection cannot beat the suspicion gap and must not dawdle past the
  // lease TTL + grace by more than a couple of lease periods.
  EXPECT_GE(r.detection_delay.Min(), static_cast<double>(opt.suspect_after));
  EXPECT_LE(r.detection_delay.Max(),
            static_cast<double>(opt.lease_ttl + opt.dead_grace + 120));
}

// Tentpole: a zombie node (keeps receiving and executing; everything it
// sends is lost) self-quiesces by the lease fence before the plane
// declares it dead — so its databases are re-placed with zero
// double-lives even though the node was still executing work.
TEST(FailoverTortureTest, ZombiePartitionSelfQuiescesBeforeFailover) {
  PlaneTortureOptions opt;
  opt.seed = 12;
  opt.faults = {Fault(NodeFaultSpec::Kind::kZombie, 1, 50, 30)};
  auto r = RunCell("fo_zombie", opt);
  EXPECT_GE(r.deaths_declared, 1u);
  EXPECT_GE(r.self_quiesces, 1u);
  EXPECT_GT(r.lease_expired_rejected, 0u);
}

// Tentpole: a gray-slow node (alive, correct, late) is demoted on its
// p99 reply latency, drains its lease, and fails over cleanly.
TEST(FailoverTortureTest, SlowNodeIsDemotedOnLatencyScore) {
  PlaneTortureOptions opt;
  opt.seed = 13;
  opt.steps = 240;
  // The delay must stay below suspect_after - lease_interval (else the
  // delayed grants trip the silence detector first and the cell tests
  // the wrong path) while clearing slow_p99_threshold.
  NodeFaultSpec slow = Fault(NodeFaultSpec::Kind::kSlow, 3, 40, 80);
  slow.slow_delay = 80;
  opt.faults = {slow};
  auto r = RunCell("fo_slow", opt);
  EXPECT_GE(r.suspects_gray_failure, 1u);
  EXPECT_GE(r.deaths_declared, 1u);
}

// Crash composed with message chaos: drops, duplicates, delays.
TEST(FailoverTortureTest, CrashUnderMessageChaos) {
  for (uint64_t seed : {21, 22, 23}) {
    PlaneTortureOptions opt;
    opt.seed = seed;
    opt.drop_p = 0.10;
    opt.duplicate_p = 0.10;
    opt.delay_p = 0.10;
    opt.faults = {Fault(NodeFaultSpec::Kind::kCrash, 3, 60, 50)};
    auto r = RunCell("fo_chaos_" + std::to_string(seed), opt);
    EXPECT_GE(r.deaths_declared, 1u);
  }
}

// Crash composed with a login storm: failover re-queues ride the
// reactive class but must not amplify the storm accounting.
TEST(FailoverTortureTest, CrashDuringStorm) {
  PlaneTortureOptions opt;
  opt.seed = 31;
  opt.storm = true;
  opt.faults = {Fault(NodeFaultSpec::Kind::kCrash, 1, 95, 40)};
  auto r = RunCell("fo_storm", opt);
  EXPECT_GE(r.deaths_declared, 1u);
}

// Crash composed with a resume-path outage window.
TEST(FailoverTortureTest, CrashDuringOutage) {
  PlaneTortureOptions opt;
  opt.seed = 32;
  opt.outage = true;
  opt.faults = {Fault(NodeFaultSpec::Kind::kCrash, 2, 66, 40)};
  RunCell("fo_outage", opt);
}

// Tentpole: plane crash mid-failover — the control plane dies after the
// node fault but around the detection window; the new incarnation's
// fresh detector re-detects and the journaled declarations/re-queues
// replay exactly once.
TEST(FailoverTortureTest, PlaneCrashMidFailoverIsExactlyOnce) {
  for (int crash_at : {44, 48, 52}) {
    PlaneTortureOptions opt;
    opt.seed = 41 + static_cast<uint64_t>(crash_at);
    opt.crash_at_step = crash_at;
    opt.faults = {Fault(NodeFaultSpec::Kind::kCrash, 2, 40, 60)};
    auto r =
        RunCell("fo_plane_crash_" + std::to_string(crash_at), opt);
    EXPECT_EQ(r.recoveries, 1);
    EXPECT_GE(r.deaths_declared, 1u);
  }
}

// Zombie composed with a plane crash: both fences (epoch and lease) are
// load-bearing in the same run.
TEST(FailoverTortureTest, ZombieWithPlaneCrash) {
  PlaneTortureOptions opt;
  opt.seed = 51;
  opt.crash_at_step = 60;
  opt.faults = {Fault(NodeFaultSpec::Kind::kZombie, 2, 50, 30)};
  auto r = RunCell("fo_zombie_plane", opt);
  EXPECT_EQ(r.recoveries, 1);
}

// Two overlapping node faults of different kinds.
TEST(FailoverTortureTest, ConcurrentCrashAndZombie) {
  PlaneTortureOptions opt;
  opt.seed = 61;
  opt.num_nodes = 5;
  opt.faults = {Fault(NodeFaultSpec::Kind::kCrash, 1, 40, 60),
                Fault(NodeFaultSpec::Kind::kZombie, 4, 45, 30)};
  auto r = RunCell("fo_concurrent", opt);
  EXPECT_GE(r.deaths_declared, 2u);
}

// Detection-threshold sweep: tighter and looser suspicion gaps and
// grace dwells all converge with the invariants intact.
TEST(FailoverTortureTest, DetectionThresholdSweep) {
  struct Cell {
    DurationSeconds suspect_after;
    DurationSeconds dead_grace;
    DurationSeconds lease_ttl;
  };
  const std::vector<Cell> cells = {
      {90, 60, 180}, {150, 120, 240}, {240, 180, 360}};
  int idx = 0;
  for (const Cell& c : cells) {
    PlaneTortureOptions opt;
    opt.seed = 71 + static_cast<uint64_t>(idx);
    opt.suspect_after = c.suspect_after;
    opt.dead_grace = c.dead_grace;
    opt.lease_ttl = c.lease_ttl;
    opt.faults = {Fault(NodeFaultSpec::Kind::kCrash, 2, 50, 60)};
    auto r = RunCell("fo_sweep_" + std::to_string(idx), opt);
    EXPECT_GE(r.deaths_declared, 1u);
    ++idx;
  }
}

// The passive baseline (detection disabled) still converges — recovery
// happens purely through retry/timeout attrition once the node returns —
// and serves as the latency comparison floor for bench_failover.
TEST(FailoverTortureTest, PassiveBaselineStillConverges) {
  PlaneTortureOptions opt;
  opt.seed = 81;
  opt.detection_enabled = false;
  opt.faults = {Fault(NodeFaultSpec::Kind::kCrash, 2, 40, 40)};
  auto r = RunCell("fo_passive", opt);
  EXPECT_EQ(r.deaths_declared, 0u);
  EXPECT_EQ(r.failover_requeues, 0u);
  EXPECT_EQ(r.diverted_dispatches, 0u);
  EXPECT_EQ(r.self_quiesces, 0u);
}

// A fault-free run with detection enabled must behave exactly like the
// workload without the subsystem: no deaths, no quiesces, no refusals —
// the detector is pure observation on the healthy path.
TEST(FailoverTortureTest, FaultFreeRunIsQuiet) {
  PlaneTortureOptions opt;
  opt.seed = 91;
  auto r = RunCell("fo_quiet", opt);
  EXPECT_EQ(r.deaths_declared, 0u);
  EXPECT_EQ(r.failover_requeues, 0u);
  EXPECT_EQ(r.self_quiesces, 0u);
  EXPECT_EQ(r.lease_expired_rejected, 0u);
  EXPECT_EQ(r.lease_probes, 0u);
  EXPECT_EQ(r.suspects_gray_failure, 0u);
}

// Fault-free equivalence: the accepted/resumed workload of a run with
// the detector on equals the run with it off — on the healthy path the
// subsystem changes nothing observable.
TEST(FailoverTortureTest, FaultFreeDetectionIsObservationOnly) {
  PlaneTortureOptions on;
  on.seed = 92;
  auto r_on = RunCell("fo_eq_on", on);

  PlaneTortureOptions off;
  off.seed = 92;
  off.detection_enabled = false;
  auto r_off = RunCell("fo_eq_off", off);

  EXPECT_EQ(r_on.accepted_reactive, r_off.accepted_reactive);
  EXPECT_EQ(r_on.total_resumed, r_off.total_resumed);
  EXPECT_EQ(r_on.transport.dropped, r_off.transport.dropped);
  EXPECT_EQ(r_on.retransmissions, r_off.retransmissions);
}

// Malformed options are refused up front instead of indexing out of
// bounds (fault node), dividing by the node count, or drawing a database
// from an empty fleet.
TEST(PlaneTortureTest, RejectsMalformedOptions) {
  struct Case {
    const char* name;
    int num_dbs;
    int num_nodes;
    int fault_node;  // -1 = no node fault
  };
  const Case cases[] = {
      {"no_dbs", 0, 4, -1},          {"negative_dbs", -3, 4, -1},
      {"no_nodes", 48, 0, -1},       {"negative_nodes", 48, -1, -1},
      {"fault_node_zero", 48, 4, 0}, {"fault_node_past_end", 48, 4, 5},
  };
  for (const Case& c : cases) {
    PlaneTortureOptions opt;
    opt.dir = FreshDir(std::string("fo_malformed_") + c.name);
    opt.num_dbs = c.num_dbs;
    opt.num_nodes = c.num_nodes;
    if (c.fault_node >= 0) {
      opt.faults = {Fault(NodeFaultSpec::Kind::kCrash,
                          static_cast<uint32_t>(c.fault_node), 40, 20)};
    }
    auto r = RunPlaneTorture(opt);
    ASSERT_FALSE(r.ok()) << c.name;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << c.name << ": " << r.status().ToString();
  }
}

}  // namespace
}  // namespace prorp::sim
