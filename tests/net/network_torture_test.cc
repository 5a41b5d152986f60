// The network-torture matrix: every
// message-fault kind x seeds x storm/outage/control-plane-crash overlays,
// through the full plane -> dispatcher -> faulty wire -> node-agent stack
// of the plane torture harness, with the failure detector off (leases
// stay telemetry-only), so the wire defenses alone carry every cell.
// Every cell must show zero accepted-login loss, zero double-applies,
// zero stale-epoch applies, and reconciled accounting after the drain.

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "sim/plane_torture.h"

namespace prorp::sim {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// The network workload: 160 steps on four nodes, one node execution in
/// ten failing transiently, five-minute telemetry-only leases.
PlaneTortureOptions NetworkOptions(uint64_t seed) {
  PlaneTortureOptions opt;
  opt.seed = seed;
  opt.steps = 160;
  opt.fail_probability = 0.10;
  opt.detection_enabled = false;
  opt.lease_interval = 300;
  return opt;
}

/// Cuts the plane off from the lower half of the nodes (1 through
/// 1 + (num_nodes - 1) / 2) for 20 steps from a third into the run.
void AddPartition(PlaneTortureOptions& opt, NodeFaultSpec::Kind kind) {
  for (uint32_t node = 1;
       node <= static_cast<uint32_t>(1 + (opt.num_nodes - 1) / 2); ++node) {
    NodeFaultSpec f;
    f.kind = kind;
    f.node = node;
    f.at_step = opt.steps / 3;
    f.duration_steps = 20;
    opt.faults.push_back(f);
  }
}

/// Partition direction by seed % 3: symmetric, then plane -> node lost,
/// then node -> plane lost.
constexpr NodeFaultSpec::Kind kPartitionKinds[] = {
    NodeFaultSpec::Kind::kPartition, NodeFaultSpec::Kind::kDeaf,
    NodeFaultSpec::Kind::kZombie};

/// The exactly-once/fencing/accounting invariants every cell must hold.
void ExpectInvariants(const PlaneTortureResult& r, const std::string& tag) {
  EXPECT_EQ(r.lost_reactive, 0u) << tag;
  EXPECT_EQ(r.double_applies, 0u) << tag;
  EXPECT_EQ(r.stale_epoch_applied, 0u) << tag;
  EXPECT_TRUE(r.accounting_ok) << tag;
  EXPECT_TRUE(r.drained) << tag;
}

TEST(NetworkTortureTest, FaultFreeWireIsQuiet) {
  PlaneTortureOptions opt = NetworkOptions(1);
  opt.dir = FreshDir("net_torture_quiet");
  opt.fail_probability = 0;  // nothing to retry, nothing to hedge
  auto r = RunPlaneTorture(opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectInvariants(*r, "fault-free");
  EXPECT_GT(r->total_resumed, 0u);
  EXPECT_GT(r->accepted_reactive, 0u);
  // A clean wire never loses, defers, or repeats anything.
  EXPECT_EQ(r->transport.dropped, 0u);
  EXPECT_EQ(r->transport.duplicated, 0u);
  EXPECT_EQ(r->transport.delayed, 0u);
  EXPECT_EQ(r->transport.partitioned, 0u);
  EXPECT_EQ(r->retransmissions, 0u);
  EXPECT_EQ(r->dispatch_timeouts, 0u);
  EXPECT_EQ(r->duplicate_suppressed, 0u);
  EXPECT_EQ(r->stale_epoch_rejected, 0u);
}

struct Cell {
  const char* name;
  double drop_p;
  double duplicate_p;
  double delay_p;
  bool partition;
};

constexpr Cell kCells[] = {
    {"drop", 0.15, 0, 0, false},
    {"duplicate", 0, 0.20, 0, false},
    {"delay", 0, 0, 0.20, false},
    {"partition", 0, 0, 0, true},
    {"mixed", 0.08, 0.08, 0.08, true},
};

TEST(NetworkTortureTest, MatrixEveryFaultKindAcrossSeedsAndOverlays) {
  // 5 fault kinds x 8 seeds; the overlay (none / storm / outage /
  // control-plane crash) rotates with the seed so every kind meets every
  // overlay somewhere in the matrix.
  PlaneTortureResult total;
  uint64_t crash_cells = 0;
  for (const Cell& cell : kCells) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      PlaneTortureOptions opt = NetworkOptions(seed);
      opt.dir = FreshDir("net_torture_" + std::string(cell.name) + "_" +
                         std::to_string(seed));
      opt.drop_p = cell.drop_p;
      opt.duplicate_p = cell.duplicate_p;
      opt.delay_p = cell.delay_p;
      if (cell.partition) AddPartition(opt, kPartitionKinds[seed % 3]);
      switch (seed % 4) {
        case 1: opt.storm = true; break;
        case 2: opt.outage = true; break;
        case 3: opt.crash_at_step = opt.steps / 2; ++crash_cells; break;
        default: break;  // no overlay
      }
      const std::string tag =
          std::string(cell.name) + " seed=" + std::to_string(seed);
      auto r = RunPlaneTorture(opt);
      ASSERT_TRUE(r.ok()) << tag << ": " << r.status().ToString();
      ExpectInvariants(*r, tag);
      EXPECT_GT(r->total_resumed, 0u) << tag;
      if (opt.crash_at_step >= 0) {
        EXPECT_EQ(r->recoveries, 1) << tag;
      }
      // The configured fault actually fired in this cell.
      if (cell.drop_p > 0) {
        EXPECT_GT(r->transport.dropped, 0u) << tag;
      }
      if (cell.duplicate_p > 0) {
        EXPECT_GT(r->transport.duplicated, 0u) << tag;
      }
      if (cell.delay_p > 0) {
        EXPECT_GT(r->transport.delayed, 0u) << tag;
      }
      if (cell.partition) {
        EXPECT_GT(r->transport.partitioned, 0u) << tag;
      }

      total.retransmissions += r->retransmissions;
      total.dispatch_timeouts += r->dispatch_timeouts;
      total.duplicate_suppressed += r->duplicate_suppressed;
      total.stale_epoch_rejected += r->stale_epoch_rejected;
      total.late_acks += r->late_acks;
      total.stale_epoch_acks += r->stale_epoch_acks;
    }
  }
  EXPECT_EQ(crash_cells, 10u);  // 2 crash seeds per kind
  // Across the whole matrix every defense mechanism was provoked: lost
  // requests retransmitted, exhausted dispatches timed out, redeliveries
  // deduped, and predecessor stragglers fenced after the crashes.
  EXPECT_GT(total.retransmissions, 0u);
  EXPECT_GT(total.dispatch_timeouts, 0u);
  EXPECT_GT(total.duplicate_suppressed, 0u);
  EXPECT_GT(total.stale_epoch_rejected, 0u);
  EXPECT_GT(total.late_acks, 0u);
}

/// Asymmetric partitions, both one-way directions forced explicitly.
/// kDeaf starves the node of requests AND renewals while its old acks
/// still arrive.  kZombie: the node keeps receiving and executing, every
/// reply and grant it sends is lost — exactly-once then rests entirely on
/// the node dedup table absorbing the blind retransmissions.
TEST(NetworkTortureTest, AsymmetricPartitionsHoldTheInvariants) {
  for (NodeFaultSpec::Kind kind :
       {NodeFaultSpec::Kind::kDeaf, NodeFaultSpec::Kind::kZombie}) {
    const bool zombie = kind == NodeFaultSpec::Kind::kZombie;
    for (uint64_t seed : {5u, 9u}) {
      PlaneTortureOptions opt = NetworkOptions(seed);
      opt.dir = FreshDir(std::string("net_torture_oneway_") +
                         (zombie ? "zombie" : "deaf") + "_" +
                         std::to_string(seed));
      AddPartition(opt, kind);
      const std::string tag = std::string(zombie ? "zombie" : "deaf") +
                              " seed=" + std::to_string(seed);
      auto r = RunPlaneTorture(opt);
      ASSERT_TRUE(r.ok()) << tag << ": " << r.status().ToString();
      ExpectInvariants(*r, tag);
      EXPECT_GT(r->total_resumed, 0u) << tag;
      EXPECT_GT(r->transport.partitioned, 0u) << tag;
      if (zombie) {
        // The reply-loss direction forces blind retransmissions into a
        // node that already executed: the dedup table must have absorbed
        // some of them for the run to stay exactly-once.
        EXPECT_GT(r->duplicate_suppressed, 0u) << tag;
      }
    }
  }
}

TEST(NetworkTortureTest, EverythingAtOnceSoak) {
  // The worst corner: every fault kind live at once, storm + outage
  // overlays, and a mid-run control-plane crash, over a longer horizon.
  for (uint64_t seed : {3u, 11u, 29u}) {
    PlaneTortureOptions opt = NetworkOptions(seed);
    opt.dir = FreshDir("net_torture_soak_" + std::to_string(seed));
    opt.steps = 320;
    opt.drop_p = 0.10;
    opt.duplicate_p = 0.10;
    opt.delay_p = 0.10;
    AddPartition(opt, kPartitionKinds[seed % 3]);
    opt.storm = true;
    opt.outage = true;
    opt.crash_at_step = 150;
    const std::string tag = "soak seed=" + std::to_string(seed);
    auto r = RunPlaneTorture(opt);
    ASSERT_TRUE(r.ok()) << tag << ": " << r.status().ToString();
    ExpectInvariants(*r, tag);
    EXPECT_EQ(r->recoveries, 1) << tag;
    EXPECT_GT(r->total_resumed, 0u) << tag;
    EXPECT_GT(r->retransmissions, 0u) << tag;
  }
}

}  // namespace
}  // namespace prorp::sim
