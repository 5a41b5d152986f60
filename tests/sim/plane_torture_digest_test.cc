// Golden behaviour digest of the control-plane torture harness: an
// FNV-1a 64-bit hash over every result field a failover cell reports
// (counters, per-phase Summaries as count + p50 + p99, TransportStats)
// for a fixed set of failover cells.  A refactor of the harness must
// leave every constant unchanged; changing one is a deliberate, reviewed
// edit.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "golden_digest.h"
#include "sim/plane_torture.h"

namespace prorp::sim {
namespace {

using golden::Fnv1a;

uint64_t Digest(const PlaneTortureResult& r) {
  Fnv1a h;
  h.Add(static_cast<uint64_t>(r.recoveries));
  for (uint64_t v :
       {r.accepted_reactive, r.lost_reactive, r.double_applies,
        r.stale_epoch_applied, r.double_live, r.fence_violations,
        r.deaths_declared, r.failover_requeues, r.failover_deduped,
        r.diverted_dispatches, r.self_quiesces, r.lease_expired_rejected,
        r.lease_probes, r.node_rejoins, r.suspects_gray_failure,
        r.incidents, r.dispatch_timeouts, r.retransmissions,
        r.total_resumed}) {
    h.Add(v);
  }
  h.Add(static_cast<uint64_t>(r.accounting_ok));
  h.Add(static_cast<uint64_t>(r.drained));
  h.Add(r.detection_delay);
  h.Add(r.replacement_delay);
  h.Add(r.login_wait);
  const net::TransportStats& t = r.transport;
  for (uint64_t v : {t.sent, t.delivered, t.dropped, t.duplicated,
                     t.delayed, t.partitioned, t.unroutable}) {
    h.Add(v);
  }
  return h.value();
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

struct Cell {
  std::string name;
  PlaneTortureOptions options;
  uint64_t digest;
};

std::vector<Cell> Cells() {
  std::vector<Cell> cells;
  // The six `bench_failover --smoke` torture cells.
  NodeFaultSpec slow = Fault(NodeFaultSpec::Kind::kSlow, 3, 40, 80);
  slow.slow_delay = 80;
  const struct {
    const char* name;
    NodeFaultSpec fault;
    int steps;
    uint64_t digest_detect;
    uint64_t digest_passive;
  } bench[] = {
      {"crash", Fault(NodeFaultSpec::Kind::kCrash, 2, 40, 60), 200,
       0x902a3fb809c8fa4bULL, 0x2d9a6d8a12aebf02ULL},
      {"zombie", Fault(NodeFaultSpec::Kind::kZombie, 1, 50, 30), 200,
       0xc8cad6e07a86f53aULL, 0x115a7ff40f69768eULL},
      {"slow", slow, 240, 0xf86e213a9b26bee3ULL, 0xd675c54bb17fa43fULL},
  };
  for (const auto& b : bench) {
    for (bool detect : {true, false}) {
      PlaneTortureOptions opt;
      opt.num_dbs = 32;
      opt.seed = 11;
      opt.steps = b.steps;
      opt.detection_enabled = detect;
      opt.faults = {b.fault};
      cells.push_back({std::string("bench_") + b.name +
                           (detect ? "_detect" : "_passive"),
                       opt, detect ? b.digest_detect : b.digest_passive});
    }
  }
  // FailoverTortureTest.PlaneCrashMidFailoverIsExactlyOnce.
  const uint64_t plane_crash_digests[] = {
      0xda6dbf0b31e85320ULL, 0xdb052d533d288d36ULL, 0xa345b07e0bba6d4cULL};
  int i = 0;
  for (int crash_at : {44, 48, 52}) {
    PlaneTortureOptions opt;
    opt.seed = 41 + static_cast<uint64_t>(crash_at);
    opt.crash_at_step = crash_at;
    opt.faults = {Fault(NodeFaultSpec::Kind::kCrash, 2, 40, 60)};
    cells.push_back({"plane_crash_" + std::to_string(crash_at), opt,
                     plane_crash_digests[i++]});
  }
  // FailoverTortureTest.CrashUnderMessageChaos.
  const uint64_t chaos_digests[] = {
      0xd827893e5ab5607aULL, 0x743c935076a257a7ULL, 0x839559a6a4fa4d29ULL};
  i = 0;
  for (uint64_t seed : {21, 22, 23}) {
    PlaneTortureOptions opt;
    opt.seed = seed;
    opt.drop_p = 0.10;
    opt.duplicate_p = 0.10;
    opt.delay_p = 0.10;
    opt.faults = {Fault(NodeFaultSpec::Kind::kCrash, 3, 60, 50)};
    cells.push_back(
        {"chaos_" + std::to_string(seed), opt, chaos_digests[i++]});
  }
  return cells;
}

TEST(PlaneTortureDigestTest, FailoverCellsAreBitIdentical) {
  for (Cell& cell : Cells()) {
    cell.options.dir = testing::TempDir() + "/digest_" + cell.name;
    std::filesystem::remove_all(cell.options.dir);
    std::filesystem::create_directories(cell.options.dir);
    auto r = RunPlaneTorture(cell.options);
    ASSERT_TRUE(r.ok()) << cell.name << ": " << r.status().ToString();
    const uint64_t digest = Digest(*r);
    EXPECT_EQ(digest, cell.digest)
        << cell.name << ": digest 0x" << std::hex << digest;
  }
}

}  // namespace
}  // namespace prorp::sim
