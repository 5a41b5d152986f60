// Golden behaviour digest of the fleet simulator: an FNV-1a 64-bit hash
// over the whole SimReport (KPIs, event counters, the buffered recorder,
// phase durations, diagnostics, robustness counters, every Summary as
// count + p50 + p99, and the log2 histograms) for a fixed grid of small
// fleets: the proactive policy plain, under the storm layer with a fleet
// outage and maintenance load, under random outages with injected resume
// failures, journaled with a control-plane crash, and over the transport
// with failure detection and a node crash; the reactive policy plain and
// under the storm layer.  The other three regions each get a plain
// proactive and a plain reactive cell on their own fleet, at the region's
// eviction rate.  Each cell pins two values: the behaviour digest (every
// field but event_queue_bytes) and the exact event_queue_bytes, so a
// change of queue storage moves only the second.  A refactor must leave
// every constant unchanged; changing one is a deliberate, reviewed edit.

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
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
constexpr EpochSeconds kMeasureFrom = kT0 + Days(28);
constexpr EpochSeconds kEnd = kT0 + Days(32);

SimOptions BaseOptions(PolicyMode mode) {
  SimOptions options;
  options.mode = mode;
  options.measure_from = kMeasureFrom;
  options.end = kEnd;
  options.seed = 7;
  return options;
}

void Storm(SimOptions& options) {
  options.num_nodes = 4;
  options.resume_concurrency_per_node = 2;
  options.node_admission_rate = 0.5;
  options.fleet_outage_at = kMeasureFrom + Days(1);
  options.fleet_outage_duration = Minutes(30);
  ControlPlaneConfig& cp = options.config.control_plane;
  cp.queue_capacity = 16;
  cp.admission_control_enabled = true;
  cp.deadline_hedging_enabled = true;
  cp.catch_up_enabled = true;
  cp.breaker_window = 8;
  cp.storm_due_burst_threshold = 3;
  cp.storm_login_spike_threshold = 4;
  cp.storm_recovery_backlog = 2;
}

/// A run's two pinned values.
struct Pinned {
  uint64_t behaviour;    // SimBehaviourDigest
  uint64_t queue_bytes;  // event_queue_bytes
};

void ExpectPinned(const SimReport& r, const Pinned& pinned,
                  const std::string& name) {
  const uint64_t digest = SimBehaviourDigest(r);
  EXPECT_EQ(digest, pinned.behaviour)
      << name << ": behaviour digest 0x" << std::hex << digest;
  EXPECT_EQ(r.event_queue_bytes, pinned.queue_bytes) << name;
}

struct Cell {
  std::string name;
  SimOptions options;
  Pinned pinned;
};

std::vector<Cell> Cells() {
  std::vector<Cell> cells;
  cells.push_back({"proactive_plain", BaseOptions(PolicyMode::kProactive),
                   {0x7d5d28547563963cULL, 11264}});

  SimOptions storm = BaseOptions(PolicyMode::kProactive);
  Storm(storm);
  storm.maintenance_interval = Hours(6);
  storm.maintenance_batch = 4;
  cells.push_back({"proactive_storm", storm, {0xd05c4c127fcaa42cULL, 11264}});

  SimOptions outages = BaseOptions(PolicyMode::kProactive);
  outages.num_nodes = 4;
  outages.outage_rate_per_day = 1.0;
  outages.outage_duration = Minutes(20);
  outages.resume_failure_probability = 0.05;
  cells.push_back(
      {"proactive_outages", outages, {0xe64078381d822953ULL, 11264}});

  SimOptions journal = BaseOptions(PolicyMode::kProactive);
  journal.control_plane_crash_at = kMeasureFrom + Days(2) + Hours(3);
  cells.push_back(
      {"proactive_journal_crash", journal, {0x7ba413a2d345fc7aULL, 11264}});

  SimOptions transport = BaseOptions(PolicyMode::kProactive);
  transport.num_nodes = 4;
  transport.failure_detection_enabled = true;
  transport.node_crash_node = 1;
  transport.node_crash_at = kMeasureFrom + Days(1) + Hours(18);
  transport.node_crash_duration = Days(1);
  cells.push_back({"proactive_transport_failover", transport,
                   {0x686cf6c81443d852ULL, 11264}});

  cells.push_back({"reactive_plain", BaseOptions(PolicyMode::kReactive),
                   {0x89cce61cc2015768ULL, 9344}});

  SimOptions reactive_storm = BaseOptions(PolicyMode::kReactive);
  Storm(reactive_storm);
  cells.push_back(
      {"reactive_storm", reactive_storm, {0x7d470a93809bd4e6ULL, 9344}});
  return cells;
}

TEST(SimReportDigestTest, GridIsBitIdentical) {
  const auto traces =
      workload::GenerateFleet(workload::RegionEU1(), 60, kT0, kEnd, 13);
  for (Cell& cell : Cells()) {
    std::string dir;
    if (cell.name == "proactive_journal_crash") {
      dir = testing::TempDir() + "/sim_digest_journal";
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      cell.options.control_plane_journal_dir = dir;
    }
    auto r = RunFleetSimulation(traces, cell.options);
    ASSERT_TRUE(r.ok()) << cell.name << ": " << r.status().ToString();
    ExpectPinned(*r, cell.pinned, cell.name);
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
}

/// Runs the proactive_journal_crash cell, journal in a scratch directory
/// named `dir_name`, with `adjust` applied to its options, and expects the
/// cell's pinned values and one recovery.
void ExpectJournalCellDigest(const std::string& dir_name,
                             void (*adjust)(SimOptions&)) {
  const auto traces =
      workload::GenerateFleet(workload::RegionEU1(), 60, kT0, kEnd, 13);
  for (Cell& cell : Cells()) {
    if (cell.name != "proactive_journal_crash") continue;
    const std::string dir = testing::TempDir() + "/" + dir_name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    cell.options.control_plane_journal_dir = dir;
    adjust(cell.options);
    auto r = RunFleetSimulation(traces, cell.options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->control_plane_recoveries, 1u);
    ExpectPinned(*r, cell.pinned, cell.name);
    std::filesystem::remove_all(dir);
    return;
  }
  FAIL() << "no proactive_journal_crash cell";
}

TEST(SimReportDigestTest, LiteMetadataDurableRunMatchesMirroredDigest) {
  // use_lite_metadata on the durable path, as perfbench sets it: the flag
  // no longer changes the backing (every run without the SQL scan is
  // index-only), and the run, crash and recovery included, reports
  // exactly the journal cell's digest, pinned when that cell still kept
  // the SQL mirror.
  ExpectJournalCellDigest("sim_digest_journal_lite", [](SimOptions& o) {
    o.use_lite_metadata = true;
  });
}

TEST(SimReportDigestTest, SqlScanJournalRunMatchesIndexDigest) {
  // Algorithm 5's literal SQL scan returns the due databases in the
  // index's (predicted start, id) order, so the run that selects through
  // it, crash and recovery included, reports the journal cell's digest.
  ExpectJournalCellDigest("sim_digest_journal_sql", [](SimOptions& o) {
    o.use_sql_scan_for_resume_op = true;
  });
}

TEST(SimReportDigestTest, OtherRegionsAreBitIdentical) {
  struct RegionCell {
    workload::RegionProfile profile;
    Pinned proactive;
    Pinned reactive;
  };
  const RegionCell regions[] = {
      {workload::RegionEU2(),
       {0xdc922749fd42b033ULL, 9728},
       {0x4269c4cc468d410aULL, 4864}},
      {workload::RegionUS1(),
       {0xd3d04fda3b5fc259ULL, 11264},
       {0xa2fe8fd6a4fa34a4ULL, 9344}},
      {workload::RegionUS2(),
       {0xa1d3372b630f1bbeULL, 11264},
       {0xfd5759f6eef9e4d1ULL, 9344}},
  };
  for (const RegionCell& region : regions) {
    const auto traces =
        workload::GenerateFleet(region.profile, 60, kT0, kEnd, 13);
    for (PolicyMode mode : {PolicyMode::kProactive, PolicyMode::kReactive}) {
      SimOptions options = BaseOptions(mode);
      options.eviction_per_hour = region.profile.eviction_per_hour;
      auto r = RunFleetSimulation(traces, options);
      const std::string name = region.profile.name + " " +
                               std::string(policy::PolicyModeName(mode));
      ASSERT_TRUE(r.ok()) << name << ": " << r.status().ToString();
      ExpectPinned(*r,
                   mode == PolicyMode::kProactive ? region.proactive
                                                  : region.reactive,
                   name);
    }
  }
}

// The Oracle* cells are the twelve runs that cross-checked the timer wheel
// against a global binary-heap event queue: 35-day fleets measured over
// their last five days.  Each constant is the behaviour digest (all but
// event_queue_bytes, which only describes the queue) that both queues
// produced, so the cells keep that cross-check's verdict now that the
// simulator has one queue.
constexpr EpochSeconds kOracleMeasureFrom = kT0 + Days(30);
constexpr EpochSeconds kOracleEnd = kT0 + Days(35);

SimOptions OracleOptions(PolicyMode mode, uint64_t seed = 7) {
  SimOptions options;
  options.mode = mode;
  options.measure_from = kOracleMeasureFrom;
  options.end = kOracleEnd;
  options.seed = seed;
  return options;
}

void ExpectOracleDigest(const std::vector<workload::DbTrace>& traces,
                        const SimOptions& options, uint64_t expected,
                        const std::string& name) {
  auto r = RunFleetSimulation(traces, options);
  ASSERT_TRUE(r.ok()) << name << ": " << r.status().ToString();
  const uint64_t digest = SimBehaviourDigest(*r);
  EXPECT_EQ(digest, expected) << name << ": digest 0x" << std::hex << digest;
}

TEST(SimReportDigestTest, OracleAllModesAndRegions) {
  struct ModeCell {
    PolicyMode mode;
    uint64_t eu1;
    uint64_t us1;
  };
  const ModeCell cells[] = {
      {PolicyMode::kReactive, 0xb06082f8c511e9d4ULL, 0x57f94e0fe81e6eacULL},
      {PolicyMode::kProactive, 0xc76d3e429b8abbf8ULL, 0xe286cfecc20d747cULL},
      {PolicyMode::kAlwaysOn, 0x0ef29c529b9294c0ULL, 0x73a9ecaa7cecd407ULL},
  };
  for (const ModeCell& cell : cells) {
    for (const auto& profile : {workload::RegionEU1(), workload::RegionUS1()}) {
      auto traces = workload::GenerateFleet(profile, 40, kT0, kOracleEnd, 11);
      ExpectOracleDigest(
          traces, OracleOptions(cell.mode),
          profile.name == workload::RegionEU1().name ? cell.eu1 : cell.us1,
          profile.name + " " + std::string(policy::PolicyModeName(cell.mode)));
    }
  }
}

TEST(SimReportDigestTest, OracleAcrossSeeds) {
  auto traces = workload::GenerateFleet(workload::RegionEU2(), 40, kT0,
                                        kOracleEnd, 23);
  const std::pair<uint64_t, uint64_t> seeds[] = {
      {1, 0x175e77e136b70c0dULL},
      {7, 0x8afd194316bf81d7ULL},
      {99, 0xe2d6b7034d5e24afULL}};
  for (const auto& [seed, expected] : seeds) {
    SimOptions options = OracleOptions(PolicyMode::kProactive, seed);
    options.eviction_per_hour = 0.2;
    ExpectOracleDigest(traces, options, expected,
                       "seed " + std::to_string(seed));
  }
}

TEST(SimReportDigestTest, OracleUnderNodeOutages) {
  auto traces = workload::GenerateFleet(workload::RegionUS2(), 40, kT0,
                                        kOracleEnd, 5);
  SimOptions options = OracleOptions(PolicyMode::kProactive);
  options.num_nodes = 4;
  options.outage_rate_per_day = 1.0;
  options.outage_duration = Minutes(20);
  options.resume_failure_probability = 0.05;
  ExpectOracleDigest(traces, options, 0x3a68b049e02f42ceULL, "outages");
}

TEST(SimReportDigestTest, OracleUnderResumeStorm) {
  auto traces = workload::GenerateFleet(workload::RegionEU1(), 40, kT0,
                                        kOracleEnd, 9);
  SimOptions options = OracleOptions(PolicyMode::kProactive);
  options.resume_concurrency_per_node = 2;
  options.node_admission_rate = 0.5;
  options.fleet_outage_at = kOracleMeasureFrom + Days(1);
  options.fleet_outage_duration = Minutes(30);
  ExpectOracleDigest(traces, options, 0x43bebb6dfe195255ULL, "storm");
}

TEST(SimReportDigestTest, OracleUnderControlPlaneCrash) {
  auto traces = workload::GenerateFleet(workload::RegionEU1(), 30, kT0,
                                        kOracleEnd, 13);
  const std::string dir = testing::TempDir() + "/sim_digest_oracle_journal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SimOptions options = OracleOptions(PolicyMode::kProactive);
  options.control_plane_crash_at = kOracleMeasureFrom + Days(2);
  options.control_plane_journal_dir = dir;
  auto r = RunFleetSimulation(traces, options);
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r->control_plane_recoveries, 1u);
  const uint64_t digest = SimBehaviourDigest(*r);
  EXPECT_EQ(digest, 0x0eeb9a33e79e1d3dULL) << "digest 0x" << std::hex << digest;
}

}  // namespace
}  // namespace prorp::sim
