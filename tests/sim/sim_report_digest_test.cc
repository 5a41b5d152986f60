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
// field but event_queue_bytes and control_plane_replayed) and the exact
// event_queue_bytes, so a change of queue storage moves only the second.
// Each cell also pins resume_ticks_skipped, the Algorithm 5 ticks counted
// instead of run, beside event_queue_bytes and outside the digest.  The
// crash cells also pin control_plane_replayed on its own, so a change of
// what the journal holds moves only that count.  A refactor must leave
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
  uint64_t ticks_skipped = 0;  // resume_ticks_skipped
};

void ExpectPinned(const SimReport& r, const Pinned& pinned,
                  const std::string& name) {
  const uint64_t digest = SimBehaviourDigest(r);
  EXPECT_EQ(digest, pinned.behaviour)
      << name << ": behaviour digest 0x" << std::hex << digest;
  EXPECT_EQ(r.event_queue_bytes, pinned.queue_bytes) << name;
  EXPECT_EQ(r.resume_ticks_skipped, pinned.ticks_skipped) << name;
}

/// Journal records replayed by the one recovery of the
/// proactive_journal_crash cell (and of its lite-metadata and SQL-scan
/// reruns, which journal the same records).
constexpr uint64_t kJournalCellReplayed = 3536;

struct Cell {
  std::string name;
  SimOptions options;
  Pinned pinned;
};

std::vector<Cell> Cells() {
  std::vector<Cell> cells;
  cells.push_back({"proactive_plain", BaseOptions(PolicyMode::kProactive),
                   {0x14cf266c2565b1dcULL, 11264, 44808}});

  SimOptions storm = BaseOptions(PolicyMode::kProactive);
  Storm(storm);
  storm.maintenance_interval = Hours(6);
  storm.maintenance_batch = 4;
  cells.push_back({"proactive_storm", storm, {0xa415d39db606b86cULL, 11264, 44183}});

  SimOptions outages = BaseOptions(PolicyMode::kProactive);
  outages.num_nodes = 4;
  outages.outage_rate_per_day = 1.0;
  outages.outage_duration = Minutes(20);
  outages.resume_failure_probability = 0.05;
  cells.push_back(
      {"proactive_outages", outages, {0x8bb3bab43d608a73ULL, 11264, 44621}});

  SimOptions journal = BaseOptions(PolicyMode::kProactive);
  journal.control_plane_crash_at = kMeasureFrom + Days(2) + Hours(3);
  cells.push_back(
      {"proactive_journal_crash", journal, {0x393b3fb2c2a55adeULL, 11264, 44808}});

  SimOptions transport = BaseOptions(PolicyMode::kProactive);
  transport.num_nodes = 4;
  transport.failure_detection_enabled = true;
  transport.node_crash_node = 1;
  transport.node_crash_at = kMeasureFrom + Days(1) + Hours(18);
  transport.node_crash_duration = Days(1);
  cells.push_back({"proactive_transport_failover", transport,
                   {0xcd8b8de2728b8c12ULL, 11264, 44797}});

  cells.push_back({"reactive_plain", BaseOptions(PolicyMode::kReactive),
                   {0xe868d28a7162f068ULL, 9344}});

  SimOptions reactive_storm = BaseOptions(PolicyMode::kReactive);
  Storm(reactive_storm);
  cells.push_back(
      {"reactive_storm", reactive_storm, {0x9118a2c84f00fbc6ULL, 9344}});
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
    EXPECT_EQ(r->control_plane_replayed,
              dir.empty() ? 0u : kJournalCellReplayed)
        << cell.name;
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
    EXPECT_EQ(r->control_plane_replayed, kJournalCellReplayed);
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
       {0x7dfc2a6cd45a1333ULL, 9728, 44864},
       {0x7a9dd4e78259fccaULL, 4864}},
      {workload::RegionUS1(),
       {0xae1138f69fa00b59ULL, 11264, 44740},
       {0x20faa430e31a75e4ULL, 9344}},
      {workload::RegionUS2(),
       {0xf94ee21db13bd4deULL, 11264, 44741},
       {0x2b4c4e63e27823f1ULL, 9344}},
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
// event_queue_bytes, which only describes the queue, and
// control_plane_replayed) of the run that both queues produced, so the
// cells keep that cross-check's verdict now that the simulator has one
// queue.
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
      {PolicyMode::kReactive, 0xe97bb03197c17474ULL, 0xf848b415ab5da8acULL},
      {PolicyMode::kProactive, 0x114d6b87e0d17098ULL, 0xd5005a1e2478909cULL},
      {PolicyMode::kAlwaysOn, 0xe8c478e6a3ed7e40ULL, 0x0631674b9d482fa7ULL},
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
      {1, 0x66b73888a49d3cadULL},
      {7, 0x97cc588a9ce70537ULL},
      {99, 0x54d77699217e9c8fULL}};
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
  ExpectOracleDigest(traces, options, 0x2a6c195d3c6b70aeULL, "outages");
}

TEST(SimReportDigestTest, OracleUnderResumeStorm) {
  auto traces = workload::GenerateFleet(workload::RegionEU1(), 40, kT0,
                                        kOracleEnd, 9);
  SimOptions options = OracleOptions(PolicyMode::kProactive);
  options.resume_concurrency_per_node = 2;
  options.node_admission_rate = 0.5;
  options.fleet_outage_at = kOracleMeasureFrom + Days(1);
  options.fleet_outage_duration = Minutes(30);
  ExpectOracleDigest(traces, options, 0x6225d632e189ba95ULL, "storm");
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
  // Journal records the last recovery replayed, pinned apart from the
  // behaviour digest.
  EXPECT_EQ(r->control_plane_replayed, 1958u);
  const uint64_t digest = SimBehaviourDigest(*r);
  EXPECT_EQ(digest, 0xec871ce963ccb013ULL) << "digest 0x" << std::hex << digest;
}

}  // namespace
}  // namespace prorp::sim
