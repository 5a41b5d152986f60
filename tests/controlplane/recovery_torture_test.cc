// The control-plane crash-torture matrix: every cp_* crash point x seeds
// under storm and outage pressure, plus a journal-fault soak, all driven
// through the plane torture harness over a fault-free wire (every
// dispatch resolves inline with the node's verdict), and the crash
// points once more over a lossy wire.

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "faults/crash_points.h"
#include "sim/plane_torture.h"

namespace prorp::sim {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// The recovery workload: a two-hour run whose node executions fail
/// transiently one time in ten.
PlaneTortureOptions RecoveryOptions(uint64_t seed) {
  PlaneTortureOptions opts;
  opts.seed = seed;
  opts.steps = 120;
  opts.fail_probability = 0.10;
  return opts;
}

void ExpectInvariants(const PlaneTortureResult& r, const std::string& label) {
  EXPECT_EQ(r.lost_reactive, 0u) << label << ": accepted reactive login lost";
  EXPECT_EQ(r.duplicate_resumes, 0u) << label << ": double resume";
  EXPECT_EQ(r.double_applies, 0u) << label << ": request applied twice";
  EXPECT_EQ(r.stale_epoch_applied, 0u) << label << ": stale epoch applied";
  EXPECT_TRUE(r.accounting_ok) << label << ": accounting did not reconcile";
  EXPECT_FALSE(r.breaker_recovered_closed_early)
      << label << ": open breaker recovered closed";
}

TEST(RecoveryTortureTest, CleanRunHasNoRecoveries) {
  PlaneTortureOptions opts = RecoveryOptions(1);
  opts.dir = FreshDir("rt_clean");
  auto result = RunPlaneTorture(opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->crash_fired);
  EXPECT_EQ(result->recoveries, 0);
  EXPECT_GT(result->accepted_reactive, 0u);
  EXPECT_GT(result->total_resumed, 0u);
  ExpectInvariants(*result, "clean");
}

TEST(RecoveryTortureTest, CountingPassObservesEveryControlPlanePoint) {
  PlaneTortureOptions opts = RecoveryOptions(2);
  opts.dir = FreshDir("rt_observe");
  opts.storm = true;
  auto hits = ObservePlaneCrashPoints(opts);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  for (std::string_view point : faults::ControlPlaneCrashPoints()) {
    EXPECT_GT((*hits)[std::string(point)], 0u) << point;
  }
}

/// nth choices covering the first, a middle, and the last occurrence.
std::vector<uint64_t> NthChoices(uint64_t hits) {
  std::vector<uint64_t> nths{1};
  if (hits >= 3) nths.push_back((hits + 1) / 2);
  if (hits >= 2) nths.push_back(hits);
  return nths;
}

/// Kills the control plane at every nth choice of every cp_* crash point
/// that the counting pass over `base` proved is reached, recovers, and
/// asserts the recovery guarantees plus `check`.  Returns the cell count.
template <typename Check>
int RunCrashPointCells(const PlaneTortureOptions& base,
                       const std::string& prefix, Check check) {
  int cells = 0;
  PlaneTortureOptions count = base;
  count.dir = FreshDir(prefix + "_count_" + std::to_string(base.seed));
  auto hits = ObservePlaneCrashPoints(count);
  EXPECT_TRUE(hits.ok()) << hits.status().ToString();
  if (!hits.ok()) return 0;
  for (std::string_view point : faults::ControlPlaneCrashPoints()) {
    uint64_t observed = (*hits)[std::string(point)];
    EXPECT_GT(observed, 0u) << "seed " << base.seed << " never reached "
                            << point;
    if (observed == 0) continue;
    for (uint64_t nth : NthChoices(observed)) {
      PlaneTortureOptions opts = base;
      opts.crash_point = std::string(point);
      opts.crash_nth = nth;
      // For the pre-sync point, odd seeds tear the frame (payload
      // selects a non-empty prefix), even seeds let it survive whole.
      if (point == faults::kCpJournalPreSync && base.seed % 2 == 1) {
        opts.crash_payload = 1 + base.seed;
      }
      const std::string label = prefix + "/" + std::string(point) +
                                "/seed" + std::to_string(base.seed) +
                                "/nth" + std::to_string(nth);
      opts.dir = FreshDir(prefix + "_" + std::to_string(base.seed) + "_" +
                          std::to_string(nth) + "_" + std::string(point));
      auto result = RunPlaneTorture(opts);
      EXPECT_TRUE(result.ok()) << label << ": "
                               << result.status().ToString();
      if (!result.ok()) continue;
      EXPECT_TRUE(result->crash_fired) << label;
      EXPECT_GE(result->recoveries, 1) << label;
      check(*result, label);
      ++cells;
    }
  }
  return cells;
}

/// Every control-plane crash point, >= 8 seeds, under storm and outage
/// pressure.  Each cell kills the control plane at a crash site that the
/// counting pass proved is actually reached, recovers, and asserts the
/// recovery guarantees.
TEST(RecoveryTortureTest, MatrixEveryPointManySeeds) {
  int cells = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    PlaneTortureOptions base = RecoveryOptions(seed);
    base.storm = (seed % 2 == 0);
    base.outage = (seed % 4 < 2);
    base.checkpoint_every = (seed % 3 == 0) ? 32 : 64;
    cells += RunCrashPointCells(base, "rt", ExpectInvariants);
  }
  // 8 seeds x 4 points x up to 3 nth choices.
  EXPECT_GE(cells, 32);
}

/// The crash points once more over a lossy wire: drops and delays leave
/// dispatches unacked and floaters in flight when the plane dies, so
/// recovery reconciles against the node while the wire still carries the
/// dead incarnation's traffic.  duplicate_resumes is not an invariant
/// here: a timed-out dispatch is re-sent with a fresh request id.
TEST(RecoveryTortureTest, CrashPointsOnALossyWire) {
  int cells = 0;
  for (uint64_t seed : {1u, 2u}) {
    PlaneTortureOptions base = RecoveryOptions(seed);
    base.drop_p = 0.08;
    base.delay_p = 0.08;
    cells += RunCrashPointCells(
        base, "rt_lossy",
        [](const PlaneTortureResult& r, const std::string& label) {
          EXPECT_EQ(r.lost_reactive, 0u) << label;
          EXPECT_EQ(r.double_applies, 0u) << label;
          EXPECT_EQ(r.stale_epoch_applied, 0u) << label;
          EXPECT_TRUE(r.accounting_ok) << label;
          EXPECT_TRUE(r.drained) << label;
        });
  }
  // 2 seeds x 4 points x at least one nth choice.
  EXPECT_GE(cells, 8);
}

/// Journal I/O fault soak: every incarnation runs under a probabilistic
/// WAL append/sync fault plan (alternating plain I/O errors and ENOSPC),
/// so the run crashes and recovers many times at arbitrary transitions.
TEST(RecoveryTortureTest, JournalFaultSoakSurvivesRepeatedCrashes) {
  for (uint64_t seed : {3u, 11u, 27u}) {
    PlaneTortureOptions opts = RecoveryOptions(seed);
    opts.dir = FreshDir("rt_soak_" + std::to_string(seed));
    opts.storm = true;
    opts.outage = (seed % 2 == 1);
    opts.journal_fault_probability = 0.002;
    opts.max_recoveries = 128;
    auto result = RunPlaneTorture(opts);
    ASSERT_TRUE(result.ok())
        << "seed " << seed << ": " << result.status().ToString();
    EXPECT_GE(result->recoveries, 1) << "seed " << seed;
    ExpectInvariants(*result, "soak/seed" + std::to_string(seed));
  }
}

}  // namespace
}  // namespace prorp::sim
