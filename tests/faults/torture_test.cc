// Crash-torture matrix: for every registered crash point, across many
// seeds, crash the storage engine at that point, reopen, and verify that
// recovery succeeds, no acknowledged operation is lost, and the B+tree
// invariants hold.  Registered under the `torture` ctest label.

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "faults/crash_points.h"
#include "faults/torture.h"

namespace prorp::faults {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// nth choices covering the first, a middle, and the last occurrence.
std::vector<uint64_t> NthChoices(uint64_t hits) {
  std::vector<uint64_t> nths{1};
  if (hits >= 3) nths.push_back((hits + 1) / 2);
  if (hits >= 2) nths.push_back(hits);
  return nths;
}

class TortureMatrixTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TortureMatrixTest, TreeSurvivesCrashesAtEveryPoint) {
  const uint64_t seed = GetParam();

  // Config A exercises append, split, and checkpoint crash points.
  TortureOptions opts;
  opts.seed = seed;
  opts.num_ops = 500;
  opts.checkpoint_wal_bytes = 4096;  // several checkpoints per run

  auto hits_or =
      ObserveCrashPoints(opts, FreshDir("torture_observe_" +
                                        std::to_string(seed)));
  ASSERT_TRUE(hits_or.ok()) << hits_or.status().ToString();
  auto& hits = *hits_or;
  ASSERT_GT(hits[std::string(kWalAppendPartial)], 0u);
  ASSERT_GT(hits[std::string(kBtreeMidSplit)], 0u);
  ASSERT_GT(hits[std::string(kSnapshotMidCopy)], 0u);

  for (const auto& [point, count] : hits) {
    if (count == 0) continue;
    for (uint64_t nth : NthChoices(count)) {
      std::string dir =
          FreshDir("torture_" + point + "_" + std::to_string(seed) + "_" +
                   std::to_string(nth));
      auto result = RunCrashTorture(opts, dir, point, nth);
      ASSERT_TRUE(result.ok())
          << "point=" << point << " nth=" << nth
          << " seed=" << seed << ": " << result.status().ToString();
      EXPECT_TRUE(result->crashed)
          << "point=" << point << " nth=" << nth << " never fired";
      EXPECT_LE(result->acked_ops, opts.num_ops);
    }
  }
}

TEST_P(TortureMatrixTest, TreeSurvivesCrashBeforeSync) {
  const uint64_t seed = GetParam();

  // Config B: fsync on every append reaches wal_pre_sync.
  TortureOptions opts;
  opts.seed = seed;
  opts.num_ops = 200;
  opts.fsync_each_append = true;
  opts.checkpoint_wal_bytes = 0;

  auto hits_or = ObserveCrashPoints(
      opts, FreshDir("torture_sync_observe_" + std::to_string(seed)));
  ASSERT_TRUE(hits_or.ok()) << hits_or.status().ToString();

  // wal_pre_sync sits after the frame reached the file and before its
  // fsync: the record may survive the crash but was never acknowledged.
  const std::string point(kWalPreSync);
  uint64_t count = (*hits_or)[point];
  ASSERT_GT(count, 0u) << point;

  for (uint64_t nth : NthChoices(count)) {
    std::string dir = FreshDir("torture_sync_" + point + "_" +
                               std::to_string(seed) + "_" +
                               std::to_string(nth));
    auto result = RunCrashTorture(opts, dir, point, nth);
    ASSERT_TRUE(result.ok())
        << "point=" << point << " nth=" << nth << " seed=" << seed << ": "
        << result.status().ToString();
    EXPECT_TRUE(result->crashed) << point;
  }
}

TEST_P(TortureMatrixTest, SqlHistoryStoreSurvivesCrashes) {
  const uint64_t seed = GetParam();

  TortureOptions opts;
  opts.seed = seed;
  opts.num_ops = 400;
  opts.checkpoint_wal_bytes = 4096;

  auto hits_or = ObserveSqlCrashPoints(
      opts, FreshDir("sql_torture_observe_" + std::to_string(seed)));
  ASSERT_TRUE(hits_or.ok()) << hits_or.status().ToString();

  for (const auto& [point, count] : *hits_or) {
    if (count == 0) continue;
    // First and last occurrence: the SQL stack is slower, so torture a
    // smaller slice of the matrix per seed.
    std::vector<uint64_t> nths{1};
    if (count >= 2) nths.push_back(count);
    for (uint64_t nth : nths) {
      std::string dir =
          FreshDir("sql_torture_" + point + "_" + std::to_string(seed) +
                   "_" + std::to_string(nth));
      auto result = RunSqlCrashTorture(opts, dir, point, nth);
      ASSERT_TRUE(result.ok())
          << "point=" << point << " nth=" << nth
          << " seed=" << seed << ": " << result.status().ToString();
      EXPECT_TRUE(result->crashed)
          << "point=" << point << " nth=" << nth << " never fired";
    }
  }
}

// >= 20 seeds, as the acceptance bar demands.
INSTANTIATE_TEST_SUITE_P(Seeds, TortureMatrixTest,
                         ::testing::Range<uint64_t>(1, 21));

TEST(TortureHarnessTest, UnreachedNthDegeneratesToCleanRun) {
  TortureOptions opts;
  opts.seed = 3;
  opts.num_ops = 50;
  std::string dir = FreshDir("torture_unreached");
  auto result = RunCrashTorture(opts, dir, kWalAppendPartial, 1'000'000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->crashed);
  EXPECT_EQ(result->acked_ops, 50u);
}

TEST(TortureHarnessTest, ObserveReportsAllPointsForSyncedWorkload) {
  TortureOptions opts;
  opts.seed = 5;
  opts.num_ops = 400;
  opts.fsync_each_append = true;
  opts.checkpoint_wal_bytes = 4096;
  auto hits = ObserveCrashPoints(opts, FreshDir("torture_observe_all"));
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  for (std::string_view point : StorageCrashPoints()) {
    EXPECT_GT((*hits)[std::string(point)], 0u) << point;
  }
}

}  // namespace
}  // namespace prorp::faults
