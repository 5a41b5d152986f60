#include "faults/fault_plan.h"

#include <gtest/gtest.h>

#include "faults/crash_points.h"

namespace prorp::faults {
namespace {

TEST(FaultPlanTest, ScriptedTriggerFiresExactlyOnNthOp) {
  FaultPlan plan(7);
  plan.FailNth(FaultOp::kDiskWrite, 3, FaultKind::kIoError);
  EXPECT_FALSE(plan.Next(FaultOp::kDiskWrite).has_value());
  EXPECT_FALSE(plan.Next(FaultOp::kDiskWrite).has_value());
  auto d = plan.Next(FaultOp::kDiskWrite);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->kind, FaultKind::kIoError);
  EXPECT_FALSE(plan.Next(FaultOp::kDiskWrite).has_value());
  EXPECT_EQ(plan.ops_seen(FaultOp::kDiskWrite), 4u);
  EXPECT_EQ(plan.injected(), 1u);
}

TEST(FaultPlanTest, ScriptedTriggersAreIndependentPerOp) {
  FaultPlan plan(7);
  plan.FailNth(FaultOp::kDiskRead, 1, FaultKind::kBitFlip);
  plan.FailNth(FaultOp::kWalAppend, 2, FaultKind::kTornWrite);
  // The disk-write stream sees no triggers at all.
  EXPECT_FALSE(plan.Next(FaultOp::kDiskWrite).has_value());
  auto r = plan.Next(FaultOp::kDiskRead);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->kind, FaultKind::kBitFlip);
  EXPECT_FALSE(plan.Next(FaultOp::kWalAppend).has_value());
  auto w = plan.Next(FaultOp::kWalAppend);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->kind, FaultKind::kTornWrite);
}

TEST(FaultPlanTest, MultipleScriptedTriggersOnOneOp) {
  FaultPlan plan(1);
  plan.FailNth(FaultOp::kWalAppend, 2, FaultKind::kIoError);
  plan.FailNth(FaultOp::kWalAppend, 4, FaultKind::kTornWrite);
  EXPECT_FALSE(plan.Next(FaultOp::kWalAppend).has_value());
  EXPECT_TRUE(plan.Next(FaultOp::kWalAppend).has_value());
  EXPECT_FALSE(plan.Next(FaultOp::kWalAppend).has_value());
  auto d = plan.Next(FaultOp::kWalAppend);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->kind, FaultKind::kTornWrite);
  EXPECT_EQ(plan.injected(), 2u);
}

TEST(FaultPlanTest, ProbabilisticFiringIsDeterministicInSeed) {
  auto firing_pattern = [](uint64_t seed) {
    FaultPlan plan(seed);
    plan.FailWithProbability(FaultOp::kDiskWrite, 0.3, FaultKind::kIoError);
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      fired.push_back(plan.Next(FaultOp::kDiskWrite).has_value());
    }
    return fired;
  };
  EXPECT_EQ(firing_pattern(42), firing_pattern(42));
  EXPECT_NE(firing_pattern(42), firing_pattern(43));
}

TEST(FaultPlanTest, ProbabilisticRateIsRoughlyHonored) {
  FaultPlan plan(99);
  plan.FailWithProbability(FaultOp::kDiskRead, 0.25, FaultKind::kBitFlip);
  int fired = 0;
  for (int i = 0; i < 4000; ++i) {
    if (plan.Next(FaultOp::kDiskRead).has_value()) ++fired;
  }
  EXPECT_GT(fired, 800);   // ~1000 expected
  EXPECT_LT(fired, 1200);
  EXPECT_EQ(plan.injected(), static_cast<uint64_t>(fired));
}

TEST(FaultPlanTest, ZeroProbabilityNeverFires) {
  FaultPlan plan(5);
  plan.FailWithProbability(FaultOp::kWalSync, 0.0, FaultKind::kIoError);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(plan.Next(FaultOp::kWalSync).has_value());
  }
}

TEST(CrashPointRegistryTest, ArmedPointFiresOnceAtNthHit) {
  CrashPointRegistry& reg = CrashPointRegistry::Global();
  reg.Arm(kWalAppendPartial, 3, 1234);
  EXPECT_TRUE(HitCrashPoint(kWalAppendPartial).ok());
  EXPECT_TRUE(HitCrashPoint(kWalPreSync).ok());  // other points unaffected
  EXPECT_TRUE(HitCrashPoint(kWalAppendPartial).ok());
  Status s = HitCrashPoint(kWalAppendPartial);
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  EXPECT_TRUE(reg.fired());
  EXPECT_EQ(reg.payload(), 1234u);
  // Fires exactly once, then stays quiet.
  EXPECT_TRUE(HitCrashPoint(kWalAppendPartial).ok());
  reg.Reset();
}

TEST(CrashPointRegistryTest, CountingModeObservesWithoutFiring) {
  CrashPointRegistry& reg = CrashPointRegistry::Global();
  reg.Reset();
  reg.SetCounting(true);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(HitCrashPoint(kBtreeMidSplit).ok());
  }
  EXPECT_TRUE(HitCrashPoint(kSnapshotMidCopy).ok());
  EXPECT_EQ(reg.hits(kBtreeMidSplit), 5u);
  EXPECT_EQ(reg.hits(kSnapshotMidCopy), 1u);
  EXPECT_EQ(reg.hits(kWalPreSync), 0u);
  auto observed = reg.observed_points();
  EXPECT_EQ(observed.size(), 2u);
  reg.Reset();
  EXPECT_EQ(reg.hits(kBtreeMidSplit), 0u);
}

TEST(CrashPointRegistryTest, DisarmedHitsAreFree) {
  CrashPointRegistry& reg = CrashPointRegistry::Global();
  reg.Reset();
  // No counters accumulate while disarmed.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(HitCrashPoint(kWalAppendPartial).ok());
  }
  EXPECT_EQ(reg.hits(kWalAppendPartial), 0u);
}

TEST(CrashPointRegistryTest, AllCrashPointsAreEnumerated) {
  auto points = AllCrashPoints();
  EXPECT_EQ(points.size(), 9u);
  EXPECT_EQ(StorageCrashPoints().size(), 5u);
  EXPECT_EQ(ControlPlaneCrashPoints().size(), 4u);
}

}  // namespace
}  // namespace prorp::faults
