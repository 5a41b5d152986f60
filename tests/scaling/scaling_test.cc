#include <gtest/gtest.h>

#include "scaling/autoscaler.h"
#include "scaling/demand_history.h"

namespace prorp::scaling {
namespace {

constexpr EpochSeconds kT0 = Days(1005);  // a Monday 00:00 UTC

TEST(CapacityLadderTest, CeilLevel) {
  CapacityLadder ladder({0, 0.5, 1, 2, 4, 8});
  EXPECT_DOUBLE_EQ(ladder.CeilLevel(0), 0);
  EXPECT_DOUBLE_EQ(ladder.CeilLevel(0.2), 0.5);
  EXPECT_DOUBLE_EQ(ladder.CeilLevel(0.5), 0.5);
  EXPECT_DOUBLE_EQ(ladder.CeilLevel(1.1), 2);
  EXPECT_DOUBLE_EQ(ladder.CeilLevel(8), 8);
  // Demand above the SKU maximum is clamped (the excess throttles).
  EXPECT_DOUBLE_EQ(ladder.CeilLevel(11), 8);
}

TEST(CapacityLadderTest, NormalizesLevels) {
  CapacityLadder ladder({4, 1, 2});  // missing 0, unsorted
  EXPECT_DOUBLE_EQ(ladder.levels().front(), 0);
  EXPECT_DOUBLE_EQ(ladder.max_level(), 4);
  EXPECT_DOUBLE_EQ(ladder.CeilLevel(1.5), 2);
}

TEST(DemandHistoryTest, RecordAndPeak) {
  DemandHistory history(Minutes(30), 7);
  EXPECT_EQ(history.slots_per_day(), 48);
  ASSERT_TRUE(history.Record(kT0 + Hours(9), 2.0).ok());
  ASSERT_TRUE(history.Record(kT0 + Hours(9) + Minutes(10), 3.5).ok());
  // Seen from the next day, the most recent peak of a slot is kT0's.
  EXPECT_DOUBLE_EQ(
      history.SlotPeaksBefore(kT0 + Days(1) + Hours(9) + Minutes(20))[0],
      3.5);
  EXPECT_DOUBLE_EQ(history.SlotPeaksBefore(kT0 + Days(1) + Hours(10))[0], 0);
}

TEST(DemandHistoryTest, RejectsBadSamples) {
  DemandHistory history;
  EXPECT_TRUE(history.Record(kT0, -1).IsInvalidArgument());
}

TEST(DemandHistoryTest, SlotPeaksLookBack) {
  DemandHistory history(Minutes(30), 7);
  // Same slot (9:00-9:30) on 5 previous days with rising demand.
  for (int d = 1; d <= 5; ++d) {
    ASSERT_TRUE(
        history.Record(kT0 - Days(d) + Hours(9), static_cast<double>(d))
            .ok());
  }
  auto peaks = history.SlotPeaksBefore(kT0 + Hours(9) + Minutes(5));
  // Only the 5 observed days count; earlier days are unknown, not idle.
  ASSERT_EQ(peaks.size(), 5u);
  EXPECT_DOUBLE_EQ(peaks[0], 1);  // yesterday
  EXPECT_DOUBLE_EQ(peaks[4], 5);  // five days ago
}

TEST(DemandHistoryTest, QuantileOfSlotPeaks) {
  DemandHistory history(Minutes(30), 4);
  for (int d = 1; d <= 4; ++d) {
    ASSERT_TRUE(
        history.Record(kT0 - Days(d) + Hours(9), static_cast<double>(d))
            .ok());
  }
  EXPECT_DOUBLE_EQ(history.SlotQuantileBefore(kT0 + Hours(9), 1.0), 4);
  EXPECT_DOUBLE_EQ(history.SlotQuantileBefore(kT0 + Hours(9), 0.0), 1);
  EXPECT_DOUBLE_EQ(history.SlotQuantileBefore(kT0 + Hours(9), 0.5), 2.5);
  // A slot with no history predicts 0.
  EXPECT_DOUBLE_EQ(history.SlotQuantileBefore(kT0 + Hours(15), 0.9), 0);
}

TEST(DemandHistoryTest, RingRollsOverOldDays) {
  DemandHistory history(Hours(1), 3);
  ASSERT_TRUE(history.Record(kT0 + Hours(9), 5.0).ok());
  // Advance 3 days: the old sample must have rolled out of the window.
  ASSERT_TRUE(history.Record(kT0 + Days(3) + Hours(9), 1.0).ok());
  auto peaks = history.SlotPeaksBefore(kT0 + Days(4) + Hours(9));
  // Look-back covers days 3,2,1 before day 4: only day 3 has data (1.0);
  // days 1-2 were observed implicitly by the ring roll (idle), and the
  // day-0 sample (5.0) is outside the 3-day window.
  ASSERT_EQ(peaks.size(), 3u);
  EXPECT_DOUBLE_EQ(peaks[0], 1.0);
  EXPECT_DOUBLE_EQ(peaks[1], 0.0);
  EXPECT_DOUBLE_EQ(peaks[2], 0.0);
  // Stale writes into rolled-over days are ignored, not resurrected.
  ASSERT_TRUE(history.Record(kT0 + Hours(9), 9.0).ok());
  EXPECT_EQ(history.SlotPeaksBefore(kT0 + Days(4) + Hours(9)), peaks);
  EXPECT_DOUBLE_EQ(history.SlotPeaksBefore(kT0 + Days(1) + Hours(9))[0],
                   0.0);
}

TEST(DemandHistoryTest, FootprintStaysSmall) {
  DemandHistory history;  // 28 days x 48 slots x 8 bytes
  EXPECT_EQ(history.SizeBytes(), 28u * 48u * 8u);
  EXPECT_LT(history.SizeBytes(), 16u * 1024u);
}

class ScalerReplayTest : public ::testing::Test {
 protected:
  static DemandTrace StepTrace() {
    // Three identical weekdays: ramp to 4 vCores 9:00-17:00.
    DemandTrace trace;
    for (int d = 0; d < 3; ++d) {
      EpochSeconds day = kT0 + Days(d);
      trace.push_back({day + Hours(9), day + Hours(11), 1});
      trace.push_back({day + Hours(11), day + Hours(15), 4});
      trace.push_back({day + Hours(15), day + Hours(17), 1});
    }
    return trace;
  }

  CapacityLadder ladder_{{0, 0.5, 1, 2, 4, 8}};
  ScalingSimOptions options_;
};

TEST_F(ScalerReplayTest, FixedNeverThrottlesButOverprovisions) {
  FixedScaler fixed(ladder_);
  auto report = ReplayDemandTrace(StepTrace(), fixed, kT0, kT0 + Days(3),
                                  options_);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->ThrottledPct(), 0);
  EXPECT_GT(report->OverprovisionedPct(), 80);  // 8 vCores around the clock
}

TEST_F(ScalerReplayTest, ReactiveThrottlesDuringRamps) {
  ReactiveScaler reactive(ladder_);
  auto report = ReplayDemandTrace(StepTrace(), reactive, kT0,
                                  kT0 + Days(3), options_);
  ASSERT_TRUE(report.ok());
  // Every upward step pays the reaction delay in throttled time.
  EXPECT_GT(report->throttled_seconds, 0);
  EXPECT_GT(report->scale_ups, 0u);
  EXPECT_GT(report->scale_downs, 0u);
  // But far less over-provisioning than fixed capacity.
  EXPECT_LT(report->OverprovisionedPct(), 50);
}

TEST_F(ScalerReplayTest, ProactiveBeatsReactiveOnRecurringPattern) {
  ReactiveScaler reactive(ladder_);
  ProactiveScaler proactive(ladder_, Minutes(30), 0.8);
  auto r = ReplayDemandTrace(StepTrace(), reactive, kT0, kT0 + Days(3),
                             options_);
  auto p = ReplayDemandTrace(StepTrace(), proactive, kT0, kT0 + Days(3),
                             options_);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(p.ok());
  // Day 1 is identical (no history); days 2-3 the proactive scaler has
  // learned the slot peaks and pre-scales ahead of the ramps.
  EXPECT_LT(p->throttled_vcore_seconds, r->throttled_vcore_seconds);
  // Pre-scaling costs some extra capacity but stays well below fixed.
  EXPECT_LT(p->OverprovisionedPct(), 60);
}

TEST_F(ScalerReplayTest, ReplayValidation) {
  FixedScaler fixed(ladder_);
  ScalingSimOptions bad;
  bad.tick = 0;
  EXPECT_FALSE(ReplayDemandTrace({}, fixed, kT0, kT0 + 10, bad).ok());
  EXPECT_FALSE(ReplayDemandTrace({}, fixed, kT0, kT0, options_).ok());
}

TEST(DemandTraceGeneratorTest, ShapeAndDeterminism) {
  Rng a(5), b(5);
  auto t1 = GenerateDailyDemandTrace(kT0, kT0 + Days(7), 4.0, a);
  auto t2 = GenerateDailyDemandTrace(kT0, kT0 + Days(7), 4.0, b);
  ASSERT_FALSE(t1.empty());
  ASSERT_EQ(t1.size(), t2.size());
  for (size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].start, t2[i].start);
    EXPECT_DOUBLE_EQ(t1[i].vcores, t2[i].vcores);
  }
  double max_v = 0;
  for (const auto& s : t1) {
    EXPECT_LT(s.start, s.end);
    EXPECT_GT(s.vcores, 0);
    max_v = std::max(max_v, s.vcores);
  }
  // Spikes can exceed the nominal peak.
  EXPECT_GT(max_v, 3.0);
}

}  // namespace
}  // namespace prorp::scaling
