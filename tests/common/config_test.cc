#include "common/config.h"

#include <gtest/gtest.h>

namespace prorp {
namespace {

// Table 1 of the paper fixes these defaults; the training pipeline and the
// benches rely on them, so pin them here.
TEST(ConfigTest, Table1Defaults) {
  ProrpConfig cfg;
  EXPECT_EQ(cfg.policy.logical_pause_duration, Hours(7));          // l
  EXPECT_EQ(cfg.policy.prediction.history_length, Days(28));       // h
  EXPECT_EQ(cfg.policy.prediction.prediction_horizon, Days(1));    // p
  EXPECT_DOUBLE_EQ(cfg.policy.prediction.confidence_threshold, 0.1);  // c
  EXPECT_EQ(cfg.policy.prediction.window_size, Hours(7));          // w
  EXPECT_EQ(cfg.policy.prediction.window_slide, Minutes(5));       // s
  EXPECT_EQ(cfg.policy.prediction.seasonality, Days(1));
  EXPECT_EQ(cfg.control_plane.prewarm_interval, Minutes(5));       // k
  EXPECT_EQ(cfg.control_plane.resume_operation_period, Minutes(1));
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(ConfigTest, NumWindows) {
  PredictionConfig p;  // p = 24h, w = 7h, s = 5min
  EXPECT_EQ(p.NumWindows(), (Hours(17)) / Minutes(5) + 1);
  p.window_size = Hours(25);
  EXPECT_EQ(p.NumWindows(), 0);
}

TEST(ConfigTest, NumSeasons) {
  PredictionConfig p;
  EXPECT_EQ(p.NumSeasons(), 28);
  p.seasonality = Weeks(1);
  EXPECT_EQ(p.NumSeasons(), 4);
}

TEST(ConfigTest, RejectsNonPositiveDurations) {
  PredictionConfig p;
  p.history_length = 0;
  EXPECT_TRUE(p.Validate().IsInvalidArgument());
  p = PredictionConfig{};
  p.window_slide = -1;
  EXPECT_TRUE(p.Validate().IsInvalidArgument());
  p = PredictionConfig{};
  p.window_size = 0;
  EXPECT_TRUE(p.Validate().IsInvalidArgument());
}

TEST(ConfigTest, RejectsSlideExceedingWindow) {
  PredictionConfig p;
  p.window_size = Minutes(5);
  p.window_slide = Minutes(10);
  EXPECT_TRUE(p.Validate().IsInvalidArgument());
}

TEST(ConfigTest, RejectsConfidenceOutsideUnitInterval) {
  PredictionConfig p;
  p.confidence_threshold = -0.1;
  EXPECT_TRUE(p.Validate().IsInvalidArgument());
  p.confidence_threshold = 1.5;
  EXPECT_TRUE(p.Validate().IsInvalidArgument());
  p.confidence_threshold = 1.0;
  EXPECT_TRUE(p.Validate().ok());
}

TEST(ConfigTest, RejectsHorizonBeyondSeason) {
  PredictionConfig p;
  p.prediction_horizon = Days(2);  // daily seasonality repeats after 1 day
  EXPECT_TRUE(p.Validate().IsInvalidArgument());
  p.seasonality = Weeks(1);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(ConfigTest, RejectsHistoryShorterThanSeason) {
  PredictionConfig p;
  p.seasonality = Weeks(1);
  p.history_length = Days(5);
  EXPECT_TRUE(p.Validate().IsInvalidArgument());
}

TEST(ConfigTest, RejectsHistoryBeyond31Bits) {
  // The vectorized predictor keeps offsets within the last h in 32 bits.
  PredictionConfig p;
  p.history_length = PredictionConfig::kMaxHistoryLength;
  EXPECT_TRUE(p.Validate().ok());
  p.history_length = PredictionConfig::kMaxHistoryLength + 1;
  EXPECT_TRUE(p.Validate().IsInvalidArgument());
}

TEST(ConfigTest, WeeklySeasonalityValidates) {
  PredictionConfig p;
  p.seasonality = Weeks(1);
  p.prediction_horizon = Days(7);
  EXPECT_TRUE(p.Validate().ok()) << p.Validate().ToString();
}

TEST(ConfigTest, PolicyAndControlPlaneValidation) {
  PolicyConfig pol;
  pol.logical_pause_duration = 0;
  EXPECT_TRUE(pol.Validate().IsInvalidArgument());

  ControlPlaneConfig cp;
  cp.resume_operation_period = 0;
  EXPECT_TRUE(cp.Validate().IsInvalidArgument());
  cp = ControlPlaneConfig{};
  cp.prewarm_interval = -1;
  EXPECT_TRUE(cp.Validate().IsInvalidArgument());
  cp.prewarm_interval = 0;  // immediate resume is allowed
  EXPECT_TRUE(cp.Validate().ok());
}

}  // namespace
}  // namespace prorp
