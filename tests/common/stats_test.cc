#include "common/stats.h"

#include <gtest/gtest.h>

namespace prorp {
namespace {

TEST(SummaryTest, EmptySample) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.Mean(), 0);
  EXPECT_EQ(s.Percentile(0.5), 0);
  EXPECT_EQ(s.ToBoxPlot().count, 0u);
}

TEST(SummaryTest, BasicMoments) {
  Summary s;
  s.AddAll({1, 2, 3, 4, 5});
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 5.0);
  EXPECT_DOUBLE_EQ(s.Sum(), 15.0);
}

TEST(SummaryTest, ExactPercentiles) {
  Summary s;
  s.AddAll({10, 20, 30, 40, 50});
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 10);
  EXPECT_DOUBLE_EQ(s.Percentile(0.5), 30);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 50);
  EXPECT_DOUBLE_EQ(s.Percentile(0.25), 20);
  // Interpolation between ranks.
  Summary t;
  t.AddAll({0, 10});
  EXPECT_DOUBLE_EQ(t.Percentile(0.5), 5);
}

TEST(SummaryTest, BoxPlotFiveNumbers) {
  Summary s;
  for (int i = 1; i <= 101; ++i) s.Add(i);
  BoxPlot b = s.ToBoxPlot();
  EXPECT_DOUBLE_EQ(b.min, 1);
  EXPECT_DOUBLE_EQ(b.q1, 26);
  EXPECT_DOUBLE_EQ(b.median, 51);
  EXPECT_DOUBLE_EQ(b.q3, 76);
  EXPECT_DOUBLE_EQ(b.max, 101);
  EXPECT_EQ(b.count, 101u);
  EXPECT_NE(b.ToString().find("med=51.0"), std::string::npos);
}

TEST(CdfTest, CoversFullRange) {
  Summary s;
  for (int i = 1; i <= 1000; ++i) s.Add(i);
  auto cdf = BuildCdf(s, 10);
  ASSERT_EQ(cdf.size(), 10u);
  EXPECT_DOUBLE_EQ(cdf.back().value, 1000);
  EXPECT_DOUBLE_EQ(cdf.back().cumulative_fraction, 1.0);
  EXPECT_DOUBLE_EQ(cdf.front().cumulative_fraction, 0.1);
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].value, cdf[i - 1].value);
    EXPECT_GT(cdf[i].cumulative_fraction, cdf[i - 1].cumulative_fraction);
  }
}

TEST(CdfTest, SmallSample) {
  Summary s;
  s.AddAll({5, 1, 3});
  auto cdf = BuildCdf(s, 10);
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1);
  EXPECT_DOUBLE_EQ(cdf[2].value, 5);
  EXPECT_DOUBLE_EQ(cdf[2].cumulative_fraction, 1.0);
}

TEST(CdfTest, EmptyInputs) {
  Summary s;
  EXPECT_TRUE(BuildCdf(s).empty());
  s.Add(1);
  EXPECT_TRUE(BuildCdf(s, 0).empty());
}

}  // namespace
}  // namespace prorp
