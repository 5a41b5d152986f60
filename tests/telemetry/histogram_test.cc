#include "telemetry/histogram.h"

#include <gtest/gtest.h>

namespace prorp::telemetry {
namespace {

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);
  EXPECT_EQ(h.ToString(), "n=0 p50=0 p95=0 p99=0 max=0");
}

TEST(HistogramTest, ZeroSamplesLandInBucketZero) {
  Histogram h;
  h.Add(0);
  h.Add(0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 0.0);
  EXPECT_EQ(h.max(), 0);
}

TEST(HistogramTest, NegativeSamplesClampToZero) {
  // Clock-skew guard: waits are non-negative by construction.
  Histogram h;
  h.Add(-7);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, PercentileReturnsBucketUpperEdgeClampedToMax) {
  Histogram h;
  h.Add(1);  // bucket [1, 2): upper edge 1
  h.Add(5);  // bucket [4, 8): upper edge 7, clamped to the observed max
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 5.0);
  EXPECT_EQ(h.max(), 5);
}

TEST(HistogramTest, UniformRampEstimatesWithinBucketResolution) {
  Histogram h;
  for (int64_t v = 1; v <= 1000; ++v) h.Add(v);
  EXPECT_EQ(h.count(), 1000u);
  // Rank 500 falls in bucket [256, 512) whose inclusive upper edge is 511.
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 511.0);
  // Rank 950 falls in the last occupied bucket; the edge clamps to max.
  EXPECT_DOUBLE_EQ(h.Percentile(0.95), 1000.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 1000.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 500.5);  // the mean is exact (true sum kept)
}

TEST(HistogramTest, ToStringRendersBenchRow) {
  Histogram h;
  h.Add(60);
  EXPECT_EQ(h.ToString(), "n=1 p50=60 p95=60 p99=60 max=60");
}

}  // namespace
}  // namespace prorp::telemetry
