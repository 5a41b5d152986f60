#include "telemetry/histogram.h"

#include <gtest/gtest.h>

namespace prorp::telemetry {
namespace {

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.sum(), 0u);
  for (uint64_t n : h.buckets()) EXPECT_EQ(n, 0u);
}

TEST(HistogramTest, ZeroSamplesLandInBucketZero) {
  Histogram h;
  h.Add(0);
  h.Add(0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.max(), 0);
}

TEST(HistogramTest, NegativeSamplesClampToZero) {
  // Clock-skew guard: waits are non-negative by construction.
  Histogram h;
  h.Add(-7);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.sum(), 0u);
}

TEST(HistogramTest, SamplesLandInLog2Buckets) {
  Histogram h;
  h.Add(1);  // bucket 1: [1, 2)
  h.Add(5);  // bucket 3: [4, 8)
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), 5);
  EXPECT_EQ(h.sum(), 6u);
}

TEST(HistogramTest, UniformRampFillsEachBucketToItsWidth) {
  Histogram h;
  for (int64_t v = 1; v <= 1000; ++v) h.Add(v);
  EXPECT_EQ(h.count(), 1000u);
  // Bucket b in [1, 9] holds all of [2^(b-1), 2^b); bucket 10 holds
  // [512, 1000].
  for (size_t b = 1; b <= 9; ++b) {
    EXPECT_EQ(h.buckets()[b], uint64_t{1} << (b - 1)) << "bucket " << b;
  }
  EXPECT_EQ(h.buckets()[10], 489u);
  EXPECT_EQ(h.buckets()[11], 0u);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_EQ(h.sum(), 500500u);  // the sum is exact
}

}  // namespace
}  // namespace prorp::telemetry
