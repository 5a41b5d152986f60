#include "common/backoff.h"

#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "common/config.h"

namespace prorp::common {
namespace {

struct GoldenEntry {
  uint64_t key;
  int attempt;
  DurationSeconds delay;
};

// Golden retry schedule captured from ManagementService before the backoff
// helpers were extracted into common/backoff.h: the extraction must stay
// bit-identical, because the simulator's KPI-identity self-check depends on
// the deterministic schedule never drifting.
//
// Default control-plane config: base = 60s, cap = 480s, jitter = 0.25.
constexpr GoldenEntry kDefaultGolden[] = {
    {0, 1, 67},      {0, 2, 131},      {0, 3, 297},      {0, 4, 578},
    {0, 5, 557},     {0, 6, 501},      {0, 7, 500},      {0, 8, 591},
    {1, 1, 69},      {1, 2, 145},      {1, 3, 283},      {1, 4, 538},
    {1, 5, 559},     {1, 6, 508},      {1, 7, 578},      {1, 8, 522},
    {7, 1, 73},      {7, 2, 125},      {7, 3, 246},      {7, 4, 515},
    {7, 5, 561},     {7, 6, 582},      {7, 7, 533},      {7, 8, 512},
    {12345, 1, 70},  {12345, 2, 121},  {12345, 3, 281},  {12345, 4, 504},
    {12345, 5, 504}, {12345, 6, 573},  {12345, 7, 553},  {12345, 8, 530},
    {999999, 1, 66}, {999999, 2, 123}, {999999, 3, 253}, {999999, 4, 527},
    {999999, 5, 507}, {999999, 6, 506}, {999999, 7, 595}, {999999, 8, 515},
};

// A second configuration (base = 30s, cap = 3600s, jitter = 0.5) so the
// goldens cover the cap transition and a different jitter fraction.
constexpr GoldenEntry kAltGolden[] = {
    {3, 1, 42},   {3, 2, 77},   {3, 3, 172},  {3, 4, 350},  {3, 5, 497},
    {3, 6, 1437}, {3, 7, 2301}, {3, 8, 4054}, {3, 9, 4082}, {3, 10, 5054},
    {42, 1, 30},  {42, 2, 75},  {42, 3, 138}, {42, 4, 295}, {42, 5, 632},
    {42, 6, 1391}, {42, 7, 1938}, {42, 8, 3663}, {42, 9, 3741},
    {42, 10, 3803},
};

TEST(BackoffTest, GoldenScheduleDefaultConfig) {
  for (const GoldenEntry& e : kDefaultGolden) {
    EXPECT_EQ(BackoffDelay(60, 480, 0.25, e.key, e.attempt), e.delay)
        << "key=" << e.key << " attempt=" << e.attempt;
  }
}

TEST(BackoffTest, GoldenScheduleAltConfig) {
  for (const GoldenEntry& e : kAltGolden) {
    EXPECT_EQ(BackoffDelay(30, 3600, 0.5, e.key, e.attempt), e.delay)
        << "key=" << e.key << " attempt=" << e.attempt;
  }
}

TEST(BackoffTest, GoldensMatchControlPlaneDefaults) {
  // The default golden table above is only a regression guard if the
  // shipped configuration still uses the captured parameters.
  ControlPlaneConfig cfg;
  EXPECT_EQ(cfg.retry_backoff_base, 60);
  EXPECT_EQ(cfg.retry_backoff_cap, 480);
  EXPECT_DOUBLE_EQ(cfg.retry_jitter_fraction, 0.25);
}

TEST(BackoffTest, NoJitterIsCappedPowerOfTwoSchedule) {
  const DurationSeconds expected[] = {60, 120, 240, 480, 480, 480};
  for (int attempt = 1; attempt <= 6; ++attempt) {
    EXPECT_EQ(BackoffDelay(60, 480, 0.0, 17, attempt),
              expected[attempt - 1]);
  }
}

TEST(BackoffTest, JitterStaysWithinFractionOfBase) {
  for (uint64_t key : {0ull, 5ull, 123456789ull}) {
    for (int attempt = 1; attempt <= 10; ++attempt) {
      DurationSeconds base = CappedExponential(60, 480, attempt - 1);
      DurationSeconds d = BackoffDelay(60, 480, 0.25, key, attempt);
      EXPECT_GE(d, base);
      EXPECT_LE(d, base + base / 4);
    }
  }
}

TEST(BackoffTest, CappedExponentialSaturatesAndClamps) {
  EXPECT_EQ(CappedExponential(60, 480, 0), 60);
  EXPECT_EQ(CappedExponential(60, 480, 3), 480);
  EXPECT_EQ(CappedExponential(60, 480, 100), 480);  // shift-overflow guard
  EXPECT_EQ(CappedExponential(60, 480, -5), 60);    // step clamped at 0
  EXPECT_EQ(CappedExponential(1, std::numeric_limits<int64_t>::max(), 62),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(CappedExponential(1, std::numeric_limits<int64_t>::max(), 10),
            1024);
}

TEST(BackoffTest, WithJitterDegenerateRangesReturnValueUnchanged) {
  EXPECT_EQ(WithJitter(0, 0.5, 1, 2), 0);
  EXPECT_EQ(WithJitter(100, 0.0, 1, 2), 100);
  // fraction * value rounds to a zero-width range.
  EXPECT_EQ(WithJitter(3, 0.1, 1, 2), 3);
}

TEST(BackoffTest, JitterHashIsDeterministicAndInputSensitive) {
  EXPECT_EQ(JitterHash(1, 2), JitterHash(1, 2));
  EXPECT_NE(JitterHash(1, 2), JitterHash(1, 3));
  EXPECT_NE(JitterHash(1, 2), JitterHash(2, 2));
}

}  // namespace
}  // namespace prorp::common
