#include "common/random.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace prorp {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values hit
}

TEST(RngTest, NextDoubleUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(RngTest, NextBoolFrequency) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.NextBool(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 50000; ++i) {
    double v = rng.NextExponential(120.0);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 50000, 120.0, 5.0);
}

TEST(RngTest, ForkIsIndependentAndDeterministic) {
  Rng a(42);
  Rng child1 = a.Fork();
  Rng b(42);
  Rng child2 = b.Fork();
  // Same parent seed => same child stream.
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(child1.NextU64(), child2.NextU64());
  }
}

TEST(RngTest, ForkStreamIsAPureFunctionOfSeedAndId) {
  // Same (seed, id) always yields the same stream — regardless of how
  // much the parent has been consumed in between.
  Rng a(42);
  Rng early = a.ForkStream(7);
  for (int i = 0; i < 100; ++i) a.NextU64();
  Rng late = a.ForkStream(7);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(early.NextU64(), late.NextU64());
  }
}

TEST(RngTest, ForkStreamDoesNotAdvanceTheParent) {
  // This is the bit-identity property the transport layer leans on:
  // carving off a fault stream must not shift any draw every existing
  // consumer makes.  (Fork(), by contrast, consumes a draw.)
  Rng with(42), without(42);
  std::vector<uint64_t> a, b;
  for (int i = 0; i < 64; ++i) {
    (void)with.ForkStream(static_cast<uint64_t>(i));
    a.push_back(with.NextU64());
    b.push_back(without.NextU64());
  }
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkStreamIdsAreIndependentStreams) {
  Rng parent(42);
  Rng s1 = parent.ForkStream(1);
  Rng s2 = parent.ForkStream(2);
  Rng forked = parent.Fork();
  int same12 = 0, same1f = 0;
  for (int i = 0; i < 64; ++i) {
    uint64_t v1 = s1.NextU64(), v2 = s2.NextU64(), vf = forked.NextU64();
    if (v1 == v2) ++same12;
    if (v1 == vf) ++same1f;
  }
  EXPECT_LT(same12, 2);
  EXPECT_LT(same1f, 2);
}

}  // namespace
}  // namespace prorp
