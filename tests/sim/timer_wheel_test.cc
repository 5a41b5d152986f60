#include "sim/timer_wheel.h"

#include <cstdint>
#include <queue>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace prorp::sim {
namespace {

struct Ev {
  int64_t time = 0;
  uint64_t seq = 0;

  bool operator==(const Ev& o) const {
    return time == o.time && seq == o.seq;
  }
  bool operator>(const Ev& o) const {
    if (time != o.time) return time > o.time;
    return seq > o.seq;
  }
};

using RefQueue = std::priority_queue<Ev, std::vector<Ev>, std::greater<>>;

/// Drains one tick from the reference queue in (time, seq) order.
std::vector<Ev> RefPopTick(RefQueue& pq) {
  std::vector<Ev> tick;
  if (pq.empty()) return tick;
  int64_t t = pq.top().time;
  while (!pq.empty() && pq.top().time == t) {
    tick.push_back(pq.top());
    pq.pop();
  }
  return tick;
}

/// A random delay with a horizon mix crossing every level: same-tick
/// bursts, level-0 and level-1 deltas, level-2 deltas, and
/// overflow-range deltas.
int64_t RandomDelta(std::mt19937_64& rng) {
  uint64_t r = rng() % 100;
  if (r < 50) return static_cast<int64_t>(rng() % 100);
  if (r < 80) return static_cast<int64_t>(rng() % 5'000);
  if (r < 95) return static_cast<int64_t>(rng() % 5'000'000);
  return static_cast<int64_t>(rng() % 20'000'000'000LL);
}

TEST(TimerWheelTest, EmptyWheelPopsNothing) {
  TimerWheel<Ev> wheel;
  std::vector<Ev> out;
  EXPECT_TRUE(wheel.empty());
  EXPECT_FALSE(wheel.PopNextTick(&out));
  EXPECT_TRUE(out.empty());
}

TEST(TimerWheelTest, SameTickEventsComeOutInSeqOrder) {
  TimerWheel<Ev> wheel;
  // Same deadline pushed out of seq order, from different starting levels:
  // seq 2 goes far (level 1+), seq 1 near, after popping an earlier event.
  wheel.Push({100, 0});
  wheel.Push({5000, 2});
  wheel.Push({5000, 1});
  std::vector<Ev> out;
  ASSERT_TRUE(wheel.PopNextTick(&out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (Ev{100, 0}));
  out.clear();
  ASSERT_TRUE(wheel.PopNextTick(&out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (Ev{5000, 1}));
  EXPECT_EQ(out[1], (Ev{5000, 2}));
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, OverdueEventsDeliveredFirstWithoutMovingTime) {
  TimerWheel<Ev> wheel;
  wheel.Push({50, 0});
  std::vector<Ev> out;
  ASSERT_TRUE(wheel.PopNextTick(&out));
  EXPECT_EQ(wheel.now(), 50);
  // Pushed at/before now(): legal, delivered ahead of future events.
  wheel.Push({50, 1});
  wheel.Push({10, 2});
  wheel.Push({200, 3});
  out.clear();
  ASSERT_TRUE(wheel.PopNextTick(&out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (Ev{10, 2}));  // (time, seq) order within the bucket
  EXPECT_EQ(out[1], (Ev{50, 1}));
  EXPECT_EQ(wheel.now(), 50);  // overdue delivery does not advance time
  out.clear();
  ASSERT_TRUE(wheel.PopNextTick(&out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (Ev{200, 3}));
}

TEST(TimerWheelTest, FarFutureEventsSurviveTheOverflowLevel) {
  TimerWheel<Ev> wheel;
  // Beyond the deepest level's horizon (2048^3 s): parks in overflow.
  const int64_t far = int64_t{1} << 40;
  wheel.Push({far, 0});
  wheel.Push({far + 1, 1});
  wheel.Push({7, 2});
  std::vector<Ev> out;
  ASSERT_TRUE(wheel.PopNextTick(&out));
  EXPECT_EQ(out[0], (Ev{7, 2}));
  out.clear();
  ASSERT_TRUE(wheel.PopNextTick(&out));
  EXPECT_EQ(out[0], (Ev{far, 0}));
  out.clear();
  ASSERT_TRUE(wheel.PopNextTick(&out));
  EXPECT_EQ(out[0], (Ev{far + 1, 1}));
  EXPECT_TRUE(wheel.empty());
}

// Regression: an event whose raw delta fits under a level's horizon can
// still be a full rotation of slots away once `now` sits late in its own
// slot; placing it by raw delta wraps its index onto the slot holding
// `now`, which the occupancy scan then misreads.  Level fit must be
// judged by slot distance.
TEST(TimerWheelTest, DeltaJustUnderHorizonDoesNotWrapOntoBaseSlot) {
  TimerWheel<Ev> wheel;
  // Advance now to 4194256: level-1 slot 2047, 48 s before the 2^22
  // boundary.
  wheel.Push({4194256, 0});
  std::vector<Ev> drained;
  ASSERT_TRUE(wheel.PopNextTick(&drained));
  ASSERT_EQ(wheel.now(), 4194256);
  // Delta 4193744 < 2^22, but level-1 slot distance is exactly 2048.
  wheel.Push({8388000, 1});
  wheel.Push({8390000, 2});
  drained.clear();
  ASSERT_TRUE(wheel.PopNextTick(&drained));
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0], (Ev{8388000, 1}));
  drained.clear();
  ASSERT_TRUE(wheel.PopNextTick(&drained));
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0], (Ev{8390000, 2}));
  EXPECT_TRUE(wheel.empty());
}

// Regression: cascading a level-2 slot advances `now` to a window
// boundary that a lower level can share (a 2^22-aligned instant is also
// 2^11-aligned).  The occupied level-1 slot then CONTAINS `now`, and a
// circular scan that only reports slots strictly after the base slot
// would skip it, draining a later window first.
TEST(TimerWheelTest, CascadeLandingOnSharedWindowBoundaryKeepsOrder) {
  TimerWheel<Ev> wheel;
  wheel.Push({3000, 0});
  // From now = 0, slot distance at level 1 is 2051 - 0 >= 2048: level 2.
  wheel.Push({4200839, 1});
  std::vector<Ev> drained;
  ASSERT_TRUE(wheel.PopNextTick(&drained));
  ASSERT_EQ(wheel.now(), 3000);
  // From now = 3000, level-1 slot distance 2047: level 1, slot 0 — the
  // window [4194304, 4196352) that the level-2 cascade will land on.
  wheel.Push({4195690, 2});
  drained.clear();
  ASSERT_TRUE(wheel.PopNextTick(&drained));
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0], (Ev{4195690, 2}));
  drained.clear();
  ASSERT_TRUE(wheel.PopNextTick(&drained));
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0], (Ev{4200839, 1}));
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, StormSlotGivesCapacityBackAfterDraining) {
  TimerWheel<Ev> wheel;
  // One tick ballooning the node pool past the compaction floor (1024),
  // as a login storm does, must not hold its high-water capacity
  // afterwards.
  const size_t kStorm = 20'000;
  for (size_t i = 0; i < kStorm; ++i) {
    wheel.Push({1000, i});
  }
  size_t flooded = wheel.MemoryBytes();
  EXPECT_GE(flooded, kStorm * sizeof(Ev));
  std::vector<Ev> out;
  ASSERT_TRUE(wheel.PopNextTick(&out));
  EXPECT_EQ(out.size(), kStorm);
  EXPECT_LT(wheel.MemoryBytes(), flooded / 8);
  // The wheel stays fully usable after the compaction.
  wheel.Push({2000, kStorm});
  out.clear();
  ASSERT_TRUE(wheel.PopNextTick(&out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].time, 2000);
}

// A storm drained while other events stay queued must give its nodes
// back too: the pool compacts around the survivors instead of waiting
// for an empty wheel, and the survivors still come out in order.
TEST(TimerWheelTest, StormDrainedMidRunGivesPoolBack) {
  TimerWheel<Ev> wheel;
  uint64_t seq = 0;
  // Survivors on every level and in the overflow list, all due after the
  // storm tick.
  const int64_t kSurvivorTimes[] = {1001, 1500, 3000, 90'000, 5'000'000,
                                    int64_t{1} << 40};
  constexpr size_t kPerTime = 100;
  for (size_t i = 0; i < kPerTime; ++i) {
    for (int64_t t : kSurvivorTimes) wheel.Push({t, seq++});
  }
  const size_t survivors = wheel.size();
  const size_t kStorm = 20'000;
  for (size_t i = 0; i < kStorm; ++i) wheel.Push({1000, seq++});
  const size_t flooded = wheel.MemoryBytes();
  EXPECT_GE(flooded, kStorm * sizeof(Ev));

  std::vector<Ev> out;
  ASSERT_TRUE(wheel.PopNextTick(&out));
  EXPECT_EQ(out.size(), kStorm);
  EXPECT_EQ(wheel.size(), survivors);
  EXPECT_LT(wheel.MemoryBytes(), flooded / 8);

  for (int64_t t : kSurvivorTimes) {
    out.clear();
    ASSERT_TRUE(wheel.PopNextTick(&out));
    ASSERT_EQ(out.size(), kPerTime) << "time " << t;
    for (size_t i = 0; i < kPerTime; ++i) {
      EXPECT_EQ(out[i].time, t);
      if (i > 0) {
        EXPECT_LT(out[i - 1].seq, out[i].seq);
      }
    }
  }
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, MatchesReferenceQueueOnRandomWorkloads) {
  std::mt19937_64 rng(123);
  for (int trial = 0; trial < 300; ++trial) {
    TimerWheel<Ev> wheel;
    RefQueue pq;
    uint64_t seq = 0;
    auto push_delta = [&](int64_t now, int64_t delta) {
      Ev e{now + delta, seq++};
      wheel.Push(e);
      pq.push(e);
    };
    auto random_delta = [&] { return RandomDelta(rng); };
    int initial = 1 + static_cast<int>(rng() % 50);
    for (int i = 0; i < initial; ++i) push_delta(0, random_delta());
    int64_t now = 0;
    while (!pq.empty()) {
      std::vector<Ev> expect = RefPopTick(pq);
      std::vector<Ev> got;
      ASSERT_TRUE(wheel.PopNextTick(&got))
          << "trial " << trial << ": wheel empty before reference";
      ASSERT_EQ(got, expect) << "trial " << trial;
      now = expect.front().time;
      EXPECT_EQ(wheel.now(), now);
      // Handler-style follow-on pushes strictly after the drained tick.
      int extra = static_cast<int>(rng() % 4);
      for (int i = 0; i < extra && seq < 3'000; ++i) {
        push_delta(now, 1 + random_delta());
      }
    }
    EXPECT_TRUE(wheel.empty()) << "trial " << trial;
    EXPECT_EQ(wheel.size(), 0u);
  }
}

// One wheel reused through repeated login storms, checked tick by tick
// against the reference queue: later pushes recycle the nodes earlier
// drains freed, and the pool compacts each time a storm has drained.
TEST(TimerWheelTest, LongLivedWheelMatchesReferenceThroughRepeatedStorms) {
  std::mt19937_64 rng(321);
  TimerWheel<Ev> wheel;
  RefQueue pq;
  uint64_t seq = 0;
  int64_t now = 0;
  auto push = [&](int64_t time) {
    Ev e{time, seq++};
    wheel.Push(e);
    pq.push(e);
  };
  auto random_delta = [&] { return RandomDelta(rng); };
  auto pop_and_check = [&]() {
    std::vector<Ev> expect = RefPopTick(pq);
    std::vector<Ev> got;
    ASSERT_TRUE(wheel.PopNextTick(&got)) << "wheel empty before reference";
    ASSERT_EQ(got, expect);
    now = expect.front().time;
    ASSERT_EQ(wheel.now(), now);
    ASSERT_EQ(wheel.size(), pq.size());
  };
  size_t compactions = 0;
  for (int storm = 0; storm < 30; ++storm) {
    for (int i = 0; i < 100; ++i) push(now + 1 + random_delta());
    // The storm: thousands of events on one or two ticks.
    const int64_t at = now + 1 + static_cast<int64_t>(rng() % 3'000);
    const size_t n = 2'000 + rng() % 4'000;
    for (size_t i = 0; i < n; ++i) push(at + static_cast<int64_t>(i % 2));
    // Drain until little is left, with handler-style follow-on pushes.
    while (pq.size() > 150) {
      const size_t before = wheel.MemoryBytes();
      ASSERT_NO_FATAL_FAILURE(pop_and_check()) << "storm " << storm;
      if (wheel.MemoryBytes() < before) ++compactions;
      if (rng() % 2 == 0) push(now + 1 + random_delta());
    }
  }
  while (!pq.empty()) ASSERT_NO_FATAL_FAILURE(pop_and_check());
  EXPECT_TRUE(wheel.empty());
  EXPECT_GE(compactions, 10u);
}

}  // namespace
}  // namespace prorp::sim
