#include "controlplane/node_health.h"

#include <gtest/gtest.h>

namespace prorp::controlplane {
namespace {

constexpr EpochSeconds kT0 = 1'000'000;

NodeHealthTracker::Options SmallOptions() {
  NodeHealthTracker::Options opt;
  opt.lease_ttl = 240;
  opt.suspect_after = 150;
  opt.dead_grace = 60;
  opt.rejoin_after = 300;
  opt.slow_p99_threshold = 0;
  opt.min_latency_samples = 4;
  return opt;
}

// Grants flowing on every renewal keep a node healthy indefinitely.
TEST(NodeHealthTest, GrantsKeepNodeHealthy) {
  NodeHealthTracker tracker(SmallOptions());
  tracker.Register(7, kT0);
  for (int i = 0; i < 20; ++i) {
    EpochSeconds t = kT0 + i * 60;
    tracker.OnRenewalSent(7, t, 240);
    tracker.OnLeaseGrant(7, /*latency=*/5, t);
    tracker.AdvanceTime(t);
    EXPECT_EQ(tracker.health(7), NodeHealth::kHealthy);
    EXPECT_TRUE(tracker.ShouldExtendLease(7));
  }
  EXPECT_EQ(tracker.stats().suspects_missed_grants, 0u);
  EXPECT_EQ(tracker.stats().deaths, 0u);
}

// A fresh registration is not instantly suspect: the grant clock starts
// at registration time.
TEST(NodeHealthTest, FreshRegistrationStartsHealthy) {
  NodeHealthTracker tracker(SmallOptions());
  tracker.Register(3, kT0);
  tracker.AdvanceTime(kT0 + 100);
  EXPECT_EQ(tracker.health(3), NodeHealth::kHealthy);
}

// Grant silence past suspect_after demotes to suspect; a grant arriving
// while suspect recovers the node.
TEST(NodeHealthTest, GrantSilenceSuspectsThenGrantRecovers) {
  NodeHealthTracker tracker(SmallOptions());
  tracker.Register(1, kT0);
  tracker.AdvanceTime(kT0 + 150);
  EXPECT_EQ(tracker.health(1), NodeHealth::kHealthy);  // gap == bound: not yet
  tracker.AdvanceTime(kT0 + 151);
  EXPECT_EQ(tracker.health(1), NodeHealth::kSuspect);
  EXPECT_EQ(tracker.stats().suspects_missed_grants, 1u);
  EXPECT_FALSE(tracker.ShouldExtendLease(1));

  tracker.OnLeaseGrant(1, 5, kT0 + 200);
  EXPECT_EQ(tracker.health(1), NodeHealth::kHealthy);
  EXPECT_EQ(tracker.stats().recoveries, 1u);
  EXPECT_EQ(tracker.stats().deaths, 0u);
}

// Death requires BOTH the fence-safe bound to have passed and the
// suspicion to have dwelled dead_grace — whichever is later governs.
TEST(NodeHealthTest, DeathWaitsForFenceSafeAndGrace) {
  NodeHealthTracker tracker(SmallOptions());
  tracker.Register(2, kT0);
  // Real renewal at kT0+60: the node may believe it is leased until
  // kT0+300.
  tracker.OnRenewalSent(2, kT0 + 60, 240);

  tracker.AdvanceTime(kT0 + 151);  // suspect (silence since kT0)
  ASSERT_EQ(tracker.health(2), NodeHealth::kSuspect);

  // Grace (suspected_at + 60 = kT0 + 211) has passed, but the fence-safe
  // bound has not: still suspect.
  tracker.AdvanceTime(kT0 + 250);
  EXPECT_EQ(tracker.health(2), NodeHealth::kSuspect);

  // At exactly fence_safe the node may STILL believe it is leased.
  tracker.AdvanceTime(kT0 + 300);
  EXPECT_EQ(tracker.health(2), NodeHealth::kSuspect);

  tracker.AdvanceTime(kT0 + 301);
  EXPECT_EQ(tracker.health(2), NodeHealth::kDead);
  EXPECT_EQ(tracker.stats().deaths, 1u);
  EXPECT_EQ(tracker.TakeNewlyDead(), std::vector<uint32_t>{2});
  EXPECT_TRUE(tracker.TakeNewlyDead().empty());  // drained exactly once
}

// ttl=0 probes never advance the fence-safe bound — the probe channel
// exists precisely so a suspect node's lease can drain.  The bound shows
// as the earliest instant the suspect node can be declared dead.
TEST(NodeHealthTest, ProbesDoNotAdvanceFenceSafe) {
  NodeHealthTracker tracker(SmallOptions());
  tracker.Register(4, kT0);
  tracker.OnRenewalSent(4, kT0, 240);
  for (int i = 1; i <= 10; ++i) {
    tracker.OnRenewalSent(4, kT0 + i * 60, /*ttl=*/0);
  }
  tracker.AdvanceTime(kT0 + 151);  // suspect
  tracker.AdvanceTime(kT0 + 240);  // at the bound: still leased
  EXPECT_EQ(tracker.health(4), NodeHealth::kSuspect);
  tracker.AdvanceTime(kT0 + 241);
  EXPECT_EQ(tracker.health(4), NodeHealth::kDead);
}

// A delayed renewal cannot extend the fence past what the plane already
// accounted for: the bound is keyed to SEND time, and it only ratchets.
TEST(NodeHealthTest, FenceSafeIsMaxOverSendTimes) {
  NodeHealthTracker tracker(SmallOptions());
  tracker.Register(5, kT0);
  tracker.OnRenewalSent(5, kT0 + 120, 240);
  tracker.OnRenewalSent(5, kT0 + 60, 240);  // out-of-order bookkeeping
  tracker.AdvanceTime(kT0 + 151);  // suspect
  tracker.AdvanceTime(kT0 + 360);  // at the bound: still leased
  EXPECT_EQ(tracker.health(5), NodeHealth::kSuspect);
  tracker.AdvanceTime(kT0 + 361);
  EXPECT_EQ(tracker.health(5), NodeHealth::kDead);
}

// Gray failure: p99 reply latency above the bar demotes a node even
// while its grants keep flowing; fast replies recover it.
TEST(NodeHealthTest, GrayFailureDemotesDespiteGrants) {
  NodeHealthTracker::Options opt = SmallOptions();
  opt.slow_p99_threshold = 50;
  opt.min_latency_samples = 4;
  NodeHealthTracker tracker(opt);
  tracker.Register(6, kT0);

  // Grants keep flowing, but replies are slow.
  for (int i = 0; i < 4; ++i) {
    tracker.OnLeaseGrant(6, /*latency=*/120, kT0 + i * 30);
  }
  tracker.AdvanceTime(kT0 + 120);
  EXPECT_EQ(tracker.health(6), NodeHealth::kSuspect);
  EXPECT_EQ(tracker.stats().suspects_gray_failure, 1u);
  EXPECT_FALSE(tracker.ShouldExtendLease(6));

  // A grant alone does not recover a gray-suspect node while the score
  // is still over the bar...
  tracker.OnLeaseGrant(6, 120, kT0 + 150);
  EXPECT_EQ(tracker.health(6), NodeHealth::kSuspect);
  // ...but enough fast samples wash the ring clean and the next grant
  // re-admits it.
  for (int i = 0; i < 64; ++i) {
    tracker.OnAckLatency(6, 1, kT0 + 160 + i);
  }
  tracker.OnLeaseGrant(6, 1, kT0 + 230);
  EXPECT_EQ(tracker.health(6), NodeHealth::kHealthy);
}

// The latency score is not trusted below min_latency_samples.
TEST(NodeHealthTest, UnderFilledRingScoresZero) {
  NodeHealthTracker::Options opt = SmallOptions();
  opt.slow_p99_threshold = 50;
  opt.min_latency_samples = 8;
  NodeHealthTracker tracker(opt);
  tracker.Register(9, kT0);
  for (int i = 0; i < 7; ++i) tracker.OnAckLatency(9, 500, kT0 + i);
  tracker.AdvanceTime(kT0 + 10);
  EXPECT_EQ(tracker.health(9), NodeHealth::kHealthy);
  EXPECT_EQ(tracker.stats().suspects_gray_failure, 0u);
  // The eighth slow sample fills the ring: now the score counts.
  tracker.OnAckLatency(9, 500, kT0 + 11);
  tracker.AdvanceTime(kT0 + 12);
  EXPECT_EQ(tracker.health(9), NodeHealth::kSuspect);
  EXPECT_EQ(tracker.stats().suspects_gray_failure, 1u);
}

// A dead node that grants again is only re-admitted after the rejoin
// cooldown — flapping hardware does not oscillate back into rotation.
TEST(NodeHealthTest, RejoinRequiresCooldown) {
  NodeHealthTracker tracker(SmallOptions());
  tracker.Register(8, kT0);
  tracker.OnRenewalSent(8, kT0, 240);
  tracker.AdvanceTime(kT0 + 151);
  tracker.AdvanceTime(kT0 + 241);
  ASSERT_EQ(tracker.health(8), NodeHealth::kDead);
  const EpochSeconds died_at = kT0 + 241;

  // Grants before the cooldown elapses change nothing.
  tracker.OnLeaseGrant(8, 5, died_at + 100);
  EXPECT_EQ(tracker.health(8), NodeHealth::kDead);
  EXPECT_EQ(tracker.stats().rejoins, 0u);

  tracker.OnLeaseGrant(8, 5, died_at + 300);
  EXPECT_EQ(tracker.health(8), NodeHealth::kHealthy);
  EXPECT_EQ(tracker.stats().rejoins, 1u);
  EXPECT_TRUE(tracker.ShouldExtendLease(8));
}

// Death declarations drain in ascending node id regardless of the order
// the nodes died in — failover order is deterministic.
TEST(NodeHealthTest, TakeNewlyDeadIsSorted) {
  NodeHealthTracker tracker(SmallOptions());
  tracker.Register(11, kT0);
  tracker.Register(3, kT0);
  tracker.Register(7, kT0);
  tracker.AdvanceTime(kT0 + 151);  // all suspect
  tracker.AdvanceTime(kT0 + 211);  // all dead (no fence bound recorded)
  EXPECT_EQ(tracker.TakeNewlyDead(), (std::vector<uint32_t>{3, 7, 11}));
}

// An unknown node reads healthy (the tracker only speaks for nodes the
// dispatcher actually leases).
TEST(NodeHealthTest, UnknownNodeReadsHealthy) {
  NodeHealthTracker tracker(SmallOptions());
  EXPECT_EQ(tracker.health(42), NodeHealth::kHealthy);
  EXPECT_TRUE(tracker.ShouldExtendLease(42));
  EXPECT_TRUE(tracker.TakeNewlyDead().empty());
}

}  // namespace
}  // namespace prorp::controlplane
