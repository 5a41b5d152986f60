#include "net/node_agent.h"

#include <vector>

#include <gtest/gtest.h>

#include "net/fault_injecting_transport.h"
#include "net/message.h"
#include "net/transport.h"

namespace prorp::net {
namespace {

using controlplane::ResumeAttempt;

/// Captures the replies the agent sends back to the plane.
struct PlaneSink {
  std::vector<Envelope> replies;
};

/// The plane's endpoint on one of two wires.  By default the inline
/// InProcessTransport, which never redelivers.  With `redelivering`, a
/// FaultInjectingTransport with a null plan: it delivers exactly like the
/// inline wire, but it is a wire that can redeliver, so the agent keeps
/// its applied-request table and a hand-delivered repeat is a redelivery.
struct Fixture {
  InProcessTransport inline_wire;
  FaultInjectingTransport redelivering_wire{nullptr};
  Transport& transport;
  PlaneSink plane;
  std::vector<ResumeAttempt> executed;
  Status next_verdict = Status::OK();

  explicit Fixture(bool redelivering = false)
      : transport(redelivering ? static_cast<Transport&>(redelivering_wire)
                               : inline_wire) {
    transport.RegisterEndpoint(
        kControlPlaneEndpoint,
        [this](const Envelope& env, EpochSeconds) {
          plane.replies.push_back(env);
        });
  }

  NodeAgent::Executor Executor() {
    return [this](const ResumeAttempt& a, EpochSeconds) {
      executed.push_back(a);
      return next_verdict;
    };
  }

  Envelope Request(uint64_t rid, uint64_t epoch,
                   MessageType type = MessageType::kResumeRequest) {
    Envelope env;
    env.type = type;
    env.src = kControlPlaneEndpoint;
    env.dst = 1;
    env.request_id = rid;
    env.epoch = epoch;
    env.sent_at = 100;
    env.db = 7;
    env.cls = 0;
    env.attempt = 2;
    return env;
  }
};

TEST(NodeAgentTest, ExecutesAndAcksWithRequestIdentity) {
  Fixture f;
  NodeAgent agent(1, &f.transport, f.Executor());

  f.transport.Send(f.Request(/*rid=*/42, /*epoch=*/3));

  ASSERT_EQ(f.executed.size(), 1u);
  EXPECT_EQ(f.executed[0].db, 7u);
  EXPECT_EQ(f.executed[0].attempt, 2);
  EXPECT_EQ(f.executed[0].request_id, 42u);
  ASSERT_EQ(f.plane.replies.size(), 1u);
  const Envelope& ack = f.plane.replies[0];
  EXPECT_EQ(ack.type, MessageType::kAck);
  EXPECT_EQ(ack.request_id, 42u);
  EXPECT_EQ(ack.epoch, 3u);  // echoes the request's epoch
  EXPECT_EQ(ack.code, StatusCode::kOk);
  EXPECT_EQ(agent.stats().executed, 1u);
}

TEST(NodeAgentTest, RedeliveryOfAppliedRequestIsSuppressed) {
  Fixture f(/*redelivering=*/true);
  NodeAgent agent(1, &f.transport, f.Executor());

  f.transport.Send(f.Request(42, 3));
  f.transport.Send(f.Request(42, 3));  // redelivery

  // The side effect ran once; the second delivery was acked OK again with
  // the duplicate flag.
  EXPECT_EQ(f.executed.size(), 1u);
  EXPECT_EQ(agent.stats().duplicate_suppressed, 1u);
  ASSERT_EQ(f.plane.replies.size(), 2u);
  EXPECT_EQ(f.plane.replies[1].type, MessageType::kAck);
  EXPECT_EQ(f.plane.replies[1].code, StatusCode::kOk);
  EXPECT_NE(f.plane.replies[1].flags & kMfDuplicateDelivery, 0u);
  EXPECT_EQ(f.plane.replies[0].flags & kMfDuplicateDelivery, 0u);
}

// Over the inline wire a request id reaches the agent once, so the agent
// keeps no per-request state: a repeated id (possible only when delivered
// by hand) is a new request and executes again.
TEST(NodeAgentTest, InlineWireAgentKeepsNoPerRequestState) {
  Fixture f;
  NodeAgent agent(1, &f.transport, f.Executor());

  f.transport.Send(f.Request(42, 3));
  f.transport.Send(f.Request(42, 3));

  EXPECT_EQ(f.executed.size(), 2u);
  EXPECT_EQ(agent.stats().executed, 2u);
  EXPECT_EQ(agent.stats().duplicate_suppressed, 0u);
  ASSERT_EQ(f.plane.replies.size(), 2u);
  for (const Envelope& reply : f.plane.replies) {
    EXPECT_EQ(reply.type, MessageType::kAck);
    EXPECT_EQ(reply.flags & kMfDuplicateDelivery, 0u);
  }
}

TEST(NodeAgentTest, FailedAttemptIsNotRecordedSoRetransmissionRetries) {
  Fixture f(/*redelivering=*/true);
  NodeAgent agent(1, &f.transport, f.Executor());

  f.next_verdict = Status::Unavailable("transient");
  f.transport.Send(f.Request(42, 3));
  ASSERT_EQ(f.plane.replies.size(), 1u);
  EXPECT_EQ(f.plane.replies[0].type, MessageType::kNack);
  EXPECT_EQ(f.plane.replies[0].code, StatusCode::kUnavailable);

  // A failed attempt had no side effect, so the retransmission doubles as
  // a retry and this time executes.
  f.next_verdict = Status::OK();
  f.transport.Send(f.Request(42, 3));
  EXPECT_EQ(f.executed.size(), 2u);
  EXPECT_EQ(agent.stats().duplicate_suppressed, 0u);
  EXPECT_EQ(f.plane.replies[1].type, MessageType::kAck);
}

TEST(NodeAgentTest, RequestBelowTheFenceIsNackedNeverExecuted) {
  Fixture f;
  NodeAgent agent(1, &f.transport, f.Executor());
  agent.FenceEpoch(5);

  f.transport.Send(f.Request(42, /*epoch=*/4));  // predecessor straggler

  EXPECT_TRUE(f.executed.empty());
  EXPECT_EQ(agent.stats().stale_epoch_rejected, 1u);
  ASSERT_EQ(f.plane.replies.size(), 1u);
  EXPECT_EQ(f.plane.replies[0].type, MessageType::kNack);
  EXPECT_EQ(f.plane.replies[0].code, StatusCode::kFailedPrecondition);
  EXPECT_NE(f.plane.replies[0].flags & kMfStaleEpoch, 0u);
  EXPECT_EQ(f.plane.replies[0].epoch, 4u);  // old epoch comes back
}

TEST(NodeAgentTest, EveryMessageRaisesTheFenceRatchet) {
  Fixture f;
  NodeAgent agent(1, &f.transport, f.Executor());

  f.transport.Send(f.Request(1, 6));
  EXPECT_EQ(agent.fence_epoch(), 6u);

  // A later message from epoch 5 is now stale even though no explicit
  // FenceEpoch call happened.
  f.transport.Send(f.Request(2, 5));
  EXPECT_EQ(f.executed.size(), 1u);
  EXPECT_EQ(agent.stats().stale_epoch_rejected, 1u);

  // FenceEpoch never lowers the ratchet.
  agent.FenceEpoch(2);
  EXPECT_EQ(agent.fence_epoch(), 6u);
}

TEST(NodeAgentTest, LeaseRenewalRaisesFenceAndGrants) {
  Fixture f;
  NodeAgent agent(1, &f.transport, f.Executor());

  f.transport.Send(f.Request(0, 9, MessageType::kLeaseRenew));

  EXPECT_EQ(agent.fence_epoch(), 9u);
  EXPECT_EQ(agent.stats().leases_granted, 1u);
  ASSERT_EQ(f.plane.replies.size(), 1u);
  EXPECT_EQ(f.plane.replies[0].type, MessageType::kLeaseGrant);

  // The fence raised by the lease now rejects an older incarnation's
  // request even though no workflow ever reached this node before.
  f.transport.Send(f.Request(1, 8));
  EXPECT_TRUE(f.executed.empty());
  EXPECT_EQ(agent.stats().stale_epoch_rejected, 1u);
}

Envelope Renewal(uint64_t epoch, EpochSeconds sent_at,
                 DurationSeconds ttl) {
  Envelope env;
  env.type = MessageType::kLeaseRenew;
  env.src = kControlPlaneEndpoint;
  env.dst = 1;
  env.epoch = epoch;
  env.sent_at = sent_at;
  env.lease_ttl = ttl;
  return env;
}

TEST(NodeAgentLeaseTest, LapsedLeaseSelfQuiescesAndRefusesWork) {
  Fixture f;
  NodeAgent agent(1, &f.transport, f.Executor());
  std::vector<EpochSeconds> quiesces;
  agent.set_quiesce_handler(
      [&quiesces](EpochSeconds t) { quiesces.push_back(t); });

  // A real renewal makes the agent lease-enforced until sent_at + ttl.
  f.transport.Send(Renewal(3, /*sent_at=*/100, /*ttl=*/240));
  EXPECT_TRUE(agent.LeaseValid(340));
  EXPECT_FALSE(agent.LeaseValid(341));

  Envelope ok = f.Request(41, 3);
  ok.sent_at = 300;
  f.transport.Send(ok);
  EXPECT_EQ(f.executed.size(), 1u);

  // Past the deadline the agent fences itself: the arrival itself trips
  // the quiesce, and the request is refused, never executed.
  Envelope late = f.Request(42, 3);
  late.sent_at = 341;
  f.transport.Send(late);
  EXPECT_EQ(f.executed.size(), 1u);
  EXPECT_EQ(agent.stats().self_quiesces, 1u);
  EXPECT_EQ(agent.stats().lease_expired_rejected, 1u);
  ASSERT_EQ(quiesces.size(), 1u);
  EXPECT_EQ(quiesces[0], 341);
  const Envelope& nack = f.plane.replies.back();
  EXPECT_EQ(nack.type, MessageType::kNack);
  EXPECT_EQ(nack.code, StatusCode::kUnavailable);
  EXPECT_NE(nack.flags & kMfLeaseExpired, 0u);
}

TEST(NodeAgentLeaseTest, ProbeGrantsButDoesNotExtendTheLease) {
  Fixture f;
  NodeAgent agent(1, &f.transport, f.Executor());

  f.transport.Send(Renewal(3, 100, 240));  // lease until 340
  f.transport.Send(Renewal(3, 200, 0));    // probe
  EXPECT_EQ(agent.stats().leases_granted, 2u);
  ASSERT_EQ(f.plane.replies.size(), 2u);
  EXPECT_EQ(f.plane.replies[1].type, MessageType::kLeaseGrant);
  // The probe solicited liveness evidence but the deadline stands: the
  // probe channel is how a suspect node's lease drains.
  EXPECT_FALSE(agent.LeaseValid(341));
}

TEST(NodeAgentLeaseTest, DelayedRenewalExtendsOnlyFromItsSendTime) {
  Fixture f;
  NodeAgent agent(1, &f.transport, f.Executor());

  // A renewal that sat in the network: sent at 100, ttl 240 — whenever it
  // arrives, the node may not believe itself leased past 340, because
  // 340 is all the plane accounted for when it sent it.
  f.transport.Send(Renewal(3, 100, 240));
  EXPECT_FALSE(agent.LeaseValid(400));

  Envelope late = f.Request(42, 3);
  late.sent_at = 400;
  f.transport.Send(late);
  EXPECT_TRUE(f.executed.empty());
  EXPECT_EQ(agent.stats().lease_expired_rejected, 1u);
}

// The quiesce voids the applied-request table: the recorded ids
// describe side effects the quiesce destroyed, so after a re-lease a
// redelivery must RE-EXECUTE (the work has to be redone), not re-ack.
TEST(NodeAgentLeaseTest, QuiesceVoidsDedupSoReExecutionIsCorrect) {
  Fixture f(/*redelivering=*/true);
  NodeAgent agent(1, &f.transport, f.Executor());

  f.transport.Send(Renewal(3, 100, 240));
  Envelope req = f.Request(42, 3);
  req.sent_at = 200;
  f.transport.Send(req);
  ASSERT_EQ(f.executed.size(), 1u);

  agent.AdvanceTime(341);  // lease lapses; side effects released
  EXPECT_EQ(agent.stats().self_quiesces, 1u);

  f.transport.Send(Renewal(3, 350, 240));  // re-leased until 590
  Envelope redelivery = f.Request(42, 3);
  redelivery.sent_at = 360;
  f.transport.Send(redelivery);
  EXPECT_EQ(f.executed.size(), 2u);
  EXPECT_EQ(agent.stats().duplicate_suppressed, 0u);
}

// A floater sent BEFORE the quiesce must not execute after the re-lease:
// its world (and the plane state that produced it) predates the fence.
TEST(NodeAgentLeaseTest, PreQuiesceFloaterIsRefusedAfterReLease) {
  Fixture f;
  NodeAgent agent(1, &f.transport, f.Executor());

  f.transport.Send(Renewal(3, 100, 240));
  agent.AdvanceTime(341);
  f.transport.Send(Renewal(3, 350, 240));  // re-leased

  Envelope floater = f.Request(7, 3);
  floater.sent_at = 320;  // sent while the old lease was still live
  f.transport.Send(floater);
  EXPECT_TRUE(f.executed.empty());
  EXPECT_EQ(agent.stats().lease_expired_rejected, 1u);
}

TEST(NodeAgentLeaseTest, CrashedAgentIsDeafUntilRestart) {
  Fixture f;
  NodeAgent agent(1, &f.transport, f.Executor());

  agent.Crash();
  EXPECT_TRUE(agent.down());
  f.transport.Send(f.Request(42, 3));
  EXPECT_TRUE(f.executed.empty());
  EXPECT_TRUE(f.plane.replies.empty());

  agent.Restart(500);
  EXPECT_FALSE(agent.down());
  // A pre-restart floater is refused: the incarnation that could have
  // honored it died.
  Envelope floater = f.Request(42, 3);
  floater.sent_at = 400;
  f.transport.Send(floater);
  EXPECT_TRUE(f.executed.empty());
  EXPECT_EQ(agent.stats().lease_expired_rejected, 1u);

  // Fresh requests execute again.
  Envelope fresh = f.Request(43, 3);
  fresh.sent_at = 501;
  f.transport.Send(fresh);
  EXPECT_EQ(f.executed.size(), 1u);
}

// Restart clears the dedup table: the crash destroyed every side effect
// it described, so re-execution — not re-ack — is the correct answer to
// a redelivery of pre-crash work.
TEST(NodeAgentLeaseTest, RestartVoidsDedupTable) {
  Fixture f(/*redelivering=*/true);
  NodeAgent agent(1, &f.transport, f.Executor());

  Envelope req = f.Request(42, 3);
  req.sent_at = 100;
  f.transport.Send(req);
  ASSERT_EQ(f.executed.size(), 1u);

  agent.Crash();
  agent.Restart(200);

  Envelope redelivery = f.Request(42, 3);
  redelivery.sent_at = 250;
  f.transport.Send(redelivery);
  EXPECT_EQ(f.executed.size(), 2u);
  EXPECT_EQ(agent.stats().duplicate_suppressed, 0u);
}

// An unleased agent never self-quiesces: lease enforcement switches on
// only at the first real renewal, so pre-failover deployments are
// untouched.
TEST(NodeAgentLeaseTest, NeverLeasedAgentIsNeverFenced) {
  Fixture f;
  NodeAgent agent(1, &f.transport, f.Executor());
  agent.AdvanceTime(1'000'000);
  EXPECT_EQ(agent.stats().self_quiesces, 0u);
  EXPECT_TRUE(agent.LeaseValid(1'000'000));

  Envelope req = f.Request(42, 3);
  req.sent_at = 1'000'001;
  f.transport.Send(req);
  EXPECT_EQ(f.executed.size(), 1u);
}

// Replies echo the transmission's send time in enqueued_at — the plane's
// per-transmission round-trip clock for gray-failure scoring.
TEST(NodeAgentLeaseTest, RepliesEchoTransmissionSendTime) {
  Fixture f;
  NodeAgent agent(1, &f.transport, f.Executor());

  Envelope req = f.Request(42, 3);
  req.sent_at = 777;
  req.enqueued_at = 123;  // workflow enqueue time; must NOT be echoed
  f.transport.Send(req);
  ASSERT_EQ(f.plane.replies.size(), 1u);
  EXPECT_EQ(f.plane.replies[0].enqueued_at, 777u);

  f.transport.Send(Renewal(3, 888, 240));
  ASSERT_EQ(f.plane.replies.size(), 2u);
  EXPECT_EQ(f.plane.replies[1].enqueued_at, 888u);
}

}  // namespace
}  // namespace prorp::net
