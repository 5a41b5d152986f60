#include "net/dispatcher.h"

#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "common/config.h"
#include "controlplane/management_service.h"
#include "controlplane/metadata_store.h"
#include "controlplane/node_health.h"
#include "faults/fault_plan.h"
#include "net/fault_injecting_transport.h"
#include "net/node_agent.h"
#include "net/transport.h"

namespace prorp::net {
namespace {

using controlplane::ManagementService;
using controlplane::MetadataStore;
using controlplane::ResumeAttempt;
using controlplane::ResumeClass;
using faults::FaultKind;
using faults::FaultOp;
using faults::FaultPlan;

constexpr EpochSeconds kT0 = 1000;

/// A plane + transport + one node, with an idempotence-aware node
/// executor: resuming an already resumed database is a FailedPrecondition,
/// exactly like the real lifecycle FSM.
struct Fixture {
  explicit Fixture(Transport* transport,
                   TransportDispatcher::Options dopt = {})
      : dispatcher(transport, dopt),
        agent(1, transport,
              [this](const ResumeAttempt& a, EpochSeconds) {
                ++executions;
                if (!resumed.insert(a.db).second) {
                  return Status::FailedPrecondition("already resumed");
                }
                return Status::OK();
              }) {}

  void StartService(ControlPlaneConfig config, uint64_t epoch = 1,
                    int max_attempts = 3) {
    auto meta = MetadataStore::Open();
    ASSERT_TRUE(meta.ok());
    metadata = std::move(*meta);
    service = std::make_unique<ManagementService>(
        metadata.get(), config,
        [this](const ResumeAttempt& a, EpochSeconds now) {
          return dispatcher.DispatchResume(a, now);
        },
        max_attempts);
    service->set_epoch(epoch);
    dispatcher.set_service(service.get());
    agent.FenceEpoch(epoch);
  }

  /// Registers the database as physically paused so a resume workflow
  /// has something to act on (a non-paused db is retired undispatched).
  void MarkPaused(DbId db) {
    ASSERT_TRUE(
        metadata->UpsertState(db, policy::DbState::kPhysicallyPaused, 0)
            .ok());
  }

  static ControlPlaneConfig Config(bool hedging = false) {
    ControlPlaneConfig config;
    config.retry_backoff_base = 60;
    config.retry_backoff_cap = 240;
    config.queue_capacity = 32;
    config.deadline_hedging_enabled = hedging;
    config.deadline_reactive = 120;
    return config;
  }

  TransportDispatcher dispatcher;
  NodeAgent agent;
  std::unique_ptr<MetadataStore> metadata;
  std::unique_ptr<ManagementService> service;
  std::set<DbId> resumed;
  int executions = 0;
};

TEST(TransportDispatcherTest, InlineDispatchLeavesNoTableEntry) {
  // An inline transport answers inside Send, so the dispatch settles
  // before it could be parked: it never enters the outstanding table,
  // not even while the node executes it.
  InProcessTransport transport;
  TransportDispatcher dispatcher(&transport, {});
  size_t outstanding_during_execution = 99;
  NodeAgent agent(1, &transport, [&](const ResumeAttempt&, EpochSeconds) {
    outstanding_during_execution = dispatcher.outstanding();
    return Status::OK();
  });
  ResumeAttempt attempt;
  attempt.db = 3;
  attempt.request_id = 42;
  EXPECT_TRUE(dispatcher.DispatchResume(attempt, kT0).ok());
  EXPECT_EQ(outstanding_during_execution, 0u);
  EXPECT_EQ(dispatcher.stats().inline_acked, 1u);
  EXPECT_EQ(dispatcher.stats().late_acks, 0u);
  EXPECT_TRUE(dispatcher.Idle());
}

TEST(TransportDispatcherTest, FaultFreeDispatchResolvesInline) {
  InProcessTransport transport;
  Fixture f(&transport);
  f.StartService(Fixture::Config());

  f.MarkPaused(3);
  ASSERT_TRUE(f.service->EnqueueReactive(3, kT0).ok());
  f.service->Pump(kT0);

  EXPECT_EQ(f.executions, 1);
  EXPECT_EQ(f.resumed.count(3), 1u);
  EXPECT_EQ(f.dispatcher.stats().inline_acked, 1u);
  EXPECT_EQ(f.dispatcher.stats().async_acked, 0u);
  EXPECT_TRUE(f.dispatcher.Idle());
  // The service never saw kPending: no unacked parking, no transport
  // telemetry — indistinguishable from the legacy direct call.
  EXPECT_EQ(f.service->unacked(), 0u);
  EXPECT_EQ(f.service->diagnostics().unacked_dispatches, 0u);
  EXPECT_EQ(f.service->diagnostics().cls(ResumeClass::kReactiveLogin).resumed,
            1u);
  EXPECT_TRUE(f.service->AccountingReconciles());
}

TEST(TransportDispatcherTest, DroppedRequestRetransmitsThenResolves) {
  FaultPlan plan(1);
  plan.FailNth(FaultOp::kMsgRequest, 1, FaultKind::kMsgDrop);
  FaultInjectingTransport transport(&plan);
  TransportDispatcher::Options dopt;
  dopt.retransmit_after = 30;
  Fixture f(&transport, dopt);
  f.StartService(Fixture::Config());

  f.MarkPaused(3);
  ASSERT_TRUE(f.service->EnqueueReactive(3, kT0).ok());
  f.service->Pump(kT0);

  // The first transmission was dropped: the workflow is parked unacked.
  EXPECT_EQ(f.executions, 0);
  EXPECT_EQ(f.service->unacked(), 1u);
  EXPECT_EQ(f.service->diagnostics().unacked_dispatches, 1u);
  EXPECT_FALSE(f.dispatcher.Idle());

  // The retransmission gets through and the async ack resolves it.
  f.dispatcher.Tick(kT0 + 30);
  EXPECT_EQ(f.executions, 1);
  EXPECT_EQ(f.service->unacked(), 0u);
  EXPECT_EQ(f.dispatcher.stats().retransmissions, 1u);
  EXPECT_EQ(f.dispatcher.stats().async_acked, 1u);
  EXPECT_EQ(f.dispatcher.stats().timeouts, 0u);
  EXPECT_EQ(f.service->diagnostics().cls(ResumeClass::kReactiveLogin).resumed,
            1u);
  EXPECT_TRUE(f.service->AccountingReconciles());
}

/// Regression (satellite 2): a dispatch whose every transmission vanished
/// is UNACKED, not failed — the outcome is unknown, so it must not touch
/// the failure/stuck/incident accounting, and the item requeues with its
/// attempt count unchanged.
TEST(TransportDispatcherTest, ExhaustedTransmissionsAreUnackedNotFailed) {
  FaultPlan plan(1);
  for (uint64_t n = 1; n <= 4; ++n) {
    plan.FailNth(FaultOp::kMsgRequest, n, FaultKind::kMsgDrop);
  }
  FaultInjectingTransport transport(&plan);
  TransportDispatcher::Options dopt;
  dopt.retransmit_after = 30;
  dopt.max_transmissions = 4;
  Fixture f(&transport, dopt);
  f.StartService(Fixture::Config());

  f.MarkPaused(3);
  ASSERT_TRUE(f.service->EnqueueReactive(3, kT0).ok());
  f.service->Pump(kT0);
  for (DurationSeconds dt = 30; dt <= 120; dt += 30) {
    f.dispatcher.Tick(kT0 + dt);
  }

  // Budget exhausted: one timeout, zero failures.
  const auto& diag = f.service->diagnostics();
  EXPECT_EQ(f.dispatcher.stats().timeouts, 1u);
  EXPECT_EQ(diag.dispatch_timeouts, 1u);
  EXPECT_EQ(diag.stuck_workflows, 0u);
  EXPECT_EQ(diag.mitigated, 0u);
  EXPECT_EQ(diag.incidents, 0u);
  EXPECT_EQ(diag.cls(ResumeClass::kReactiveLogin).stuck, 0u);
  EXPECT_EQ(f.service->unacked(), 0u);
  EXPECT_EQ(f.service->pending_workflows(), 1u);  // requeued, not dropped

  // The redispatch (faults exhausted) succeeds; mitigated stays zero
  // because the attempt count never moved — the timeout was not a retry.
  f.service->Pump(kT0 + 120);
  EXPECT_EQ(f.resumed.count(3), 1u);
  EXPECT_EQ(diag.cls(ResumeClass::kReactiveLogin).resumed, 1u);
  EXPECT_EQ(diag.mitigated, 0u);
  EXPECT_EQ(f.service->pending_workflows(), 0u);
  EXPECT_TRUE(f.service->AccountingReconciles());
}

/// Satellite 3: an ack that arrives after the workflow already resolved
/// (here: the node's first ack was delayed past the retransmission that
/// re-acked it) is telemetry only — no state transition, no double count.
TEST(TransportDispatcherTest, LateDuplicateAckIsTelemetryOnly) {
  FaultPlan plan(1);
  plan.FailNthWithArg(FaultOp::kMsgAck, 1, FaultKind::kMsgDelay, /*arg=*/0);
  FaultInjectingTransport::Options topt;
  topt.delay_min = 50;
  topt.delay_max = 50;
  FaultInjectingTransport transport(&plan, topt);
  TransportDispatcher::Options dopt;
  dopt.retransmit_after = 30;
  Fixture f(&transport, dopt);
  f.StartService(Fixture::Config());

  f.MarkPaused(3);
  ASSERT_TRUE(f.service->EnqueueReactive(3, kT0).ok());
  f.service->Pump(kT0);
  // Executed once, but the ack floats: parked unacked.
  EXPECT_EQ(f.executions, 1);
  EXPECT_EQ(f.service->unacked(), 1u);

  // Retransmission: the node dedups (no second side effect) and re-acks;
  // this second ack is undelayed and resolves the workflow.
  f.dispatcher.Tick(kT0 + 30);
  EXPECT_EQ(f.executions, 1);
  EXPECT_EQ(f.agent.stats().duplicate_suppressed, 1u);
  EXPECT_EQ(f.service->unacked(), 0u);
  const auto& diag = f.service->diagnostics();
  EXPECT_EQ(diag.cls(ResumeClass::kReactiveLogin).resumed, 1u);

  // The delayed original ack surfaces: late, counted, ignored.
  f.dispatcher.Tick(kT0 + 60);
  EXPECT_EQ(f.dispatcher.stats().late_acks, 1u);
  EXPECT_EQ(diag.late_acks, 1u);
  EXPECT_EQ(diag.cls(ResumeClass::kReactiveLogin).resumed, 1u);
  EXPECT_EQ(f.executions, 1);
  EXPECT_TRUE(f.service->AccountingReconciles());
}

/// Satellite 3: a predecessor incarnation's delayed ack surfaces after a
/// crash/recovery.  The epoch mismatch routes it into the stale-ack
/// counter; the recovered service never interprets it.
TEST(TransportDispatcherTest, StaleEpochAckAfterRecoveryIsCounted) {
  FaultPlan plan(1);
  plan.FailNthWithArg(FaultOp::kMsgAck, 1, FaultKind::kMsgDelay, 0);
  FaultInjectingTransport::Options topt;
  topt.delay_min = 500;
  topt.delay_max = 500;
  FaultInjectingTransport transport(&plan, topt);
  TransportDispatcher::Options dopt;
  dopt.retransmit_after = 10'000;  // no retransmissions in this test
  Fixture f(&transport, dopt);
  f.StartService(Fixture::Config(), /*epoch=*/1);

  f.MarkPaused(3);
  ASSERT_TRUE(f.service->EnqueueReactive(3, kT0).ok());
  f.service->Pump(kT0);
  EXPECT_EQ(f.executions, 1);  // executed; only the ack floats

  // Crash/recovery: a new incarnation takes over at epoch 2.  The
  // dispatcher forgets the predecessor's outstanding table and the node
  // is fenced before anything else is delivered.
  f.StartService(Fixture::Config(), /*epoch=*/2);

  // The old incarnation's ack finally surfaces: its epoch no longer
  // matches, so it is counted stale and applied nowhere.
  f.dispatcher.Tick(kT0 + 600);
  EXPECT_EQ(f.dispatcher.stats().stale_epoch_acks, 1u);
  EXPECT_EQ(f.service->diagnostics().stale_epoch_acks, 1u);
  EXPECT_EQ(f.service->diagnostics().late_acks, 0u);
  EXPECT_EQ(f.service->unacked(), 0u);
  EXPECT_TRUE(f.service->AccountingReconciles());
}

/// A predecessor's delayed REQUEST delivered after recovery is dead on
/// arrival at the node: the fence rejects it before it can execute, and
/// its stale-epoch nack is recognized as a straggler by the plane.
TEST(TransportDispatcherTest, StaleEpochRequestIsFencedNeverExecuted) {
  FaultPlan plan(1);
  plan.FailNthWithArg(FaultOp::kMsgRequest, 1, FaultKind::kMsgDelay, 0);
  FaultInjectingTransport::Options topt;
  topt.delay_min = 500;
  topt.delay_max = 500;
  FaultInjectingTransport transport(&plan, topt);
  TransportDispatcher::Options dopt;
  dopt.retransmit_after = 10'000;
  Fixture f(&transport, dopt);
  f.StartService(Fixture::Config(), /*epoch=*/1);

  f.MarkPaused(3);
  ASSERT_TRUE(f.service->EnqueueReactive(3, kT0).ok());
  f.service->Pump(kT0);
  EXPECT_EQ(f.executions, 0);  // request still floating

  f.StartService(Fixture::Config(), /*epoch=*/2);

  f.dispatcher.Tick(kT0 + 600);
  EXPECT_EQ(f.executions, 0);  // fenced, never executed
  EXPECT_EQ(f.agent.stats().stale_epoch_rejected, 1u);
  // The fence nack echoed epoch 1, so the plane counts it stale too.
  EXPECT_EQ(f.dispatcher.stats().stale_epoch_acks, 1u);
  EXPECT_EQ(f.service->diagnostics().stale_epoch_acks, 1u);
}

/// The exactly-once core: a hedge racing a delayed original must produce
/// one side effect and one resolution, whichever side lands first.
TEST(TransportDispatcherTest, HedgePlusDelayedOriginalIsExactlyOnce) {
  FaultPlan plan(1);
  plan.FailNthWithArg(FaultOp::kMsgRequest, 1, FaultKind::kMsgDelay, 0);
  FaultInjectingTransport::Options topt;
  topt.delay_min = 500;
  topt.delay_max = 500;
  FaultInjectingTransport transport(&plan, topt);
  TransportDispatcher::Options dopt;
  dopt.retransmit_after = 10'000;  // isolate the hedge from retransmits
  Fixture f(&transport, dopt);
  f.StartService(Fixture::Config(/*hedging=*/true));

  f.MarkPaused(3);
  ASSERT_TRUE(f.service->EnqueueReactive(3, kT0).ok());
  f.service->Pump(kT0);
  EXPECT_EQ(f.service->unacked(), 1u);  // original floats until kT0+500

  // Past the reactive deadline the watchdog hedges the unacked dispatch;
  // the hedge's request is undelayed and wins inline.
  f.service->Pump(kT0 + 130);
  EXPECT_EQ(f.executions, 1);
  EXPECT_EQ(f.resumed.count(3), 1u);
  EXPECT_EQ(f.service->unacked(), 0u);
  const auto& cd =
      f.service->diagnostics().cls(ResumeClass::kReactiveLogin);
  EXPECT_EQ(cd.resumed, 1u);
  EXPECT_EQ(cd.hedged, 1u);
  EXPECT_EQ(cd.hedge_wins, 1u);

  // The delayed original surfaces at the node: a fresh request id, so the
  // dedup table does not absorb it — the node-side state check does (the
  // database is already resumed), and its nack lands as a late ack.
  f.dispatcher.Tick(kT0 + 600);
  EXPECT_EQ(f.resumed.size(), 1u);
  EXPECT_EQ(cd.resumed, 1u);
  EXPECT_EQ(f.service->diagnostics().late_acks, 1u);
  EXPECT_TRUE(f.service->AccountingReconciles());
}

TEST(TransportDispatcherTest, LeaseRenewalsAdvertiseTheEpochToEveryNode) {
  InProcessTransport transport;
  TransportDispatcher::Options dopt;
  dopt.lease_interval = 300;
  dopt.first_node = 1;
  dopt.num_nodes = 2;
  Fixture f(&transport, dopt);
  NodeAgent second(2, &transport,
                   [](const ResumeAttempt&, EpochSeconds) {
                     return Status::OK();
                   });
  f.StartService(Fixture::Config(), /*epoch=*/7);
  // StartService fences agent 1 explicitly; agent 2 learns the epoch only
  // through the lease.
  EXPECT_EQ(second.fence_epoch(), 0u);

  f.dispatcher.Tick(kT0);

  EXPECT_EQ(f.dispatcher.stats().lease_renewals, 2u);
  EXPECT_EQ(f.dispatcher.stats().lease_grants, 2u);
  EXPECT_EQ(second.fence_epoch(), 7u);

  // Within the interval no further renewals go out.
  f.dispatcher.Tick(kT0 + 100);
  EXPECT_EQ(f.dispatcher.stats().lease_renewals, 2u);
  f.dispatcher.Tick(kT0 + 300);
  EXPECT_EQ(f.dispatcher.stats().lease_renewals, 4u);
}

/// Lease grants are disaggregated by granting node: the aggregate count
/// cannot tell a healthy pool from one dead node hidden behind a chatty
/// neighbor.  Once the tracker demotes the silent node its renewals turn
/// into ttl=0 probes, its fence-safe bound stops advancing, and after
/// lease TTL + grace it is declared dead.
TEST(TransportDispatcherTest, DeadNodeIsProbedItsLeaseDrainsAndDeathIsDeclared) {
  InProcessTransport transport;
  TransportDispatcher::Options dopt;
  dopt.lease_interval = 60;
  dopt.lease_ttl = 240;
  dopt.num_nodes = 2;
  Fixture f(&transport, dopt);
  NodeAgent second(2, &transport,
                   [](const ResumeAttempt&, EpochSeconds) {
                     return Status::OK();
                   });
  controlplane::NodeHealthTracker::Options hopt;
  hopt.lease_ttl = 240;
  hopt.suspect_after = 150;
  hopt.dead_grace = 60;
  controlplane::NodeHealthTracker tracker(hopt);
  f.dispatcher.set_health_tracker(&tracker);
  f.StartService(Fixture::Config());

  second.Crash();
  for (DurationSeconds dt = 0; dt <= 420; dt += 60) {
    f.dispatcher.Tick(kT0 + dt);
  }
  // Last real renewal went out at kT0+180, so the node may believe
  // itself leased until kT0+420: at that tick it is still only suspect.
  EXPECT_EQ(tracker.health(2), controlplane::NodeHealth::kSuspect);
  f.dispatcher.Tick(kT0 + 480);

  // Node 1 granted every interval; node 2 never did.
  EXPECT_EQ(f.dispatcher.lease_grants_from(1), 9u);
  EXPECT_EQ(f.dispatcher.lease_grants_from(2), 0u);
  EXPECT_EQ(f.dispatcher.stats().lease_grants, 9u);

  // Node 2 got real renewals until the silence demoted it (ticks kT0 ..
  // kT0+180), probes after; node 1 got real renewals throughout.
  EXPECT_EQ(f.dispatcher.stats().lease_renewals, 13u);
  EXPECT_EQ(f.dispatcher.stats().lease_probes, 5u);
  EXPECT_EQ(tracker.stats().suspects_missed_grants, 1u);

  // Strictly past the fence-safe bound (plus grace) it is dead, and the
  // declaration drains exactly once.
  EXPECT_EQ(tracker.health(2), controlplane::NodeHealth::kDead);
  EXPECT_EQ(tracker.health(1), controlplane::NodeHealth::kHealthy);
  EXPECT_EQ(tracker.TakeNewlyDead(), std::vector<uint32_t>{2});
  EXPECT_TRUE(tracker.TakeNewlyDead().empty());
}

/// Gray failure end to end through the dispatcher: a node whose grants
/// keep flowing but arrive late accumulates p99 reply latency through
/// the enqueued_at echo, is demoted on the score (never on silence), and
/// its renewals turn into probes.
TEST(TransportDispatcherTest, SlowGrantLatencyDemotesToGrayFailureProbes) {
  FaultPlan plan(1);  // trigger-free: no drops, no injected delays
  FaultInjectingTransport transport(&plan);
  SlowNodeSpec slow;
  slow.node = 1;
  slow.from = 0;
  slow.until = kT0 + 100'000;
  slow.delay = 80;
  transport.AddSlowNode(slow);
  TransportDispatcher::Options dopt;
  dopt.lease_interval = 60;
  dopt.lease_ttl = 240;
  dopt.num_nodes = 1;
  Fixture f(&transport, dopt);
  controlplane::NodeHealthTracker::Options hopt;
  hopt.slow_p99_threshold = 50;
  hopt.min_latency_samples = 4;
  controlplane::NodeHealthTracker tracker(hopt);
  f.dispatcher.set_health_tracker(&tracker);
  f.StartService(Fixture::Config());

  for (DurationSeconds dt = 0; dt <= 360; dt += 60) {
    f.dispatcher.Tick(kT0 + dt);
  }

  // Every grant arrived (the node is alive) — two intervals late, so
  // each carried ~120s of round trip against its renewal's send time.
  EXPECT_GT(f.dispatcher.lease_grants_from(1), 0u);
  EXPECT_EQ(tracker.health(1), controlplane::NodeHealth::kSuspect);
  EXPECT_EQ(tracker.stats().suspects_gray_failure, 1u);
  EXPECT_EQ(tracker.stats().suspects_missed_grants, 0u);
  EXPECT_GT(f.dispatcher.stats().lease_probes, 0u);
}

}  // namespace
}  // namespace prorp::net
