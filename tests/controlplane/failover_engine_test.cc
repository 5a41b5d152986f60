#include "controlplane/failover.h"

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "controlplane/durable_control_plane.h"
#include "controlplane/management_service.h"
#include "controlplane/metadata_store.h"
#include "controlplane/node_health.h"

namespace prorp::controlplane {
namespace {

namespace fs = std::filesystem;
using policy::DbState;

constexpr EpochSeconds kT0 = 1'000'000;

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

ControlPlaneConfig SmallConfig() {
  ControlPlaneConfig config;
  config.prewarm_interval = 300;
  config.resume_operation_period = 60;
  config.retry_backoff_cap = 240;
  config.queue_capacity = 16;
  config.admission_control_enabled = true;
  config.deadline_hedging_enabled = true;
  return config;
}

NodeHealthTracker::Options TrackerOptions() {
  NodeHealthTracker::Options opt;
  opt.suspect_after = 150;
  opt.dead_grace = 60;
  opt.rejoin_after = 300;
  return opt;
}

/// Registers `node`, records one real renewal, and advances the clock
/// until the tracker declares it dead.  Returns the declaration time.
EpochSeconds KillNode(NodeHealthTracker* tracker, uint32_t node) {
  tracker->Register(node, kT0);
  tracker->OnRenewalSent(node, kT0, 240);
  tracker->AdvanceTime(kT0 + 151);  // suspect: grant silence
  const EpochSeconds death = kT0 + 241;  // past fence (kT0+240) and grace
  tracker->AdvanceTime(death);
  EXPECT_EQ(tracker->health(node), NodeHealth::kDead);
  return death;
}

// A death declaration re-places every database enumerated on the dead
// node as reactive-priority work, journaling the declaration first.
TEST(FailoverEngineTest, RequeuesDeadNodesDatabases) {
  auto meta = MetadataStore::Open();
  ASSERT_TRUE(meta.ok());
  std::vector<DbId> dispatched;
  ManagementService svc(meta->get(), SmallConfig(),
                        [&](const ResumeAttempt& a, EpochSeconds) -> Status {
                          dispatched.push_back(a.db);
                          return Status::OK();
                        });
  for (DbId db : {4u, 2u, 9u}) {
    ASSERT_TRUE(meta->get()->UpsertState(db, DbState::kResumed, 0).ok());
  }

  NodeHealthTracker tracker(TrackerOptions());
  const EpochSeconds death = KillNode(&tracker, 7);

  std::vector<std::pair<DbId, uint32_t>> requeued;
  FailoverEngine engine(&svc, &tracker, [](uint32_t node) {
    EXPECT_EQ(node, 7u);
    // Unsorted and with a duplicate: the engine must canonicalize.
    return std::vector<DbId>{9, 4, 2, 4};
  });
  engine.set_requeue_hook([&](DbId db, uint32_t node, EpochSeconds) {
    requeued.push_back({db, node});
  });

  ASSERT_TRUE(engine.Tick(death).ok());

  EXPECT_EQ(svc.diagnostics().node_failovers, 1u);
  EXPECT_EQ(svc.diagnostics().failover_requeues, 3u);
  ASSERT_EQ(engine.deaths().size(), 1u);
  EXPECT_EQ(engine.deaths()[0].node, 7u);
  EXPECT_EQ(engine.deaths()[0].requeued, 3u);
  EXPECT_EQ(engine.deaths()[0].deduped, 0u);
  ASSERT_EQ(requeued.size(), 3u);
  EXPECT_EQ(requeued[0], (std::pair<DbId, uint32_t>{2, 7}));
  EXPECT_EQ(svc.queued(ResumeClass::kReactiveLogin), 3u);
  EXPECT_TRUE(svc.AccountingReconciles());

  // The requeued work drains through the normal reactive pump.
  svc.Pump(death + 10);
  EXPECT_EQ(dispatched, (std::vector<DbId>{2, 4, 9}));
  EXPECT_TRUE(svc.AccountingReconciles());

  // A second Tick with no new deaths is a no-op.
  ASSERT_TRUE(engine.Tick(death + 20).ok());
  EXPECT_EQ(engine.deaths().size(), 1u);
}

// A failover never forks a second workflow: databases already queued,
// in flight, or unacked are deduplicated (queued non-reactive work is
// promoted instead).
TEST(FailoverEngineTest, DedupsAgainstLiveWorkflows) {
  auto meta = MetadataStore::Open();
  ASSERT_TRUE(meta.ok());
  ManagementService svc(meta->get(), SmallConfig(),
                        [&](const ResumeAttempt&, EpochSeconds) -> Status {
                          return Status::OK();  // async: parks in-flight
                        });
  ASSERT_TRUE(meta->get()->UpsertState(1, DbState::kPhysicallyPaused, 0).ok());
  ASSERT_TRUE(meta->get()->UpsertState(2, DbState::kPhysicallyPaused, 0).ok());

  // Db 1: already in flight (reactive login dispatched, awaiting its
  // completion).  Db 2: queued reactive, not yet drained.
  ASSERT_TRUE(svc.EnqueueReactive(1, kT0).ok());
  svc.Pump(kT0);
  ASSERT_EQ(svc.in_flight(), 1u);
  ASSERT_TRUE(svc.EnqueueReactive(2, kT0 + 1).ok());
  ASSERT_EQ(svc.queued(ResumeClass::kReactiveLogin), 1u);

  NodeHealthTracker tracker(TrackerOptions());
  const EpochSeconds death = KillNode(&tracker, 3);
  FailoverEngine engine(&svc, &tracker, [](uint32_t) {
    return std::vector<DbId>{1, 2};
  });
  ASSERT_TRUE(engine.Tick(death).ok());

  EXPECT_EQ(svc.diagnostics().failover_requeues, 0u);
  ASSERT_EQ(engine.deaths().size(), 1u);
  EXPECT_EQ(engine.deaths()[0].requeued, 0u);
  EXPECT_EQ(engine.deaths()[0].deduped, 2u);
  EXPECT_EQ(svc.queued(ResumeClass::kReactiveLogin), 1u);  // not duplicated
  EXPECT_TRUE(svc.AccountingReconciles());
}

// Satellite: the per-class accounting invariant holds through failover
// re-queues layered over an active mixed workload, including the
// promotion path (a queued proactive workflow re-placed by failover).
TEST(FailoverEngineTest, AccountingReconcilesUnderFailoverRequeues) {
  auto meta = MetadataStore::Open();
  ASSERT_TRUE(meta.ok());
  int fail_every = 0;
  ManagementService svc(meta->get(), SmallConfig(),
                        [&](const ResumeAttempt&, EpochSeconds) -> Status {
                          if (++fail_every % 3 == 0) {
                            return Status::Unavailable("transient");
                          }
                          return Status::OK();
                        });
  // A mixed backlog: due proactive work plus a couple of logins.
  for (DbId db = 1; db <= 8; ++db) {
    ASSERT_TRUE(
        meta->get()->UpsertState(db, DbState::kPhysicallyPaused, kT0 + 60)
            .ok());
  }
  ASSERT_TRUE(svc.RunOnce(kT0 + 120).ok());
  ASSERT_TRUE(svc.EnqueueReactive(2, kT0 + 130).ok());
  ASSERT_TRUE(svc.AccountingReconciles());

  NodeHealthTracker tracker(TrackerOptions());
  const EpochSeconds death = KillNode(&tracker, 1);
  FailoverEngine engine(&svc, &tracker, [](uint32_t) {
    // Overlaps queued/backing-off work AND names fresh databases.
    return std::vector<DbId>{1, 2, 3, 20, 21};
  });
  ASSERT_TRUE(engine.Tick(death).ok());
  EXPECT_TRUE(svc.AccountingReconciles());

  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(svc.RunOnce(death + 60 + i * 60).ok());
    svc.Pump(death + 90 + i * 60);
    ASSERT_TRUE(svc.AccountingReconciles());
  }
  EXPECT_EQ(svc.diagnostics().node_failovers, 1u);
  EXPECT_GT(svc.diagnostics().failover_requeues, 0u);
}

// Tentpole: the declaration and its re-queues are exactly-once across a
// control-plane crash mid-failover.  Replay restores the failover
// counters and the queued work; re-running the same failover after
// recovery dedups instead of forking second workflows.
TEST(FailoverEngineTest, ExactlyOnceAcrossCrashAndReplay) {
  const std::string dir = FreshDir("failover_replay");
  bool node_has[32] = {false};

  DurableControlPlane::Options popt;
  popt.dir = dir;
  popt.config = SmallConfig();

  auto resume = [&](const ResumeAttempt&, EpochSeconds) -> Status {
    return Status::Pending("on the wire");  // outcome never arrives
  };
  auto oracle = [&](DbId db) { return node_has[db]; };

  NodeHealthTracker tracker(TrackerOptions());
  const EpochSeconds death = KillNode(&tracker, 5);

  {
    auto plane = DurableControlPlane::Open(popt, resume, oracle, kT0);
    ASSERT_TRUE(plane.ok());
    FailoverEngine engine(&(*plane)->service(), &tracker, [](uint32_t) {
      return std::vector<DbId>{11, 12, 13};
    });
    for (DbId db : {11u, 12u, 13u}) {
      ASSERT_TRUE((*plane)->metadata()
                      .UpsertState(db, DbState::kResumed, 0)
                      .ok());
    }
    ASSERT_TRUE(engine.Tick(death).ok());
    EXPECT_EQ((*plane)->service().diagnostics().node_failovers, 1u);
    EXPECT_EQ((*plane)->service().diagnostics().failover_requeues, 3u);
    // Crash here: the plane dies with the failover journaled but the
    // requeued work still queued/unacked.
  }

  auto recovered = DurableControlPlane::Open(popt, resume, oracle, death + 60);
  ASSERT_TRUE(recovered.ok());
  ManagementService& svc = (*recovered)->service();

  // Replay restored the counters exactly once...
  EXPECT_EQ(svc.diagnostics().node_failovers, 1u);
  EXPECT_EQ(svc.diagnostics().failover_requeues, 3u);
  // ...and the re-queued workflows themselves (queued or reconciled, but
  // alive and accounted).
  EXPECT_TRUE(svc.AccountingReconciles());
  const size_t live = svc.pending_workflows() + svc.in_flight() +
                      svc.unacked();
  EXPECT_EQ(live, 3u);

  // The new incarnation's detector re-declares the same node dead (its
  // grants are still absent); re-running the failover forks nothing.
  NodeHealthTracker tracker2(TrackerOptions());
  const EpochSeconds death2 = KillNode(&tracker2, 5);
  FailoverEngine engine2(&svc, &tracker2, [](uint32_t) {
    return std::vector<DbId>{11, 12, 13};
  });
  ASSERT_TRUE(engine2.Tick(death2).ok());
  EXPECT_EQ(engine2.deaths()[0].requeued + engine2.deaths()[0].deduped, 3u);
  EXPECT_EQ(engine2.deaths()[0].deduped, 3u);
  EXPECT_EQ(svc.diagnostics().node_failovers, 2u);
  EXPECT_EQ(svc.pending_workflows() + svc.in_flight() + svc.unacked(), 3u);
  EXPECT_TRUE(svc.AccountingReconciles());
}

// A failover requeue is NOT a reactive arrival: replaying a journal full
// of failover re-queues must not trip the storm detector's login-spike
// input.
TEST(FailoverEngineTest, FailoverRequeuesDoNotFeedStormDetector) {
  const std::string dir = FreshDir("failover_no_storm");
  DurableControlPlane::Options popt;
  popt.dir = dir;
  popt.config = SmallConfig();
  popt.config.storm_login_spike_threshold = 4;  // hair trigger

  auto resume = [](const ResumeAttempt&, EpochSeconds) -> Status {
    return Status::Pending("on the wire");
  };
  auto oracle = [](DbId) { return false; };

  {
    auto plane = DurableControlPlane::Open(popt, resume, oracle, kT0);
    ASSERT_TRUE(plane.ok());
    ManagementService& svc = (*plane)->service();
    for (DbId db = 1; db <= 8; ++db) {
      ASSERT_TRUE((*plane)->metadata()
                      .UpsertState(db, DbState::kPhysicallyPaused, 0)
                      .ok());
      ASSERT_TRUE(svc.EnqueueFailover(db, kT0 + 10).ok());
    }
    ASSERT_TRUE(svc.RunOnce(kT0 + 60).ok());
    EXPECT_FALSE(svc.storm_active());
  }
  auto recovered = DurableControlPlane::Open(popt, resume, oracle, kT0 + 120);
  ASSERT_TRUE(recovered.ok());
  ASSERT_TRUE((*recovered)->service().RunOnce(kT0 + 180).ok());
  EXPECT_FALSE((*recovered)->service().storm_active());
  EXPECT_EQ((*recovered)->service().diagnostics().failover_requeues, 8u);
}

}  // namespace
}  // namespace prorp::controlplane
