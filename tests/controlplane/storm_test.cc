// Storm-resilience suite of the control plane (DESIGN.md section 8): the
// multi-class bounded priority queue, brownout shedding, the storm
// detector with its slow-start admission quota, deadline hedging, and the
// breaker x storm interactions.  Labelled `storm` (ctest -L storm).

#include <vector>

#include <gtest/gtest.h>

#include "common/backoff.h"
#include "common/random.h"
#include "controlplane/management_service.h"
#include "controlplane/metadata_store.h"

namespace prorp::controlplane {
namespace {

using policy::DbState;

class StormServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto store = MetadataStore::Open();
    ASSERT_TRUE(store.ok());
    metadata_ = std::move(*store);
  }

  ControlPlaneConfig BaseConfig() {
    ControlPlaneConfig cfg;
    cfg.prewarm_interval = Minutes(5);
    cfg.resume_operation_period = Minutes(1);
    return cfg;
  }

  Status Paused(DbId db, EpochSeconds predicted_start) {
    return metadata_->UpsertState(db, DbState::kPhysicallyPaused,
                                  predicted_start);
  }

  // Mirrors the state change a real controller performs on a successful
  // resume: the database leaves the physically-paused resume index.
  Status MarkResumed(DbId db) {
    return metadata_->UpsertState(db, DbState::kLogicallyPaused, 0);
  }

  std::unique_ptr<MetadataStore> metadata_;
};

constexpr EpochSeconds kT0 = 100000;

TEST_F(StormServiceTest, DrainsInStrictClassPriorityOrder) {
  std::vector<ResumeClass> order;
  ManagementService service(
      metadata_.get(), BaseConfig(),
      ManagementService::ResumeCallback(
          [&](const ResumeAttempt& a, EpochSeconds) {
            order.push_back(a.cls);
            return MarkResumed(a.db);
          }));
  ASSERT_TRUE(Paused(1, kT0 + Minutes(5) + 30).ok());  // due this window
  ASSERT_TRUE(Paused(2, 0).ok());
  ASSERT_TRUE(Paused(3, 0).ok());
  ASSERT_TRUE(service.EnqueueMaintenance(2, kT0).ok());
  ASSERT_TRUE(service.EnqueueReactive(3, kT0).ok());
  ASSERT_TRUE(service.RunOnce(kT0).ok());
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], ResumeClass::kReactiveLogin);
  EXPECT_EQ(order[1], ResumeClass::kImminentProactive);
  EXPECT_EQ(order[2], ResumeClass::kMaintenance);
  EXPECT_TRUE(service.AccountingReconciles());
}

TEST_F(StormServiceTest, BoundedQueueEvictsTheLowestClassFirst) {
  ControlPlaneConfig cfg = BaseConfig();
  // Admission control stays off, so the brownout level stays 0 and the
  // capacity bound is isolated.
  cfg.queue_capacity = 2;
  ManagementService service(
      metadata_.get(), cfg,
      ManagementService::ResumeCallback(
          [&](const ResumeAttempt& a, EpochSeconds) {
            return MarkResumed(a.db);
          }));
  ASSERT_TRUE(Paused(1, kT0 + Minutes(5) + 30).ok());
  ASSERT_TRUE(Paused(11, 0).ok());
  ASSERT_TRUE(Paused(12, 0).ok());
  ASSERT_TRUE(service.EnqueueMaintenance(11, kT0).ok());
  ASSERT_TRUE(service.EnqueueMaintenance(12, kT0).ok());
  EXPECT_EQ(service.queued(ResumeClass::kMaintenance), 2u);
  // The due pre-warm arrives at full capacity: the newest maintenance
  // item is evicted to make room for the higher class.
  ASSERT_TRUE(service.RunOnce(kT0).ok());
  const DiagnosticsReport& d = service.diagnostics();
  EXPECT_EQ(d.cls(ResumeClass::kMaintenance).shed_evicted, 1u);
  EXPECT_EQ(d.cls(ResumeClass::kMaintenance).resumed, 1u);
  EXPECT_EQ(d.cls(ResumeClass::kImminentProactive).resumed, 1u);
  EXPECT_TRUE(service.AccountingReconciles());
}

TEST_F(StormServiceTest, BrownoutLadderShedsLowClassesAndSparesReactive) {
  ControlPlaneConfig cfg = BaseConfig();
  cfg.admission_control_enabled = true;
  cfg.queue_capacity = 4;  // levels engage at occupancy 2, 3, 3.8
  ManagementService service(
      metadata_.get(), cfg,
      ManagementService::ResumeCallback(
          [&](const ResumeAttempt&, EpochSeconds) {
            return Status::Unavailable("resume path degraded");
          }),
      /*max_attempts=*/10);
  for (DbId db : {1, 2, 3, 8}) ASSERT_TRUE(Paused(db, 0).ok());
  ASSERT_TRUE(Paused(4, kT0 + Minutes(5) + 30).ok());
  ASSERT_TRUE(Paused(5, kT0 + Minutes(5) + 30).ok());

  ASSERT_TRUE(service.EnqueueMaintenance(1, kT0).ok());
  ASSERT_TRUE(service.EnqueueMaintenance(2, kT0).ok());
  EXPECT_EQ(service.brownout_level(), 1);  // occupancy 2/4
  // Level 1 sheds fresh maintenance arrivals...
  ASSERT_TRUE(service.EnqueueMaintenance(3, kT0).ok());
  EXPECT_EQ(service.diagnostics().cls(ResumeClass::kMaintenance)
                .shed_admission,
            1u);
  // ...but the due pre-warms are still admitted below level 3; every
  // attempt fails, so all four items stay queued.
  ASSERT_TRUE(service.RunOnce(kT0).ok());
  EXPECT_EQ(service.brownout_level(), 3);  // occupancy 4/4
  ASSERT_TRUE(service.EnqueueMaintenance(8, kT0).ok());
  EXPECT_EQ(service.diagnostics().max_brownout_level, 3);
  // At level 3 even a due pre-warm is shed...
  ASSERT_TRUE(Paused(9, kT0 + 60 + Minutes(5) + 30).ok());
  ASSERT_TRUE(service.RunOnce(kT0 + 60).ok());
  EXPECT_EQ(service.diagnostics().cls(ResumeClass::kImminentProactive)
                .shed_admission,
            1u);
  // ...while reactive logins are admitted at any level.
  ASSERT_TRUE(service.EnqueueReactive(8, kT0 + 60).ok());
  EXPECT_EQ(service.queued(ResumeClass::kReactiveLogin), 1u);
  EXPECT_EQ(service.diagnostics().cls(ResumeClass::kReactiveLogin).shed(),
            0u);
  EXPECT_TRUE(service.AccountingReconciles());
}

// The fixed brownout thresholds (0.50 / 0.75 / 0.95 of queue_capacity)
// at their boundaries, and the fixed per-class deadlines.
TEST_F(StormServiceTest, BrownoutLevelsAndDeadlinesAtTheirBoundaries) {
  ControlPlaneConfig cfg = BaseConfig();
  cfg.admission_control_enabled = true;
  cfg.queue_capacity = 20;
  cfg.breaker_window = 100;  // every attempt fails; keep the breaker shut
  ManagementService service(
      metadata_.get(), cfg,
      ManagementService::ResumeCallback(
          [&](const ResumeAttempt&, EpochSeconds) {
            return Status::Unavailable("resume path degraded");
          }),
      /*max_attempts=*/10);
  for (DbId db = 1; db <= 10; ++db) ASSERT_TRUE(Paused(db, 0).ok());
  for (DbId db = 11; db <= 15; ++db) {
    ASSERT_TRUE(Paused(db, kT0 + Minutes(5) + 30).ok());
  }
  for (DbId db = 16; db <= 19; ++db) {
    ASSERT_TRUE(Paused(db, kT0 + 60 + Minutes(5) + 30).ok());
  }
  for (DbId db = 1; db <= 9; ++db) {
    ASSERT_TRUE(service.EnqueueMaintenance(db, kT0).ok());
  }
  EXPECT_EQ(service.brownout_level(), 0);  // occupancy 9/20
  ASSERT_TRUE(service.EnqueueMaintenance(10, kT0).ok());
  EXPECT_EQ(service.brownout_level(), 1);  // 10/20
  // Failed attempts keep every item queued.
  ASSERT_TRUE(service.RunOnce(kT0).ok());
  EXPECT_EQ(service.queued(ResumeClass::kImminentProactive), 5u);
  EXPECT_EQ(service.brownout_level(), 2);  // 15/20
  ASSERT_TRUE(service.RunOnce(kT0 + 60).ok());
  EXPECT_EQ(service.queued(ResumeClass::kMaintenance), 10u);
  EXPECT_EQ(service.queued(ResumeClass::kImminentProactive), 9u);
  EXPECT_EQ(service.brownout_level(), 3);  // 19/20
  EXPECT_EQ(service.breaker_state(), BreakerState::kClosed);
  EXPECT_TRUE(service.AccountingReconciles());

  EXPECT_EQ(service.DeadlineFor(ResumeClass::kReactiveLogin), Minutes(2));
  EXPECT_EQ(service.DeadlineFor(ResumeClass::kImminentProactive),
            cfg.deadline_imminent);
  EXPECT_EQ(service.DeadlineFor(ResumeClass::kSpeculativeProactive),
            Hours(1));
  EXPECT_EQ(service.DeadlineFor(ResumeClass::kMaintenance), Hours(4));
}

TEST_F(StormServiceTest, ReactiveIsNeverBoundedByQueueCapacity) {
  ControlPlaneConfig cfg = BaseConfig();
  cfg.admission_control_enabled = true;
  cfg.queue_capacity = 1;
  ManagementService service(
      metadata_.get(), cfg,
      ManagementService::ResumeCallback(
          [&](const ResumeAttempt&, EpochSeconds) {
            return Status::Unavailable("down");
          }),
      /*max_attempts=*/10);
  for (DbId db : {1, 2, 3, 4}) ASSERT_TRUE(Paused(db, 0).ok());
  ASSERT_TRUE(service.EnqueueMaintenance(1, kT0).ok());
  for (DbId db : {2, 3, 4}) {
    ASSERT_TRUE(service.EnqueueReactive(db, kT0).ok());
  }
  EXPECT_EQ(service.queued(ResumeClass::kReactiveLogin), 3u);
  EXPECT_EQ(service.diagnostics().cls(ResumeClass::kReactiveLogin).shed(),
            0u);
}

TEST_F(StormServiceTest, ReactiveLoginPromotesAQueuedProactiveWorkflow) {
  bool fail_mode = true;
  ManagementService service(
      metadata_.get(), BaseConfig(),
      ManagementService::ResumeCallback(
          [&](const ResumeAttempt& a, EpochSeconds) -> Status {
            if (fail_mode) return Status::Unavailable("down");
            return MarkResumed(a.db);
          }),
      /*max_attempts=*/10);
  ASSERT_TRUE(Paused(1, kT0 + Minutes(5) + 30).ok());
  ASSERT_TRUE(service.RunOnce(kT0).ok());  // fails once, backs off
  EXPECT_EQ(service.queued(ResumeClass::kImminentProactive), 1u);
  // The customer's login outruns the queued pre-warm: the old item is
  // retired through its own class and a reactive workflow takes over.
  ASSERT_TRUE(service.EnqueueReactive(1, kT0 + 10).ok());
  EXPECT_EQ(service.queued(ResumeClass::kImminentProactive), 0u);
  EXPECT_EQ(service.queued(ResumeClass::kReactiveLogin), 1u);
  const DiagnosticsReport& d = service.diagnostics();
  EXPECT_EQ(d.cls(ResumeClass::kImminentProactive).skipped_state_changed,
            1u);
  EXPECT_EQ(d.cls(ResumeClass::kImminentProactive).failed_then_skipped, 1u);
  EXPECT_TRUE(service.AccountingReconciles());
  // A second login for the same database deduplicates.
  ASSERT_TRUE(service.EnqueueReactive(1, kT0 + 11).ok());
  EXPECT_EQ(d.cls(ResumeClass::kReactiveLogin).enqueued, 1u);
  fail_mode = false;
  EXPECT_EQ(service.Pump(kT0 + 20), 1u);
  EXPECT_EQ(d.cls(ResumeClass::kReactiveLogin).resumed, 1u);
  EXPECT_TRUE(service.AccountingReconciles());
}

TEST_F(StormServiceTest, DuePrewarmUpgradesAQueuedMaintenanceItem) {
  std::vector<ResumeClass> order;
  ManagementService service(
      metadata_.get(), BaseConfig(),
      ManagementService::ResumeCallback(
          [&](const ResumeAttempt& a, EpochSeconds) {
            order.push_back(a.cls);
            return MarkResumed(a.db);
          }));
  // The same database is queued for maintenance AND comes due: the
  // selection window only passes over it once, so the maintenance item
  // must not swallow the pre-warm.
  ASSERT_TRUE(Paused(1, kT0 + Minutes(5) + 30).ok());
  ASSERT_TRUE(service.EnqueueMaintenance(1, kT0 - 60).ok());
  ASSERT_TRUE(service.RunOnce(kT0).ok());
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], ResumeClass::kImminentProactive);
  const DiagnosticsReport& d = service.diagnostics();
  EXPECT_EQ(d.cls(ResumeClass::kMaintenance).skipped_state_changed, 1u);
  EXPECT_EQ(d.cls(ResumeClass::kMaintenance).resumed, 0u);
  EXPECT_EQ(d.cls(ResumeClass::kImminentProactive).resumed, 1u);
  EXPECT_TRUE(service.AccountingReconciles());
}

TEST_F(StormServiceTest, DeletedWhileQueuedRetiresTheWorkflow) {
  bool fail_mode = true;
  uint64_t attempts = 0;
  ManagementService service(
      metadata_.get(), BaseConfig(),
      ManagementService::ResumeCallback(
          [&](const ResumeAttempt& a, EpochSeconds) -> Status {
            ++attempts;
            if (fail_mode) return Status::Unavailable("down");
            return MarkResumed(a.db);
          }),
      /*max_attempts=*/10);
  ASSERT_TRUE(Paused(1, 0).ok());
  ASSERT_TRUE(service.EnqueueMaintenance(1, kT0).ok());
  // Fresh item whose database vanishes before the first attempt.
  ASSERT_TRUE(metadata_->Remove(1).ok());
  ASSERT_TRUE(service.RunOnce(kT0).ok());
  EXPECT_EQ(attempts, 0u);
  EXPECT_EQ(service.diagnostics().deleted_while_queued, 1u);
  EXPECT_EQ(service.diagnostics().cls(ResumeClass::kMaintenance)
                .skipped_state_changed,
            1u);
  // Item that already failed once, then its database is dropped: the open
  // accounting term must close through failed_then_skipped.
  ASSERT_TRUE(Paused(2, kT0 + 60 + Minutes(5) + 30).ok());
  ASSERT_TRUE(service.RunOnce(kT0 + 60).ok());  // one failed attempt
  ASSERT_TRUE(metadata_->Remove(2).ok());
  ASSERT_TRUE(service.RunOnce(kT0 + Minutes(10)).ok());
  EXPECT_EQ(service.diagnostics().deleted_while_queued, 2u);
  EXPECT_EQ(service.diagnostics().cls(ResumeClass::kImminentProactive)
                .failed_then_skipped,
            1u);
  EXPECT_EQ(service.pending_workflows(), 0u);
  EXPECT_TRUE(service.AccountingReconciles());
}

TEST_F(StormServiceTest, ResumedOnItsOwnWhileQueuedIsBreakerNeutral) {
  int failures_left = 1;
  ManagementService service(
      metadata_.get(), BaseConfig(),
      ManagementService::ResumeCallback(
          [&](const ResumeAttempt&, EpochSeconds) -> Status {
            if (failures_left-- > 0) return Status::Unavailable("down");
            return Status::FailedPrecondition("no longer physically paused");
          }),
      /*max_attempts=*/10);
  ASSERT_TRUE(Paused(1, kT0 + Minutes(5) + 30).ok());
  ASSERT_TRUE(service.RunOnce(kT0).ok());  // transient failure, backs off
  // The customer resumes it on their own; the retry finds the state
  // changed and retires the item without touching the breaker.
  ASSERT_TRUE(MarkResumed(1).ok());
  ASSERT_TRUE(service.RunOnce(kT0 + Minutes(10)).ok());
  const DiagnosticsReport& d = service.diagnostics();
  EXPECT_EQ(d.cls(ResumeClass::kImminentProactive).failed_then_skipped, 1u);
  EXPECT_EQ(service.breaker_state(), BreakerState::kClosed);
  EXPECT_EQ(service.pending_workflows(), 0u);
  EXPECT_TRUE(service.AccountingReconciles());
}

TEST_F(StormServiceTest, DueBurstStormSlowStartsTheBacklog) {
  ControlPlaneConfig cfg = BaseConfig();
  cfg.admission_control_enabled = true;
  cfg.queue_capacity = 64;
  cfg.storm_due_burst_threshold = 4;
  cfg.storm_login_spike_threshold = 0;
  cfg.storm_recovery_backlog = 0;
  cfg.slow_start_initial_quota = 1;
  uint64_t attempts = 0;
  ManagementService service(
      metadata_.get(), cfg,
      ManagementService::ResumeCallback(
          [&](const ResumeAttempt& a, EpochSeconds) {
            ++attempts;
            return MarkResumed(a.db);
          }));
  for (DbId db = 1; db <= 6; ++db) {
    ASSERT_TRUE(Paused(db, kT0 + Minutes(5) + 10).ok());
  }
  // Six due databases trip the burst detector; the quota ramps 1, 2, 4.
  ASSERT_TRUE(service.RunOnce(kT0).ok());
  EXPECT_TRUE(service.storm_active());
  EXPECT_EQ(service.diagnostics().storms_detected, 1u);
  EXPECT_EQ(service.current_quota(), 1u);
  EXPECT_EQ(attempts, 1u);
  ASSERT_TRUE(service.RunOnce(kT0 + 60).ok());
  EXPECT_EQ(service.current_quota(), 2u);
  EXPECT_EQ(attempts, 3u);
  ASSERT_TRUE(service.RunOnce(kT0 + 120).ok());
  EXPECT_EQ(attempts, 6u);
  // The backlog has drained: the storm ends and the quota disengages.
  EXPECT_FALSE(service.storm_active());
  EXPECT_EQ(service.current_quota(), 0u);
  const DiagnosticsReport& d = service.diagnostics();
  EXPECT_EQ(d.storms_detected, 1u);
  EXPECT_EQ(d.slow_start_ticks, 3u);
  EXPECT_GT(d.quota_deferrals, 0u);
  EXPECT_EQ(d.cls(ResumeClass::kImminentProactive).resumed, 6u);
  EXPECT_TRUE(service.AccountingReconciles());
}

TEST_F(StormServiceTest, LoginSpikeTriggersAStormButNeverGatesReactive) {
  ControlPlaneConfig cfg = BaseConfig();
  cfg.admission_control_enabled = true;
  cfg.queue_capacity = 64;
  cfg.storm_due_burst_threshold = 0;
  cfg.storm_login_spike_threshold = 3;
  cfg.storm_recovery_backlog = 0;
  cfg.slow_start_initial_quota = 1;
  ManagementService service(
      metadata_.get(), cfg,
      ManagementService::ResumeCallback(
          [&](const ResumeAttempt& a, EpochSeconds) {
            return MarkResumed(a.db);
          }));
  for (DbId db : {1, 2, 3, 10, 11}) ASSERT_TRUE(Paused(db, 0).ok());
  ASSERT_TRUE(service.EnqueueMaintenance(10, kT0).ok());
  ASSERT_TRUE(service.EnqueueMaintenance(11, kT0).ok());
  for (DbId db : {1, 2, 3}) {
    ASSERT_TRUE(service.EnqueueReactive(db, kT0).ok());
  }
  ASSERT_TRUE(service.RunOnce(kT0).ok());
  const DiagnosticsReport& d = service.diagnostics();
  EXPECT_TRUE(service.storm_active());
  EXPECT_EQ(d.storms_detected, 1u);
  // All three logins were drained ungated; maintenance got quota 1.
  EXPECT_EQ(d.cls(ResumeClass::kReactiveLogin).resumed, 3u);
  EXPECT_EQ(d.cls(ResumeClass::kMaintenance).resumed, 1u);
  ASSERT_TRUE(service.RunOnce(kT0 + 60).ok());
  EXPECT_EQ(d.cls(ResumeClass::kMaintenance).resumed, 2u);
  EXPECT_FALSE(service.storm_active());
  EXPECT_TRUE(service.AccountingReconciles());
}

TEST_F(StormServiceTest, BreakerOpensMidStormAndHalfOpenProbesRespectQuota) {
  ControlPlaneConfig cfg = BaseConfig();
  cfg.admission_control_enabled = true;
  cfg.queue_capacity = 64;
  cfg.storm_due_burst_threshold = 4;
  cfg.storm_login_spike_threshold = 0;
  cfg.storm_recovery_backlog = 0;
  cfg.slow_start_initial_quota = 1;
  cfg.slow_start_quota_cap = 2;  // quota binds below the probe budget
  cfg.breaker_window = 4;
  cfg.breaker_open_duration = 120;
  cfg.breaker_half_open_probes = 5;
  bool fail_mode = true;
  uint64_t gated_attempts = 0;
  ManagementService service(
      metadata_.get(), cfg,
      ManagementService::ResumeCallback(
          [&](const ResumeAttempt& a, EpochSeconds) -> Status {
            if (a.cls != ResumeClass::kReactiveLogin) ++gated_attempts;
            if (a.cls == ResumeClass::kReactiveLogin || !fail_mode) {
              return MarkResumed(a.db);
            }
            return Status::Unavailable("resume path down");
          }),
      /*max_attempts=*/10);
  for (DbId db = 1; db <= 6; ++db) {
    ASSERT_TRUE(Paused(db, kT0 + Minutes(5) + 10).ok());
  }
  ASSERT_TRUE(Paused(7, 0).ok());
  ASSERT_TRUE(Paused(8, 0).ok());

  ASSERT_TRUE(service.RunOnce(kT0).ok());  // storm; quota 1, 1 failure
  EXPECT_TRUE(service.storm_active());
  EXPECT_EQ(gated_attempts, 1u);
  ASSERT_TRUE(service.RunOnce(kT0 + 60).ok());  // quota 2, 2 more failures
  EXPECT_EQ(gated_attempts, 3u);
  // The 4th failure fills the window: the breaker opens mid-drain and the
  // rest of the backlog is held, with the storm still active.
  ASSERT_TRUE(service.RunOnce(kT0 + 120).ok());
  EXPECT_EQ(gated_attempts, 4u);
  EXPECT_EQ(service.breaker_state(), BreakerState::kOpen);
  EXPECT_TRUE(service.storm_active());
  // Reactive logins keep flowing through the open breaker...
  ASSERT_TRUE(service.EnqueueReactive(7, kT0 + 120).ok());
  EXPECT_EQ(service.Pump(kT0 + 120), 1u);
  // ...while fresh gated arrivals are shed at admission.
  ASSERT_TRUE(service.EnqueueMaintenance(8, kT0 + 120).ok());
  EXPECT_EQ(service.diagnostics().cls(ResumeClass::kMaintenance)
                .shed_admission,
            1u);
  ASSERT_TRUE(service.RunOnce(kT0 + 180).ok());  // still open: no attempts
  EXPECT_EQ(gated_attempts, 4u);

  // Half-open: the path has healed.  The probe budget is 5, but the
  // slow-start quota (capped at 2) binds first — exactly 2 probes go out.
  fail_mode = false;
  uint64_t before = gated_attempts;
  ASSERT_TRUE(service.RunOnce(kT0 + 240).ok());
  EXPECT_EQ(service.current_quota(), 2u);
  EXPECT_EQ(gated_attempts - before, 2u);
  EXPECT_EQ(service.breaker_state(), BreakerState::kHalfOpen);

  EpochSeconds t = kT0 + 300;
  for (; service.storm_active() && t < kT0 + 3600; t += 60) {
    ASSERT_TRUE(service.RunOnce(t).ok());
  }
  EXPECT_FALSE(service.storm_active());
  EXPECT_EQ(service.breaker_state(), BreakerState::kClosed);
  const DiagnosticsReport& d = service.diagnostics();
  EXPECT_EQ(d.storms_detected, 1u);
  EXPECT_EQ(d.incidents, 0u);
  EXPECT_EQ(d.cls(ResumeClass::kImminentProactive).resumed, 6u);
  // Three distinct workflows failed before succeeding (the fourth failed
  // attempt was a retry of the first); deferred-only ones are not stuck.
  EXPECT_EQ(d.cls(ResumeClass::kImminentProactive).mitigated, 3u);
  EXPECT_GT(d.quota_deferrals, 0u);
  EXPECT_TRUE(service.AccountingReconciles());
}

TEST_F(StormServiceTest, RecoveryBacklogTriggersOnceAndCooldownHolds) {
  ControlPlaneConfig cfg = BaseConfig();
  cfg.admission_control_enabled = true;
  cfg.queue_capacity = 64;
  cfg.storm_due_burst_threshold = 0;
  cfg.storm_login_spike_threshold = 0;
  cfg.storm_recovery_backlog = 2;
  cfg.storm_cooldown = Minutes(30);
  cfg.slow_start_initial_quota = 4;
  cfg.breaker_window = 2;
  cfg.breaker_open_duration = 60;
  cfg.breaker_half_open_probes = 1;
  bool fail_mode = true;
  ManagementService service(
      metadata_.get(), cfg,
      ManagementService::ResumeCallback(
          [&](const ResumeAttempt& a, EpochSeconds) -> Status {
            if (fail_mode) return Status::Unavailable("down");
            return MarkResumed(a.db);
          }),
      /*max_attempts=*/10);

  // Wave 1: two failures open the breaker; three workflows stay queued.
  for (DbId db = 1; db <= 3; ++db) {
    ASSERT_TRUE(Paused(db, kT0 + Minutes(5) + 10).ok());
  }
  ASSERT_TRUE(service.RunOnce(kT0).ok());
  EXPECT_EQ(service.breaker_state(), BreakerState::kOpen);
  EXPECT_FALSE(service.storm_active());
  EXPECT_EQ(service.pending_workflows(), 3u);
  // The breaker half-opens onto the held backlog: that is the post-outage
  // thundering herd, and it starts a throttled storm.
  fail_mode = false;
  ASSERT_TRUE(service.RunOnce(kT0 + 60).ok());
  EXPECT_EQ(service.diagnostics().storms_detected, 1u);
  EpochSeconds t = kT0 + 120;
  for (; service.storm_active() && t < kT0 + 1200; t += 60) {
    ASSERT_TRUE(service.RunOnce(t).ok());
  }
  EXPECT_FALSE(service.storm_active());
  EXPECT_EQ(service.breaker_state(), BreakerState::kClosed);
  EXPECT_EQ(service.diagnostics().cls(ResumeClass::kImminentProactive)
                .resumed,
            3u);

  // Wave 2, inside the cooldown: the same open -> half-open -> backlog
  // sequence must NOT re-trigger the detector.
  EpochSeconds t2 = t + 60;
  fail_mode = true;
  for (DbId db = 11; db <= 13; ++db) {
    ASSERT_TRUE(Paused(db, t2 + Minutes(5) + 10).ok());
  }
  ASSERT_TRUE(service.RunOnce(t2).ok());
  EXPECT_EQ(service.breaker_state(), BreakerState::kOpen);
  fail_mode = false;
  ASSERT_TRUE(service.RunOnce(t2 + 60).ok());
  EXPECT_EQ(service.diagnostics().storms_detected, 1u);
  EXPECT_FALSE(service.storm_active());
  for (EpochSeconds t3 = t2 + 120;
       service.pending_workflows() > 0 && t3 < t2 + 1200; t3 += 60) {
    ASSERT_TRUE(service.RunOnce(t3).ok());
  }
  EXPECT_EQ(service.pending_workflows(), 0u);
  EXPECT_EQ(service.diagnostics().storms_detected, 1u);
  EXPECT_EQ(service.diagnostics().cls(ResumeClass::kImminentProactive)
                .resumed,
            6u);
  EXPECT_TRUE(service.AccountingReconciles());
}

TEST_F(StormServiceTest, CatchUpSweepClassifiesMissedPrewarms) {
  ControlPlaneConfig cfg = BaseConfig();
  cfg.admission_control_enabled = true;
  cfg.catch_up_enabled = true;
  cfg.catch_up_lookback = Hours(2);
  cfg.queue_capacity = 64;
  cfg.storm_due_burst_threshold = 0;
  cfg.storm_login_spike_threshold = 1;
  cfg.storm_recovery_backlog = 0;
  cfg.slow_start_initial_quota = 8;
  ManagementService service(
      metadata_.get(), cfg,
      ManagementService::ResumeCallback(
          [&](const ResumeAttempt& a, EpochSeconds) {
            return MarkResumed(a.db);
          }));
  // db 1: predicted start long past -> speculative catch-up.
  ASSERT_TRUE(Paused(1, kT0 - 600).ok());
  // db 2: predicted start ahead but inside the already-passed window
  // [now, now + k) -> imminent catch-up.
  ASSERT_TRUE(Paused(2, kT0 + 100).ok());
  // db 9: no prediction; triggers the storm via a login spike.
  ASSERT_TRUE(Paused(9, 0).ok());
  ASSERT_TRUE(service.EnqueueReactive(9, kT0).ok());
  ASSERT_TRUE(service.RunOnce(kT0).ok());
  const DiagnosticsReport& d = service.diagnostics();
  EXPECT_EQ(d.storms_detected, 1u);
  EXPECT_EQ(d.catch_up_enqueued, 2u);
  EXPECT_EQ(d.cls(ResumeClass::kSpeculativeProactive).enqueued, 1u);
  EXPECT_EQ(d.cls(ResumeClass::kSpeculativeProactive).resumed, 1u);
  EXPECT_EQ(d.cls(ResumeClass::kImminentProactive).enqueued, 1u);
  EXPECT_EQ(d.cls(ResumeClass::kImminentProactive).resumed, 1u);
  EXPECT_EQ(d.cls(ResumeClass::kReactiveLogin).resumed, 1u);
  EXPECT_FALSE(service.storm_active());
  EXPECT_TRUE(service.AccountingReconciles());
}

TEST_F(StormServiceTest, DeadlineHedgeBypassesBackoffAndIsSpentOnce) {
  ControlPlaneConfig cfg = BaseConfig();
  cfg.deadline_hedging_enabled = true;
  cfg.deadline_imminent = 30;  // shorter than the first backoff (>= 60s)
  uint64_t attempts = 0;
  ManagementService service(
      metadata_.get(), cfg,
      ManagementService::ResumeCallback(
          [&](const ResumeAttempt& a, EpochSeconds) -> Status {
            ++attempts;
            if (a.hedge) {
              EXPECT_EQ(a.node_offset, 1);
              // db 1's hedge lands on a healthy node; db 2's fails too.
              if (a.db == 1) return MarkResumed(a.db);
              return Status::Unavailable("hedge node down too");
            }
            return Status::Unavailable("home node down");
          }),
      /*max_attempts=*/10);
  ASSERT_TRUE(Paused(1, kT0 + Minutes(5) + 10).ok());
  ASSERT_TRUE(Paused(2, kT0 + Minutes(5) + 10).ok());
  ASSERT_TRUE(service.RunOnce(kT0).ok());  // both fail, back off >= 60s
  EXPECT_EQ(attempts, 2u);
  // Past the 30s deadline but before the backoff expires: the hedge goes
  // out anyway (it bypasses the backoff), routed to another node.
  ASSERT_TRUE(service.RunOnce(kT0 + 40).ok());
  EXPECT_EQ(attempts, 4u);
  const DiagnosticsReport& d = service.diagnostics();
  const ClassDiagnostics& imm = d.cls(ResumeClass::kImminentProactive);
  EXPECT_EQ(imm.deadline_breaches, 2u);
  EXPECT_EQ(imm.hedged, 2u);
  EXPECT_EQ(imm.hedge_wins, 1u);
  EXPECT_EQ(imm.resumed, 1u);
  EXPECT_EQ(imm.mitigated, 1u);
  // The hedge is bounded at one per workflow: db 2 is back on its normal
  // backoff schedule and no further hedge goes out.
  ASSERT_TRUE(service.RunOnce(kT0 + 50).ok());
  EXPECT_EQ(attempts, 4u);
  EXPECT_EQ(imm.hedged, 2u);
  EXPECT_TRUE(service.AccountingReconciles());
}

TEST_F(StormServiceTest, WatchdogHedgesAnInFlightReactiveResume) {
  ControlPlaneConfig cfg = BaseConfig();
  cfg.deadline_hedging_enabled = true;
  uint64_t hedges = 0;
  ManagementService service(
      metadata_.get(), cfg,
      ManagementService::ResumeCallback(
          [&](const ResumeAttempt& a, EpochSeconds) {
            if (a.hedge) {
              ++hedges;
              EXPECT_EQ(a.cls, ResumeClass::kReactiveLogin);
              EXPECT_EQ(a.node_offset, 1);
            }
            return Status::OK();  // resources arrive asynchronously
          }));
  ASSERT_TRUE(Paused(1, 0).ok());
  ASSERT_TRUE(service.EnqueueReactive(1, kT0).ok());
  EXPECT_EQ(service.Pump(kT0), 1u);
  EXPECT_EQ(service.in_flight(), 1u);  // awaiting async completion
  service.Pump(kT0 + 60);  // inside the deadline: no hedge
  EXPECT_EQ(hedges, 0u);
  service.Pump(kT0 + 130);  // past the deadline: the watchdog hedges once
  EXPECT_EQ(hedges, 1u);
  service.Pump(kT0 + 200);  // the single hedge is spent
  EXPECT_EQ(hedges, 1u);
  const DiagnosticsReport& d = service.diagnostics();
  EXPECT_EQ(d.cls(ResumeClass::kReactiveLogin).deadline_breaches, 1u);
  EXPECT_EQ(d.cls(ResumeClass::kReactiveLogin).hedge_wins, 1u);
  service.CompleteWorkflow(1, kT0 + 210);
  EXPECT_EQ(service.in_flight(), 0u);
  EXPECT_EQ(d.in_flight_duration.count(), 1u);
  EXPECT_EQ(d.in_flight_duration.max(), 210);
  EXPECT_GE(d.queue_wait.count(), 1u);
  EXPECT_TRUE(service.AccountingReconciles());
}

TEST_F(StormServiceTest, BackoffScheduleDelegatesToTheExtractedHelper) {
  ManagementService service(
      metadata_.get(), BaseConfig(),
      ManagementService::ResumeCallback(
          [&](const ResumeAttempt&, EpochSeconds) { return Status::OK(); }));
  for (DbId db : {0, 1, 7, 12345, 999999}) {
    for (int attempt = 1; attempt <= 8; ++attempt) {
      EXPECT_EQ(service.BackoffDelay(db, attempt),
                common::BackoffDelay(60, 480, 0.25,
                                     static_cast<uint64_t>(db), attempt));
    }
  }
  // Spot-check against the frozen golden schedule (backoff_test.cc).
  EXPECT_EQ(service.BackoffDelay(0, 1), 67);
  EXPECT_EQ(service.BackoffDelay(12345, 4), 504);
}

// Randomized chaos: shedding, eviction, promotion, hedging, deletion, and
// breaker flaps all interleave, and the per-class accounting invariant
// must reconcile after every single iteration.
TEST_F(StormServiceTest, PerClassInvariantHoldsUnderChaos) {
  ControlPlaneConfig cfg = BaseConfig();
  cfg.admission_control_enabled = true;
  cfg.catch_up_enabled = true;
  cfg.deadline_hedging_enabled = true;
  cfg.queue_capacity = 8;
  cfg.storm_due_burst_threshold = 6;
  cfg.storm_login_spike_threshold = 4;
  cfg.storm_recovery_backlog = 4;
  cfg.storm_cooldown = Minutes(5);
  cfg.deadline_imminent = Minutes(5);
  cfg.breaker_window = 6;
  cfg.breaker_open_duration = Minutes(2);
  Rng rng(7);
  ManagementService service(
      metadata_.get(), cfg,
      ManagementService::ResumeCallback(
          [&](const ResumeAttempt& a, EpochSeconds) -> Status {
            int roll = rng.NextInt(0, 99);
            if (roll < 60) {
              EXPECT_TRUE(MarkResumed(a.db).ok());
              return Status::OK();
            }
            if (roll < 85) return Status::Unavailable("flaky resume path");
            return Status::FailedPrecondition("state changed");
          }));
  constexpr int kNumDbs = 40;
  for (int iter = 0; iter < 150; ++iter) {
    EpochSeconds now = kT0 + iter * 60;
    int fresh = rng.NextInt(0, 3);
    for (int i = 0; i < fresh; ++i) {
      DbId db = static_cast<DbId>(rng.NextInt(0, kNumDbs - 1));
      EpochSeconds pred = rng.NextBool(0.5)
                              ? now + Minutes(5) + rng.NextInt(0, 59)
                              : now - rng.NextInt(0, 3600);
      ASSERT_TRUE(Paused(db, pred).ok());
    }
    int logins = rng.NextInt(0, 2);
    for (int i = 0; i < logins; ++i) {
      DbId db = static_cast<DbId>(rng.NextInt(0, kNumDbs - 1));
      ASSERT_TRUE(Paused(db, 0).ok());
      ASSERT_TRUE(service.EnqueueReactive(db, now).ok());
    }
    if (rng.NextBool(0.3)) {
      DbId db = static_cast<DbId>(rng.NextInt(0, kNumDbs - 1));
      if (metadata_->Contains(db)) {
        ASSERT_TRUE(service.EnqueueMaintenance(db, now).ok());
      }
    }
    if (rng.NextBool(0.1)) {
      ASSERT_TRUE(
          metadata_->Remove(static_cast<DbId>(rng.NextInt(0, kNumDbs - 1)))
              .ok());
    }
    ASSERT_TRUE(service.RunOnce(now).ok());
    ASSERT_TRUE(service.AccountingReconciles()) << "iteration " << iter;
    if (rng.NextBool(0.5)) {
      service.Pump(now + 30);
      ASSERT_TRUE(service.AccountingReconciles()) << "iteration " << iter;
    }
    for (int db = 0; db < kNumDbs; ++db) {
      if (rng.NextBool(0.3)) {
        service.CompleteWorkflow(static_cast<DbId>(db), now + 45);
      }
    }
  }
  const DiagnosticsReport& d = service.diagnostics();
  EXPECT_EQ(d.cls(ResumeClass::kReactiveLogin).shed(), 0u);
  // The watchdog hedged under the fixed reactive deadline and the tuned
  // imminent one.  Speculative and maintenance work never outlives its
  // class deadline here, not even at 10 and 15 minutes.
  EXPECT_GT(d.cls(ResumeClass::kReactiveLogin).hedged, 0u);
  EXPECT_GT(d.cls(ResumeClass::kImminentProactive).hedged, 0u);
  EXPECT_GT(d.queue_wait.count(), 0u);
  EXPECT_TRUE(service.AccountingReconciles());
}

}  // namespace
}  // namespace prorp::controlplane
