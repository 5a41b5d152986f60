#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "controlplane/management_service.h"
#include "controlplane/metadata_store.h"

namespace prorp::controlplane {
namespace {

using policy::DbState;

/// Rows of the store in the given state, counted over Export().
uint64_t CountInState(const MetadataStore& store, DbState state) {
  const int32_t code = state == DbState::kResumed          ? 0
                       : state == DbState::kLogicallyPaused ? 1
                                                            : 2;
  uint64_t n = 0;
  for (const MetadataStore::ExportedEntry& e : store.Export()) {
    if (e.state_code == code) ++n;
  }
  return n;
}

TEST(MetadataStoreTest, UpsertAndCount) {
  auto store = MetadataStore::Open(MetadataStore::Backing::kSqlMirrored);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->UpsertState(1, DbState::kResumed, 0).ok());
  ASSERT_TRUE((*store)->UpsertState(2, DbState::kPhysicallyPaused, 500).ok());
  ASSERT_TRUE((*store)->UpsertState(3, DbState::kLogicallyPaused, 0).ok());
  EXPECT_EQ((*store)->size(), 3u);
  EXPECT_EQ(CountInState(**store, DbState::kPhysicallyPaused), 1u);
  // Update in place.
  ASSERT_TRUE((*store)->UpsertState(1, DbState::kPhysicallyPaused, 900).ok());
  EXPECT_EQ(CountInState(**store, DbState::kPhysicallyPaused), 2u);
  EXPECT_EQ(CountInState(**store, DbState::kLogicallyPaused), 1u);
  EXPECT_EQ((*store)->size(), 3u);
}

// The SQL mirror is opt-in: a default store answers every selection from
// its index and refuses the literal scan.
TEST(MetadataStoreTest, DefaultOpenKeepsNoSqlMirror) {
  auto store = MetadataStore::Open();
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->UpsertState(1, DbState::kPhysicallyPaused, 1000).ok());
  auto due = (*store)->SelectDueForResume(940, 60, 60);
  ASSERT_TRUE(due.ok());
  EXPECT_EQ(*due, (std::vector<telemetry::DbId>{1}));
  EXPECT_EQ((*store)->SelectDueForResumeSql(940, 60, 60).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(MetadataStoreTest, SelectDueForResumeWindow) {
  auto store = MetadataStore::Open(MetadataStore::Backing::kSqlMirrored);
  ASSERT_TRUE(store.ok());
  // Predictions at 1000, 1060, 1120; k=60, period=60.
  ASSERT_TRUE((*store)->UpsertState(1, DbState::kPhysicallyPaused, 1000).ok());
  ASSERT_TRUE((*store)->UpsertState(2, DbState::kPhysicallyPaused, 1060).ok());
  ASSERT_TRUE((*store)->UpsertState(3, DbState::kPhysicallyPaused, 1120).ok());
  // Not physically paused: never selected.
  ASSERT_TRUE((*store)->UpsertState(4, DbState::kLogicallyPaused, 1000).ok());
  // No prediction: never selected.
  ASSERT_TRUE((*store)->UpsertState(5, DbState::kPhysicallyPaused, 0).ok());

  auto due = (*store)->SelectDueForResume(/*now=*/940, /*k=*/60,
                                          /*period=*/60);
  ASSERT_TRUE(due.ok());
  EXPECT_EQ(*due, (std::vector<telemetry::DbId>{1}));  // [1000, 1060)
  auto due2 = (*store)->SelectDueForResume(1000, 60, 60);
  ASSERT_TRUE(due2.ok());
  EXPECT_EQ(*due2, (std::vector<telemetry::DbId>{2}));  // [1060, 1120)
}

TEST(MetadataStoreTest, ResumedDbLeavesResumeIndex) {
  auto store = MetadataStore::Open(MetadataStore::Backing::kSqlMirrored);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->UpsertState(1, DbState::kPhysicallyPaused, 1000).ok());
  ASSERT_TRUE((*store)->UpsertState(1, DbState::kResumed, 0).ok());
  auto due = (*store)->SelectDueForResume(940, 60, 60);
  ASSERT_TRUE(due.ok());
  EXPECT_TRUE(due->empty());
}

// A mirrored store selects through the SQL scan, an index-only store
// through the index; given the same upserts they must agree.
TEST(MetadataStoreTest, SqlScanMatchesIndexPath) {
  auto mirrored = MetadataStore::Open(MetadataStore::Backing::kSqlMirrored);
  auto index_only = MetadataStore::Open(MetadataStore::Backing::kIndexOnly);
  ASSERT_TRUE(mirrored.ok());
  ASSERT_TRUE(index_only.ok());
  auto upsert = [&](telemetry::DbId db, DbState state, EpochSeconds pred) {
    ASSERT_TRUE((*mirrored)->UpsertState(db, state, pred).ok());
    ASSERT_TRUE((*index_only)->UpsertState(db, state, pred).ok());
  };
  Rng rng(2024);
  for (telemetry::DbId db = 0; db < 500; ++db) {
    DbState state = static_cast<DbState>(rng.NextInt(0, 2));
    EpochSeconds pred = rng.NextBool(0.7) ? rng.NextInt(1000, 5000) : 0;
    upsert(db, state, pred);
  }
  // Randomly update a third of them.
  for (int i = 0; i < 150; ++i) {
    telemetry::DbId db = static_cast<telemetry::DbId>(rng.NextInt(0, 499));
    DbState state = static_cast<DbState>(rng.NextInt(0, 2));
    upsert(db, state, rng.NextInt(1000, 5000));
  }
  for (EpochSeconds now = 900; now <= 5000; now += 137) {
    auto sql = (*mirrored)->SelectDueForResume(now, 60, 300);
    auto fast = (*index_only)->SelectDueForResume(now, 60, 300);
    ASSERT_TRUE(sql.ok());
    ASSERT_TRUE(fast.ok());
    // Same rows in the same (predicted start, id) order.
    EXPECT_EQ(*fast, *sql) << "at now=" << now;
  }
}

class ManagementServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto store = MetadataStore::Open();
    ASSERT_TRUE(store.ok());
    metadata_ = std::move(*store);
  }

  ControlPlaneConfig Config() {
    ControlPlaneConfig cfg;
    cfg.prewarm_interval = Minutes(5);
    cfg.resume_operation_period = Minutes(1);
    return cfg;
  }

  std::unique_ptr<MetadataStore> metadata_;
};

TEST_F(ManagementServiceTest, ResumesDueDatabases) {
  std::vector<telemetry::DbId> resumed;
  ManagementService service(metadata_.get(), Config(),
                            [&](const ResumeAttempt& a, EpochSeconds) {
                              resumed.push_back(a.db);
                              // Mirror the state change a real controller
                              // performs.
                              return metadata_->UpsertState(
                                  a.db, DbState::kLogicallyPaused, 0);
                            });
  EpochSeconds now = 10000;
  ASSERT_TRUE(metadata_
                  ->UpsertState(1, DbState::kPhysicallyPaused,
                                now + Minutes(5) + 30)
                  .ok());
  ASSERT_TRUE(metadata_
                  ->UpsertState(2, DbState::kPhysicallyPaused,
                                now + Minutes(30))
                  .ok());
  auto n = service.RunOnce(now);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  EXPECT_EQ(resumed, (std::vector<telemetry::DbId>{1}));
  // The same database is not selected twice.
  auto n2 = service.RunOnce(now + Minutes(1));
  ASSERT_TRUE(n2.ok());
  EXPECT_EQ(*n2, 0u);
  EXPECT_EQ(service.total_resumed(), 1u);
}

// A mirrored store answers Algorithm 5's selection through the SQL scan.
TEST_F(ManagementServiceTest, SqlScanPathWorksToo) {
  auto store = MetadataStore::Open(MetadataStore::Backing::kSqlMirrored);
  ASSERT_TRUE(store.ok());
  metadata_ = std::move(*store);
  ManagementService service(metadata_.get(), Config(),
                            [&](const ResumeAttempt& a, EpochSeconds) {
                              return metadata_->UpsertState(
                                  a.db, DbState::kLogicallyPaused, 0);
                            });
  EpochSeconds now = 10000;
  ASSERT_TRUE(metadata_
                  ->UpsertState(9, DbState::kPhysicallyPaused,
                                now + Minutes(5) + 10)
                  .ok());
  auto n = service.RunOnce(now);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
}

TEST_F(ManagementServiceTest, StateChangedIsSkippedSilently) {
  ManagementService service(
      metadata_.get(), Config(), [&](const ResumeAttempt&, EpochSeconds) {
        return Status::FailedPrecondition("already resumed");
      });
  EpochSeconds now = 10000;
  ASSERT_TRUE(metadata_
                  ->UpsertState(1, DbState::kPhysicallyPaused,
                                now + Minutes(5) + 10)
                  .ok());
  auto n = service.RunOnce(now);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
  EXPECT_EQ(service.diagnostics().skipped_state_changed, 1u);
  EXPECT_EQ(service.diagnostics().incidents, 0u);
}

TEST_F(ManagementServiceTest, StuckWorkflowIsMitigatedByRetry) {
  int attempts = 0;
  ManagementService service(metadata_.get(), Config(),
                            [&](const ResumeAttempt& a, EpochSeconds) {
                              if (++attempts == 1) {
                                return Status::Unavailable("transient");
                              }
                              return metadata_->UpsertState(
                                  a.db, DbState::kLogicallyPaused, 0);
                            });
  EpochSeconds now = 10000;
  ASSERT_TRUE(metadata_
                  ->UpsertState(1, DbState::kPhysicallyPaused,
                                now + Minutes(5) + 10)
                  .ok());
  auto n = service.RunOnce(now);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);  // first attempt failed; retry is backed off
  EXPECT_EQ(service.diagnostics().stuck_workflows, 1u);
  EXPECT_EQ(service.diagnostics().backoff_retries_scheduled, 1u);
  EXPECT_EQ(service.pending_failed(), 1u);

  // Before the backoff deadline the item is held, not retried.
  auto held = service.RunOnce(now + 1);
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(*held, 0u);
  EXPECT_EQ(attempts, 1);

  // After the deadline the retry runs and succeeds: mitigated.
  DurationSeconds delay = service.BackoffDelay(1, 1);
  auto n2 = service.RunOnce(now + delay);
  ASSERT_TRUE(n2.ok());
  EXPECT_EQ(*n2, 1u);
  EXPECT_EQ(service.diagnostics().mitigated, 1u);
  EXPECT_EQ(service.diagnostics().incidents, 0u);
  EXPECT_EQ(service.pending_failed(), 0u);
}

TEST_F(ManagementServiceTest, ExhaustedRetriesRaiseIncident) {
  int attempts = 0;
  ManagementService service(
      metadata_.get(), Config(),
      [&](const ResumeAttempt&, EpochSeconds) {
        ++attempts;
        return Status::Unavailable("permanently stuck");
      },
      /*max_attempts=*/2);
  EpochSeconds now = 10000;
  ASSERT_TRUE(metadata_
                  ->UpsertState(1, DbState::kPhysicallyPaused,
                                now + Minutes(5) + 10)
                  .ok());
  ASSERT_TRUE(service.RunOnce(now).ok());
  EXPECT_EQ(service.diagnostics().stuck_workflows, 1u);
  EXPECT_EQ(service.diagnostics().incidents, 0u);
  // The second (= last) attempt fails too: incident, nothing left queued.
  EpochSeconds retry_at = now + service.BackoffDelay(1, 1);
  ASSERT_TRUE(service.RunOnce(retry_at).ok());
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(service.diagnostics().incidents, 1u);
  EXPECT_EQ(service.diagnostics().stuck_workflows, 1u);
  EXPECT_EQ(service.pending_failed(), 0u);
  // Accounting invariant: every stuck workflow lands in exactly one
  // terminal bucket.
  const DiagnosticsReport& d = service.diagnostics();
  EXPECT_EQ(d.stuck_workflows, d.mitigated + d.incidents +
                                   d.failed_then_skipped +
                                   service.pending_failed());
}

TEST_F(ManagementServiceTest, FailedThenStateChangedIsDroppedOnce) {
  // First attempt fails transiently; by the retry the customer has
  // already resumed the database (FailedPrecondition).  The workflow must
  // be dropped and accounted as failed_then_skipped, not retried forever.
  int attempts = 0;
  ManagementService service(metadata_.get(), Config(),
                            [&](const ResumeAttempt&, EpochSeconds) {
                              if (++attempts == 1) {
                                return Status::Unavailable("transient");
                              }
                              return Status::FailedPrecondition(
                                  "already resumed");
                            });
  EpochSeconds now = 10000;
  ASSERT_TRUE(metadata_
                  ->UpsertState(1, DbState::kPhysicallyPaused,
                                now + Minutes(5) + 10)
                  .ok());
  ASSERT_TRUE(service.RunOnce(now).ok());
  ASSERT_TRUE(service.RunOnce(now + service.BackoffDelay(1, 1)).ok());
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(service.diagnostics().stuck_workflows, 1u);
  EXPECT_EQ(service.diagnostics().failed_then_skipped, 1u);
  EXPECT_EQ(service.diagnostics().skipped_state_changed, 1u);
  EXPECT_EQ(service.diagnostics().mitigated, 0u);
  EXPECT_EQ(service.diagnostics().incidents, 0u);
  EXPECT_EQ(service.pending_workflows(), 0u);
}

TEST_F(ManagementServiceTest, BackoffScheduleIsExponentialCappedJittered) {
  ControlPlaneConfig cfg = Config();
  cfg.retry_backoff_cap = 480;
  ManagementService service(metadata_.get(), cfg,
                            [](const ResumeAttempt&, EpochSeconds) {
                              return Status::OK();
                            });
  for (int attempt = 1; attempt <= 12; ++attempt) {
    DurationSeconds raw = std::min<DurationSeconds>(
        480, 60 * (DurationSeconds{1} << (attempt - 1)));
    DurationSeconds d = service.BackoffDelay(7, attempt);
    EXPECT_GE(d, raw) << "attempt " << attempt;
    EXPECT_LE(d, raw + raw / 4) << "attempt " << attempt;
    // Deterministic: same (db, attempt) always hashes the same.
    EXPECT_EQ(d, service.BackoffDelay(7, attempt));
  }
  // Jitter decorrelates databases: not every db gets the same delay.
  std::set<DurationSeconds> delays;
  for (telemetry::DbId db = 0; db < 16; ++db) {
    delays.insert(service.BackoffDelay(db, 3));
  }
  EXPECT_GT(delays.size(), 1u);
}

TEST_F(ManagementServiceTest, BreakerOpensShedsThenRecovers) {
  ControlPlaneConfig cfg = Config();
  cfg.breaker_window = 4;
  cfg.breaker_open_duration = Minutes(5);
  cfg.breaker_half_open_probes = 2;
  bool healthy = false;
  uint64_t calls = 0;
  ManagementService service(
      metadata_.get(), cfg,
      [&](const ResumeAttempt& a, EpochSeconds) {
        ++calls;
        if (!healthy) return Status::Unavailable("resume path down");
        return metadata_->UpsertState(a.db, DbState::kLogicallyPaused, 0);
      },
      /*max_attempts=*/10);
  EpochSeconds now = 100000;
  for (telemetry::DbId db = 1; db <= 4; ++db) {
    ASSERT_TRUE(metadata_
                    ->UpsertState(db, DbState::kPhysicallyPaused,
                                  now + Minutes(5) + 10 + db)
                    .ok());
  }
  // A later database becomes due while the breaker is open: shed.
  ASSERT_TRUE(metadata_
                  ->UpsertState(50, DbState::kPhysicallyPaused,
                                now + Minutes(6) + 10)
                  .ok());

  // Iteration 1: four failures fill the window and trip the breaker.
  ASSERT_TRUE(service.RunOnce(now).ok());
  EXPECT_EQ(service.breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(service.diagnostics().breaker_opens, 1u);
  EXPECT_EQ(service.diagnostics().stuck_workflows, 4u);
  EXPECT_EQ(calls, 4u);

  // Iteration 2 (still open): db 50 is due but shed; retries are held.
  ASSERT_TRUE(service.RunOnce(now + Minutes(1)).ok());
  EXPECT_EQ(service.diagnostics().shed_resumes, 1u);
  EXPECT_EQ(calls, 4u);  // no attempts while open
  EXPECT_EQ(service.pending_failed(), 4u);

  // After the cool-down the breaker half-opens; the path is healthy
  // again, so the probes succeed, the breaker closes, and every held
  // retry is mitigated.
  healthy = true;
  auto n = service.RunOnce(now + Minutes(5));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 4u);
  EXPECT_EQ(service.breaker_state(), BreakerState::kClosed);
  EXPECT_EQ(service.diagnostics().mitigated, 4u);
  EXPECT_EQ(service.diagnostics().breaker_state_changes, 3u);
  const DiagnosticsReport& d = service.diagnostics();
  EXPECT_EQ(d.stuck_workflows, d.mitigated + d.incidents +
                                   d.failed_then_skipped +
                                   service.pending_failed());
}

TEST_F(ManagementServiceTest, FailedHalfOpenProbeReopensBreaker) {
  ControlPlaneConfig cfg = Config();
  cfg.breaker_window = 2;
  cfg.breaker_open_duration = Minutes(5);
  cfg.breaker_half_open_probes = 1;
  uint64_t calls = 0;
  ManagementService service(
      metadata_.get(), cfg,
      [&](const ResumeAttempt&, EpochSeconds) {
        ++calls;
        return Status::Unavailable("still down");
      },
      /*max_attempts=*/10);
  EpochSeconds now = 100000;
  for (telemetry::DbId db = 1; db <= 2; ++db) {
    ASSERT_TRUE(metadata_
                    ->UpsertState(db, DbState::kPhysicallyPaused,
                                  now + Minutes(5) + 10 + db)
                    .ok());
  }
  ASSERT_TRUE(service.RunOnce(now).ok());
  EXPECT_EQ(service.breaker_state(), BreakerState::kOpen);
  // Half-open probe fails: the breaker re-opens after a single attempt.
  ASSERT_TRUE(service.RunOnce(now + Minutes(5)).ok());
  EXPECT_EQ(service.breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(service.diagnostics().breaker_opens, 2u);
  EXPECT_EQ(calls, 3u);  // 2 initial failures + 1 probe
}

TEST_F(ManagementServiceTest, PerIterationStatsFeedFigure11) {
  ManagementService service(metadata_.get(), Config(),
                            [&](const ResumeAttempt& a, EpochSeconds) {
                              return metadata_->UpsertState(
                                  a.db, DbState::kLogicallyPaused, 0);
                            });
  EpochSeconds now = 10000;
  // 3 due in the first window, 1 in the second, 0 in the third.
  for (telemetry::DbId db = 0; db < 3; ++db) {
    ASSERT_TRUE(metadata_
                    ->UpsertState(db, DbState::kPhysicallyPaused,
                                  now + Minutes(5) + 10 + db)
                    .ok());
  }
  ASSERT_TRUE(metadata_
                  ->UpsertState(10, DbState::kPhysicallyPaused,
                                now + Minutes(6) + 10)
                  .ok());
  ASSERT_TRUE(service.RunOnce(now).ok());
  ASSERT_TRUE(service.RunOnce(now + Minutes(1)).ok());
  ASSERT_TRUE(service.RunOnce(now + Minutes(2)).ok());
  BoxPlot box = service.resumed_per_iteration().ToBoxPlot();
  EXPECT_EQ(box.count, 3u);
  EXPECT_DOUBLE_EQ(box.max, 3);
  EXPECT_DOUBLE_EQ(box.min, 0);
  EXPECT_DOUBLE_EQ(box.median, 1);
}

}  // namespace
}  // namespace prorp::controlplane
