#include "controlplane/management_service.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/backoff.h"
#include "controlplane/journal.h"
#include "faults/crash_points.h"

namespace prorp::controlplane {

ManagementService::ManagementService(MetadataStore* metadata,
                                     ControlPlaneConfig config,
                                     ResumeCallback resume,
                                     int max_attempts)
    : metadata_(metadata),
      config_(config),
      resume_(std::move(resume)),
      max_attempts_(max_attempts),
      storm_ended_at_(std::numeric_limits<EpochSeconds>::min() / 2) {}

size_t ManagementService::pending_workflows() const {
  size_t n = 0;
  for (const auto& q : queues_) n += q.size();
  return n;
}

size_t ManagementService::pending_failed() const {
  size_t n = 0;
  for (size_t i = 0; i < kNumResumeClasses; ++i) {
    n += pending_failed(static_cast<ResumeClass>(i));
  }
  return n;
}

size_t ManagementService::pending_failed(ResumeClass cls) const {
  size_t n = 0;
  for (const WorkItem& item : queues_[Idx(cls)]) {
    if (item.attempts > 0) ++n;
  }
  for (const auto& [db, u] : unacked_) {
    if (u.item.cls == cls && u.item.attempts > 0) ++n;
  }
  return n;
}

Summary ManagementService::resumed_per_iteration() const {
  Summary sample;
  for (size_t v = 0; v < resumed_per_iteration_.size(); ++v) {
    for (uint64_t i = 0; i < resumed_per_iteration_[v]; ++i) {
      sample.Add(static_cast<double>(v));
    }
  }
  return sample;
}

void ManagementService::NoteIterationResumed(uint64_t resumed,
                                             uint64_t idle) {
  if (resumed >= resumed_per_iteration_.size()) {
    resumed_per_iteration_.resize(resumed + 1);
  }
  ++resumed_per_iteration_[resumed];
  resumed_per_iteration_[0] += idle;
  diagnostics_.observed_iterations += idle;
  total_resumed_ += resumed;
}

bool ManagementService::IdleAt(EpochSeconds now) const {
  if (fenced_ || breaker_ != BreakerState::kClosed || storm_active_ ||
      reactive_arrivals_ != 0 || async_resumed_pending_ != 0 ||
      !in_flight_.empty() || !unacked_.empty()) {
    return false;
  }
  for (const auto& q : queues_) {
    if (!q.empty()) return false;
  }
  return !metadata_->AnyDueForResume(now, config_.prewarm_interval,
                                     config_.resume_operation_period);
}

bool ManagementService::AccountingReconciles() const {
  const DiagnosticsReport& d = diagnostics_;
  if (d.stuck_workflows != d.mitigated + d.incidents +
                               d.failed_then_skipped + d.failed_then_shed +
                               pending_failed()) {
    return false;
  }
  for (size_t i = 0; i < kNumResumeClasses; ++i) {
    const ClassDiagnostics& c = d.per_class[i];
    if (c.stuck != c.mitigated + c.incidents + c.failed_then_skipped +
                       c.failed_then_shed +
                       pending_failed(static_cast<ResumeClass>(i))) {
      return false;
    }
  }
  return true;
}

DurationSeconds ManagementService::BackoffDelay(DbId db, int attempt) const {
  return common::BackoffDelay(config_.retry_backoff_base,
                              config_.retry_backoff_cap,
                              config_.retry_jitter_fraction,
                              static_cast<uint64_t>(db), attempt);
}

DurationSeconds ManagementService::DeadlineFor(ResumeClass cls) const {
  switch (cls) {
    case ResumeClass::kReactiveLogin:
      return config_.deadline_reactive;
    case ResumeClass::kImminentProactive:
      return config_.deadline_imminent;
    case ResumeClass::kSpeculativeProactive:
      return config_.deadline_speculative;
    case ResumeClass::kMaintenance:
      return config_.deadline_maintenance;
  }
  return config_.deadline_imminent;
}

bool ManagementService::Journal(JournalRecord rec) {
  if (journal_ == nullptr) return true;
  if (fenced_) return false;
  rec.epoch = epoch_;
  Status s = journal_->Append(rec);
  if (!s.ok()) {
    Fence(s);
    return false;
  }
  // The record is durable but its in-memory transition has not been
  // applied yet: a crash here is exactly the window recovery closes by
  // replaying the journal.
  if (Status crash = faults::HitCrashPoint(faults::kCpPostJournalPreApply);
      !crash.ok()) {
    Fence(crash);
    return false;
  }
  return true;
}

void ManagementService::Fence(const Status& status) {
  if (fenced_) return;
  fenced_ = true;
  fence_status_ = status;
}

ManagementService::WorkItem* ManagementService::FindQueued(ResumeClass cls,
                                                           DbId db) {
  for (WorkItem& item : queues_[Idx(cls)]) {
    if (item.db == db) return &item;
  }
  return nullptr;
}

bool ManagementService::TakeQueued(ResumeClass cls, DbId db, WorkItem* out,
                                   bool from_back) {
  auto& q = queues_[Idx(cls)];
  const size_t n = q.size();
  for (size_t i = 0; i < n; ++i) {
    const size_t k = from_back ? n - 1 - i : i;
    if (q[k].db != db) continue;
    if (out != nullptr) *out = q[k];
    q.erase(q.begin() + static_cast<std::ptrdiff_t>(k));
    return true;
  }
  return false;
}

void ManagementService::Apply(const JournalRecord& rec, WorkItem* item) {
  const ResumeClass cls = static_cast<ResumeClass>(rec.cls);
  ClassDiagnostics& cd = Cls(cls);
  DiagnosticsReport& d = diagnostics_;
  switch (rec.event) {
    case JournalEvent::kReconcileRequeue:
      recovery_pending_.erase(rec.db);
      if ((rec.flags & kJfAsync) == 0) {
        // An unacked dispatch the node never saw: redispatch it now.
        if (item != nullptr) item->not_before = rec.time;
        break;
      }
      // An in-flight resume the node lost: a fresh reactive workflow
      // starts for the still-waiting customer (the original workflow's
      // accounting closed at its success).
      in_flight_.erase(rec.db);
      if (queued_dbs_.count(rec.db) != 0) break;
      [[fallthrough]];
    case JournalEvent::kAccepted: {
      WorkItem fresh;
      fresh.db = rec.db;
      fresh.cls = cls;
      fresh.not_before = rec.time;
      fresh.enqueued_at = rec.enqueued_at;
      fresh.deadline = rec.deadline;
      queued_dbs_.emplace(rec.db, cls);
      queues_[Idx(cls)].push_back(fresh);
      ++cd.enqueued;
      if ((rec.flags & kJfCatchUp) != 0) ++d.catch_up_enqueued;
      if ((rec.flags & kJfFailover) != 0) ++d.failover_requeues;
      if (rec.attempt > 0) {
        d.max_brownout_level = std::max(d.max_brownout_level, rec.attempt);
      }
      break;
    }
    case JournalEvent::kAdmissionShed:
      if ((rec.flags & kJfBreakerShed) != 0) ++d.shed_resumes;
      ++cd.shed_admission;
      if (rec.attempt > 0) {
        d.max_brownout_level = std::max(d.max_brownout_level, rec.attempt);
      }
      break;
    case JournalEvent::kEvicted:
      queued_dbs_.erase(rec.db);
      ++cd.shed_evicted;
      if ((rec.flags & kJfWasFailed) != 0) {
        ++cd.failed_then_shed;
        ++d.failed_then_shed;
      }
      break;
    case JournalEvent::kRetired:
      queued_dbs_.erase(rec.db);
      recovery_pending_.erase(rec.db);
      ++d.skipped_state_changed;
      ++cd.skipped_state_changed;
      if ((rec.flags & kJfWasFailed) != 0) {
        ++d.failed_then_skipped;
        ++cd.failed_then_skipped;
      }
      if ((rec.flags & kJfDeleted) != 0) ++d.deleted_while_queued;
      break;
    case JournalEvent::kDispatched:
      if ((rec.flags & kJfFirstWait) != 0) {
        d.queue_wait.Add(rec.time - rec.enqueued_at);
        item->wait_recorded = true;
      }
      if ((rec.flags & kJfHedge) != 0) {
        item->hedged = true;
        ++cd.deadline_breaches;
        ++cd.hedged;
      }
      break;
    case JournalEvent::kOutcomeOk:
    case JournalEvent::kReconcileComplete:
      recovery_pending_.erase(rec.db);
      queued_dbs_.erase(rec.db);
      ++cd.resumed;
      if ((rec.flags & kJfWasFailed) != 0) {
        ++d.mitigated;
        ++cd.mitigated;
      }
      if ((rec.flags & kJfHedge) != 0) ++cd.hedge_wins;
      if ((rec.flags & kJfAsync) != 0) {
        // Resources arrive asynchronously; the watchdog guards the wait.
        InFlightItem f;
        f.cls = cls;
        f.attempts = rec.attempt;
        f.started = rec.time;
        f.deadline = rec.deadline;
        f.hedged = (item != nullptr && item->hedged) ||
                   (rec.flags & kJfHedge) != 0;
        in_flight_[rec.db] = f;
      }
      break;
    case JournalEvent::kOutcomeFailed:
      recovery_pending_.erase(rec.db);
      if ((rec.flags & kJfFirstFailure) != 0) {
        ++d.stuck_workflows;
        ++cd.stuck;
      }
      if ((rec.flags & kJfIncident) != 0) {
        queued_dbs_.erase(rec.db);
        ++d.incidents;  // mitigation failed -> on-call engineer
        ++cd.incidents;
      } else if (item != nullptr) {
        item->attempts = rec.attempt;
        item->not_before = rec.not_before;
        ++d.backoff_retries_scheduled;
        d.backoff_delay_seconds_total +=
            static_cast<uint64_t>(rec.not_before - rec.time);
      }
      break;
    case JournalEvent::kHedge: {
      if ((rec.flags & kJfHedgeWin) != 0) {
        ++cd.hedge_wins;
        break;
      }
      // The hedged workflow is the caller's item (a dispatch awaiting its
      // ack), else an in-flight resume.
      bool* hedged = nullptr;
      if (item != nullptr) {
        hedged = &item->hedged;
      } else if (auto it = in_flight_.find(rec.db); it != in_flight_.end()) {
        hedged = &it->second.hedged;
      } else {
        break;
      }
      *hedged = true;
      ++cd.deadline_breaches;
      ++cd.hedged;
      break;
    }
    case JournalEvent::kCompleted:
      if (auto it = in_flight_.find(rec.db); it != in_flight_.end()) {
        d.in_flight_duration.Add(rec.time - it->second.started);
        in_flight_.erase(it);
      }
      break;
    case JournalEvent::kBreaker:
      breaker_ = static_cast<BreakerState>(rec.cls);
      ++d.breaker_state_changes;
      switch (breaker_) {
        case BreakerState::kOpen:
          ++d.breaker_opens;
          breaker_opened_at_ = rec.time;
          outcomes_.clear();
          window_failures_ = 0;
          break;
        case BreakerState::kHalfOpen:
          half_open_successes_ = 0;
          break;
        case BreakerState::kClosed:
          outcomes_.clear();
          window_failures_ = 0;
          break;
      }
      break;
    case JournalEvent::kStormStart:
      storm_active_ = true;
      ++storm_seq_;
      ramp_step_ = 0;
      ++d.storms_detected;
      break;
    case JournalEvent::kStormEnd:
      storm_active_ = false;
      storm_ended_at_ = rec.time;
      quota_this_iteration_ = 0;
      break;
    case JournalEvent::kNodeDead:
      ++d.node_failovers;
      break;
    case JournalEvent::kEpochStart:
    case JournalEvent::kMetaUpsert:
    case JournalEvent::kMetaRemove:
    case JournalEvent::kIteration:
      break;  // not service transitions, or replay-only (ApplyForRecovery)
  }
}

void ManagementService::SetBreaker(BreakerState next, EpochSeconds now) {
  if (next == breaker_) return;
  JournalRecord rec;
  rec.event = JournalEvent::kBreaker;
  rec.cls = static_cast<uint8_t>(next);
  rec.time = now;
  if (Journal(rec)) Apply(rec);
}

void ManagementService::RecordOutcome(bool success, EpochSeconds now) {
  outcomes_.push_back(!success);
  if (!success) ++window_failures_;
  while (outcomes_.size() > config_.breaker_window) {
    if (outcomes_.front()) --window_failures_;
    outcomes_.pop_front();
  }
  if (breaker_ == BreakerState::kClosed &&
      outcomes_.size() == config_.breaker_window &&
      static_cast<double>(window_failures_) >=
          config_.breaker_failure_ratio *
              static_cast<double>(config_.breaker_window)) {
    SetBreaker(BreakerState::kOpen, now);
  }
}

size_t ManagementService::NonReactiveQueued() const {
  return queues_[Idx(ResumeClass::kImminentProactive)].size() +
         queues_[Idx(ResumeClass::kSpeculativeProactive)].size() +
         queues_[Idx(ResumeClass::kMaintenance)].size();
}

int ManagementService::ComputeBrownoutLevel() const {
  if (!config_.admission_control_enabled || config_.queue_capacity == 0) {
    return 0;
  }
  double occupancy = static_cast<double>(NonReactiveQueued()) /
                     static_cast<double>(config_.queue_capacity);
  if (occupancy >= config_.brownout_l3) return 3;
  if (occupancy >= config_.brownout_l2) return 2;
  if (occupancy >= config_.brownout_l1) return 1;
  return 0;
}

bool ManagementService::ClassAdmittedAt(ResumeClass cls, int level) const {
  switch (cls) {
    case ResumeClass::kReactiveLogin:
      return true;  // never shed, at any level
    case ResumeClass::kImminentProactive:
      return level < 3;
    case ResumeClass::kSpeculativeProactive:
      return level < 2;
    case ResumeClass::kMaintenance:
      return level < 1;
  }
  return true;
}

bool ManagementService::EvictLowerClass(ResumeClass cls, EpochSeconds now) {
  for (size_t i = kNumResumeClasses; i-- > Idx(cls) + 1;) {
    auto& q = queues_[i];
    if (q.empty()) continue;
    WorkItem victim = q.back();
    JournalRecord rec;
    rec.event = JournalEvent::kEvicted;
    rec.db = victim.db;
    rec.cls = static_cast<uint8_t>(i);
    rec.attempt = victim.attempts;
    rec.time = now;
    if (victim.attempts > 0) rec.flags |= kJfWasFailed;
    if (!Journal(rec)) return false;
    q.pop_back();
    Apply(rec);
    return true;
  }
  return false;
}

void ManagementService::EnqueueItem(DbId db, ResumeClass cls, EpochSeconds now,
                                    int brownout_level, bool catch_up,
                                    bool failover) {
  JournalRecord rec;
  rec.event = JournalEvent::kAccepted;
  rec.db = db;
  rec.cls = static_cast<uint8_t>(cls);
  rec.attempt = brownout_level;
  rec.time = now;
  rec.enqueued_at = now;
  if (config_.deadline_hedging_enabled) rec.deadline = now + DeadlineFor(cls);
  if (catch_up) rec.flags |= kJfCatchUp;
  if (failover) {
    // Failover re-placements are reactive-priority but deliberately NOT
    // kJfReactive: replay must not feed them into the storm detector's
    // arrival count.
    rec.flags |= kJfFailover;
  } else if (cls == ResumeClass::kReactiveLogin) {
    rec.flags |= kJfReactive;
  }
  if (Journal(rec)) Apply(rec);
}

void ManagementService::AdmitNonReactive(DbId db, ResumeClass cls,
                                         EpochSeconds now, bool catch_up) {
  if (fenced_) return;
  // Breaker shed (pre-storm behavior): fresh non-reactive work is dropped
  // rather than queued while the breaker is open, so an outage does not
  // build an unbounded backlog of stale pre-warms.
  if (breaker_ == BreakerState::kOpen) {
    JournalRecord rec;
    rec.event = JournalEvent::kAdmissionShed;
    rec.db = db;
    rec.cls = static_cast<uint8_t>(cls);
    rec.attempt = -1;
    rec.time = now;
    rec.flags |= kJfBreakerShed;
    if (Journal(rec)) Apply(rec);
    return;
  }
  int level = ComputeBrownoutLevel();
  diagnostics_.max_brownout_level =
      std::max(diagnostics_.max_brownout_level, level);
  bool shed = !ClassAdmittedAt(cls, level);
  if (!shed && config_.queue_capacity > 0 &&
      NonReactiveQueued() >= config_.queue_capacity &&
      !EvictLowerClass(cls, now)) {
    if (fenced_) return;  // eviction fenced mid-journal
    shed = true;
  }
  if (shed) {
    JournalRecord rec;
    rec.event = JournalEvent::kAdmissionShed;
    rec.db = db;
    rec.cls = static_cast<uint8_t>(cls);
    rec.attempt = level;
    rec.time = now;
    if (Journal(rec)) Apply(rec);
    return;
  }
  EnqueueItem(db, cls, now, level, catch_up);
}

void ManagementService::RetireSkipped(const WorkItem& item, bool deleted) {
  JournalRecord rec;
  rec.event = JournalEvent::kRetired;
  rec.db = item.db;
  rec.cls = static_cast<uint8_t>(item.cls);
  rec.attempt = item.attempts;
  if (item.attempts > 0) rec.flags |= kJfWasFailed;
  if (deleted) rec.flags |= kJfDeleted;
  if (Journal(rec)) Apply(rec);
}

void ManagementService::PromoteToReactive(DbId db, EpochSeconds now) {
  auto it = queued_dbs_.find(db);
  if (it == queued_dbs_.end() || it->second == ResumeClass::kReactiveLogin) {
    return;
  }
  // The old item is retired through the skipped_state_changed path of its
  // own class (keeping the per-class invariant closed) and a fresh
  // reactive workflow starts.
  RetireQueued(it->second, db);
  if (fenced_) return;
  EnqueueItem(db, ResumeClass::kReactiveLogin, now);
}

void ManagementService::RetireQueued(ResumeClass cls, DbId db) {
  auto& q = queues_[Idx(cls)];
  for (auto qi = q.begin(); qi != q.end(); ++qi) {
    if (qi->db != db) continue;
    RetireSkipped(*qi);
    if (!fenced_) q.erase(qi);
    return;
  }
}

Status ManagementService::EnqueueReactive(DbId db, EpochSeconds now) {
  return AdmitReactive(db, now, /*failover=*/false);
}

Status ManagementService::EnqueueFailover(DbId db, EpochSeconds now) {
  return AdmitReactive(db, now, /*failover=*/true);
}

Status ManagementService::AdmitReactive(DbId db, EpochSeconds now,
                                        bool failover) {
  if (fenced_) return fence_status_;
  // Plane-initiated failover work must not feed the storm detector.
  if (!failover) ++reactive_arrivals_;
  // Dedup against every live form the workflow could already have: an
  // in-flight resume is already resuming, and a queued pre-warm is
  // promoted rather than duplicated.
  if (in_flight_.count(db) != 0) return Status::OK();
  if (auto ua = unacked_.find(db); ua != unacked_.end()) {
    // A dispatch for this database is on the wire with an unknown
    // outcome.  The request is absorbed — NOT journaled as kAccepted:
    // replay-wise the database is still queued (kDispatched without an
    // outcome), so a fresh accept would corrupt replay.  The interest
    // flag makes the resolution paths promote the workflow to reactive.
    ua->second.reactive_interest = true;
    return Status::OK();
  }
  if (queued_dbs_.count(db) != 0) {
    PromoteToReactive(db, now);
  } else {
    EnqueueItem(db, ResumeClass::kReactiveLogin, now, /*brownout_level=*/-1,
                /*catch_up=*/false, failover);
  }
  return fenced_ ? fence_status_ : Status::OK();
}

Status ManagementService::NoteNodeDead(uint32_t node, EpochSeconds now) {
  if (fenced_) return fence_status_;
  JournalRecord rec;
  rec.event = JournalEvent::kNodeDead;
  rec.db = node;  // the db field carries the node id for this event
  rec.time = now;
  if (!Journal(rec)) return fence_status_;
  Apply(rec);
  return Status::OK();
}

Status ManagementService::EnqueueMaintenance(DbId db, EpochSeconds now) {
  if (fenced_) return fence_status_;
  if (queued_dbs_.count(db) != 0 || in_flight_.count(db) != 0 ||
      unacked_.count(db) != 0) {
    return Status::OK();  // a same-or-higher-class workflow already exists
  }
  AdmitNonReactive(db, ResumeClass::kMaintenance, now);
  if (fenced_) return fence_status_;
  return Status::OK();
}

void ManagementService::CompleteWorkflow(DbId db, EpochSeconds now) {
  if (fenced_) return;
  auto it = in_flight_.find(db);
  if (it == in_flight_.end()) return;
  JournalRecord rec;
  rec.event = JournalEvent::kCompleted;
  rec.db = db;
  rec.cls = static_cast<uint8_t>(it->second.cls);
  rec.time = now;
  if (Journal(rec)) Apply(rec);
}

void ManagementService::NoteLateAck(DbId db) {
  (void)db;
  ++diagnostics_.late_acks;
}

void ManagementService::NoteStaleEpochAck(DbId db) {
  (void)db;
  ++diagnostics_.stale_epoch_acks;
}

bool ManagementService::ApplyVerdict(UnackedDispatch& u, bool is_hedge,
                                     const Status& outcome,
                                     EpochSeconds now) {
  WorkItem& item = u.item;
  if (outcome.code() == StatusCode::kFailedPrecondition) {
    // The database is no longer physically paused (it resumed on its own
    // or was already handled): nothing to do.  Breaker-neutral.
    RetireSkipped(item);
    return true;
  }
  JournalRecord rec;
  rec.db = item.db;
  rec.cls = static_cast<uint8_t>(item.cls);
  rec.time = now;
  if (outcome.ok()) {
    const bool went_async = item.cls == ResumeClass::kReactiveLogin &&
                            config_.deadline_hedging_enabled;
    rec.event = JournalEvent::kOutcomeOk;
    rec.attempt = item.attempts + 1;
    rec.deadline = item.deadline;
    if (went_async && item.deadline <= 0) {
      rec.deadline = now + DeadlineFor(item.cls);
    }
    if (is_hedge || u.hedge_dispatch) rec.flags |= kJfHedge;
    if (item.attempts > 0) rec.flags |= kJfWasFailed;
    if (went_async) rec.flags |= kJfAsync;
  } else {
    // Transient workflow failure: the diagnostics runner mitigates by
    // retrying after a capped exponential backoff, or raises an incident.
    rec.event = JournalEvent::kOutcomeFailed;
    rec.attempt = item.attempts + 1;
    if (rec.attempt >= max_attempts_) {
      rec.flags |= kJfIncident;
    } else {
      rec.not_before = now + BackoffDelay(item.db, rec.attempt);
    }
    if (rec.attempt == 1) rec.flags |= kJfFirstFailure;
  }
  if (!Journal(rec)) return false;
  Apply(rec, &item);
  if (u.gated) {
    // Breaker bookkeeping uses the dispatch-time posture: an ack landing
    // after the breaker moved on must not count as a probe it never was.
    if (!u.half_open_probe) {
      RecordOutcome(outcome.ok(), now);
    } else if (!outcome.ok()) {
      SetBreaker(BreakerState::kOpen, now);  // failed probe: re-open
    } else if (++half_open_successes_ >= config_.breaker_half_open_probes) {
      SetBreaker(BreakerState::kClosed, now);
    }
  }
  // A reactive interest noted while unacked is satisfied by a resume; a
  // failure serves it through the retry or a fresh reactive workflow.
  if (outcome.ok()) return true;
  if ((rec.flags & kJfIncident) == 0) {
    // Replay-consistent: until this kOutcomeFailed the journal showed the
    // item queued (its kDispatched had no outcome), so requeueing it
    // converges with replay.
    Requeue(item, u.reactive_interest, now);
  } else if (u.reactive_interest) {
    // The db is no longer queued at this point, so a fresh accept is
    // valid.
    EnqueueItem(item.db, ResumeClass::kReactiveLogin, now);
  }
  return true;
}

void ManagementService::Requeue(const WorkItem& item, bool reactive_interest,
                                EpochSeconds now) {
  queues_[Idx(item.cls)].push_back(item);
  queued_dbs_.emplace(item.db, item.cls);
  if (reactive_interest && item.cls != ResumeClass::kReactiveLogin) {
    PromoteToReactive(item.db, now);
  }
}

void ManagementService::SettleUnacked(
    std::unordered_map<DbId, UnackedDispatch>::iterator it, bool is_hedge,
    const Status& outcome, EpochSeconds now) {
  if (!outcome.ok() && outcome.code() != StatusCode::kFailedPrecondition) {
    // A transient nack from one side of a hedged pair: spend this rid and
    // keep waiting while the other dispatch is still on the wire.
    (is_hedge ? it->second.hedge_request_id : it->second.request_id) = 0;
    if (it->second.request_id != 0 || it->second.hedge_request_id != 0) {
      return;
    }
  }
  UnackedDispatch u = std::move(it->second);
  unacked_.erase(it);
  if (ApplyVerdict(u, is_hedge, outcome, now) && outcome.ok() &&
      (u.item.cls == ResumeClass::kImminentProactive ||
       u.item.cls == ResumeClass::kSpeculativeProactive)) {
    // Folded into the next RunOnce's resumed count (and its journaled
    // kIteration aggregate), keeping the Figure 11 metric and replay
    // exact.
    ++async_resumed_pending_;
  }
}

void ManagementService::OnDispatchAck(DbId db, uint64_t request_id,
                                      const Status& outcome,
                                      EpochSeconds now) {
  if (fenced_) return;
  auto it = unacked_.find(db);
  if (it == unacked_.end() || (request_id != it->second.request_id &&
                               request_id != it->second.hedge_request_id)) {
    // The workflow already resolved (hedge win, timeout requeue, previous
    // ack): telemetry only.
    NoteLateAck(db);
    return;
  }
  SettleUnacked(it, request_id == it->second.hedge_request_id, outcome, now);
}

void ManagementService::OnDispatchTimeout(DbId db, uint64_t request_id,
                                          EpochSeconds now) {
  if (fenced_) return;
  auto it = unacked_.find(db);
  if (it == unacked_.end() || (request_id != it->second.request_id &&
                               request_id != it->second.hedge_request_id)) {
    return;  // already resolved; nothing left to time out
  }
  if (request_id == it->second.hedge_request_id) {
    it->second.hedge_request_id = 0;
  } else {
    it->second.request_id = 0;
  }
  if (it->second.request_id != 0 || it->second.hedge_request_id != 0) {
    return;  // the other dispatch of the hedged pair is still live
  }
  ++diagnostics_.dispatch_timeouts;
  // The outcome is UNKNOWN — the node may or may not have executed — so
  // this is NOT a failure: attempts stay unchanged and the item requeues
  // for immediate redispatch (node-side dedup and the executor's
  // state check make that safe).  Deliberately journal-silent: replay's
  // kDispatched already leaves the item queued, which is this exact
  // state.
  UnackedDispatch resolved = std::move(it->second);
  unacked_.erase(it);
  resolved.item.not_before = now;
  Requeue(resolved.item, resolved.reactive_interest, now);
}

std::optional<Status> ManagementService::SendHedge(
    DbId db, ResumeClass cls, int attempt_no, EpochSeconds enqueued_at,
    WorkItem* item, uint64_t* request_id, EpochSeconds now) {
  // Journal the hedge before dispatching it: hedging is bounded at one
  // per workflow, and that bound must hold across a crash — a recovered
  // control plane must never re-hedge a workflow whose hedge already went
  // out.
  JournalRecord rec;
  rec.event = JournalEvent::kHedge;
  rec.db = db;
  rec.cls = static_cast<uint8_t>(cls);
  rec.attempt = attempt_no;
  rec.time = now;
  if (!Journal(rec)) return std::nullopt;
  Apply(rec, item);
  ResumeAttempt attempt;
  attempt.db = db;
  attempt.cls = cls;
  attempt.attempt = attempt_no;
  attempt.hedge = true;
  attempt.node_offset = 1;
  attempt.enqueued_at = enqueued_at;
  attempt.request_id = NextRequestId();
  if (request_id != nullptr) *request_id = attempt.request_id;
  Status s = resume_(attempt, now);
  if (s.code() == StatusCode::kAborted) {
    // Simulated process death inside the resume path, not a workflow
    // failure.
    Fence(s);
    return std::nullopt;
  }
  return s;
}

void ManagementService::Watchdog(EpochSeconds now) {
  if (!config_.deadline_hedging_enabled || fenced_) return;
  for (auto& [db, f] : in_flight_) {
    if (fenced_) break;
    if (f.hedged || now <= f.deadline) continue;
    // Best-effort rescue: the original dispatch is still in flight, so a
    // hedge failure changes nothing — the completion (or an incident at a
    // higher layer) still resolves the workflow.  A pending hedge's ack
    // decides later.
    std::optional<Status> s =
        SendHedge(db, f.cls, f.attempts, f.started, nullptr, nullptr, now);
    if (!s.has_value()) break;
    if (s->ok()) {
      JournalRecord win;
      win.event = JournalEvent::kHedge;
      win.db = db;
      win.cls = static_cast<uint8_t>(f.cls);
      win.time = now;
      win.flags |= kJfHedgeWin;
      if (!Journal(win)) break;
      Apply(win);
    }
  }
  if (fenced_) return;

  // Hedge unacked dispatches past their deadline: the primary request may
  // be delayed or lost in the transport, so one hedge to the secondary
  // node races it.  Node-side dedup and the single-resolution rule
  // (whichever ack arrives first wins, the loser is a late ack) keep the
  // side effect exactly-once.
  std::vector<DbId> overdue;
  for (const auto& [db, u] : unacked_) {
    if (u.hedge_request_id == 0 && !u.item.hedged && u.item.deadline > 0 &&
        now > u.item.deadline) {
      overdue.push_back(db);
    }
  }
  std::sort(overdue.begin(), overdue.end());
  for (DbId db : overdue) {
    if (fenced_) break;
    auto it = unacked_.find(db);
    if (it == unacked_.end()) continue;  // resolved by an inline hedge ack
    WorkItem& item = it->second.item;
    std::optional<Status> s =
        SendHedge(db, item.cls, item.attempts + 1, item.enqueued_at, &item,
                  &it->second.hedge_request_id, now);
    if (!s.has_value()) break;
    if (s->code() == StatusCode::kPending) continue;  // races the original
    // Inline hedge verdict (fault-free path to the secondary node),
    // settled like an ack of the hedge: a transient nack spends the hedge
    // rid (it is already settled on the dispatcher side), so the
    // original's eventual timeout does not wait on it forever.
    it = unacked_.find(db);
    if (it != unacked_.end()) SettleUnacked(it, /*is_hedge=*/true, *s, now);
  }
}

void ManagementService::MaybeStartStorm(EpochSeconds now) {
  if (storm_active_ || fenced_) return;
  // Cooldown: draining the recovery backlog (and the breaker closing
  // afterwards) must not re-trigger the detector.
  if (now < storm_ended_at_ + config_.storm_cooldown) return;
  JournalRecord rec;
  rec.event = JournalEvent::kStormStart;
  rec.time = now;
  if (!Journal(rec)) return;
  Apply(rec);
  if (config_.catch_up_enabled) CatchUpSweep(now);
}

void ManagementService::CatchUpSweep(EpochSeconds now) {
  auto missed = metadata_->SelectMissedResume(now, config_.catch_up_lookback,
                                              config_.prewarm_interval);
  if (!missed.ok()) return;  // sweep is best-effort
  for (const MissedResume& m : *missed) {
    if (fenced_) break;
    if (queued_dbs_.count(m.db) != 0 || in_flight_.count(m.db) != 0 ||
        unacked_.count(m.db) != 0) {
      continue;
    }
    // A start still ahead is imminent work; one already passed is a
    // speculative catch-up (the customer may long since have moved on —
    // these are the attempts that land in skipped_state_changed).
    ResumeClass cls = m.predicted_start < now
                          ? ResumeClass::kSpeculativeProactive
                          : ResumeClass::kImminentProactive;
    AdmitNonReactive(m.db, cls, now, /*catch_up=*/true);
  }
}

uint64_t ManagementService::DrainClass(ResumeClass cls, EpochSeconds now,
                                       uint64_t* quota) {
  auto& q = queues_[Idx(cls)];
  const bool gated = cls != ResumeClass::kReactiveLogin;
  uint64_t resumed = 0;
  // Each queued item is examined at most once per drain; retries land
  // behind the fixed budget.
  size_t budget = q.size();
  for (size_t i = 0; i < budget; ++i) {
    if (fenced_) break;
    WorkItem item = q.front();
    q.pop_front();
    if (!metadata_->Contains(item.db)) {
      // Deleted while queued: the workflow has no target any more.
      RetireSkipped(item, /*deleted=*/true);
      continue;
    }
    bool hedge_now = config_.deadline_hedging_enabled && !item.hedged &&
                     item.deadline > 0 && now > item.deadline;
    if (item.not_before > now && !hedge_now) {
      q.push_back(item);  // still backing off
      continue;
    }
    // The single hedge bypasses backoff, breaker, and quota: it is the
    // deadline-rescue path, bounded at one per workflow.
    if (gated && !hedge_now) {
      if (breaker_ == BreakerState::kOpen) {
        q.push_back(item);  // held until the breaker half-opens
        continue;
      }
      if (breaker_ == BreakerState::kHalfOpen &&
          half_open_probes_issued_ >= config_.breaker_half_open_probes) {
        q.push_back(item);  // probe budget exhausted this iteration
        continue;
      }
      if (quota != nullptr && *quota == 0) {
        ++diagnostics_.quota_deferrals;
        q.push_back(item);  // slow-start quota exhausted this iteration
        continue;
      }
      if (quota != nullptr) --*quota;
      if (breaker_ == BreakerState::kHalfOpen) ++half_open_probes_issued_;
    }
    // Journal the dispatch before the callback runs: a crash between the
    // two leaves a dispatched-but-unacked workflow, the one case recovery
    // must reconcile against the node instead of deciding alone.
    JournalRecord rec;
    rec.event = JournalEvent::kDispatched;
    rec.db = item.db;
    rec.cls = static_cast<uint8_t>(item.cls);
    rec.attempt = item.attempts + 1;
    rec.time = now;
    rec.enqueued_at = item.enqueued_at;
    rec.deadline = item.deadline;
    if (hedge_now) rec.flags |= kJfHedge;
    if (!item.wait_recorded) rec.flags |= kJfFirstWait;
    if (!Journal(rec)) {
      q.push_front(item);
      break;
    }
    Apply(rec, &item);
    ResumeAttempt attempt;
    attempt.db = item.db;
    attempt.cls = item.cls;
    attempt.attempt = item.attempts + 1;
    attempt.hedge = hedge_now;
    attempt.node_offset = hedge_now ? 1 : 0;
    attempt.enqueued_at = item.enqueued_at;
    attempt.request_id = NextRequestId();
    Status s = resume_(attempt, now);
    if (s.code() == StatusCode::kAborted) {
      // An injected crash fired inside the resume path (e.g. a journaled
      // metadata mutation died): simulated process death, not a workflow
      // failure.
      Fence(s);
      q.push_front(item);
      break;
    }
    if (journal_ != nullptr) {
      // The callback's side effect may exist on the node, but the outcome
      // has not been journaled: dying here is the double-resume hazard.
      if (Status crash = faults::HitCrashPoint(faults::kCpDispatchPreAck);
          !crash.ok()) {
        Fence(crash);
        q.push_front(item);
        break;
      }
    }
    UnackedDispatch u;
    u.item = item;
    u.request_id = attempt.request_id;
    u.gated = gated && !hedge_now;
    u.half_open_probe = u.gated && breaker_ == BreakerState::kHalfOpen;
    u.hedge_dispatch = hedge_now;
    if (s.code() == StatusCode::kPending) {
      // The dispatch is on the wire with its outcome deferred; it parks
      // in the unacked set until OnDispatchAck / OnDispatchTimeout.
      // Journal-wise nothing more is needed: the kDispatched above
      // without an outcome IS the unacked state, and a crash here leaves
      // exactly what FinishRecovery reconciles against the node.
      unacked_.emplace(item.db, std::move(u));
      queued_dbs_.erase(item.db);
      ++diagnostics_.unacked_dispatches;
      continue;
    }
    if (!ApplyVerdict(u, /*is_hedge=*/false, s, now)) {
      q.push_front(item);
      break;
    }
    if (s.ok()) ++resumed;
  }
  return resumed;
}

uint64_t ManagementService::Pump(EpochSeconds now) {
  if (fenced_) return 0;
  Watchdog(now);
  return DrainClass(ResumeClass::kReactiveLogin, now, nullptr);
}

Result<uint64_t> ManagementService::RunOnce(EpochSeconds now,
                                            bool use_sql_scan,
                                            uint64_t idle_before) {
  if (fenced_) return fence_status_;
  // Breaker cool-down is virtual-clock based, like everything else here.
  if (breaker_ == BreakerState::kOpen &&
      now >= breaker_opened_at_ + config_.breaker_open_duration) {
    SetBreaker(BreakerState::kHalfOpen, now);
    if (fenced_) return fence_status_;
    // Recovery signal: a healed resume path facing a held backlog is the
    // classic post-outage thundering herd.
    if (config_.StormControlEnabled() && config_.storm_recovery_backlog > 0 &&
        NonReactiveQueued() >= config_.storm_recovery_backlog) {
      MaybeStartStorm(now);
    }
    // Recovery sweep: pre-warms that came due while the breaker was open
    // were shed at admission, so an ongoing storm re-sweeps them now that
    // the path is probing again (duplicate-safe; outside a storm the
    // normal selection window takes over).
    if (storm_active_ && config_.catch_up_enabled) CatchUpSweep(now);
    if (fenced_) return fence_status_;
  }
  half_open_probes_issued_ = 0;

  // Step 1: Algorithm 5's selection.
  std::vector<DbId> due;
  if (use_sql_scan) {
    PRORP_ASSIGN_OR_RETURN(
        due, metadata_->SelectDueForResumeSql(
                 now, config_.prewarm_interval,
                 config_.resume_operation_period));
  } else {
    PRORP_ASSIGN_OR_RETURN(
        due, metadata_->SelectDueForResume(
                 now, config_.prewarm_interval,
                 config_.resume_operation_period));
  }
  // Detector signals observed since the last iteration.
  uint64_t reactive_spike = reactive_arrivals_;
  reactive_arrivals_ = 0;
  if (config_.StormControlEnabled()) {
    if (config_.storm_due_burst_threshold > 0 &&
        due.size() >= config_.storm_due_burst_threshold) {
      MaybeStartStorm(now);
    }
    if (config_.storm_login_spike_threshold > 0 &&
        reactive_spike >= config_.storm_login_spike_threshold) {
      MaybeStartStorm(now);
    }
  }
  if (fenced_) return fence_status_;
  // Step 2: enqueue one resume workflow per due database.  Selection only
  // returns predicted starts at or beyond now + k, so fresh selection
  // work is always imminent-class; speculative items enter through the
  // catch-up sweep.
  for (DbId db : due) {
    if (fenced_) return fence_status_;
    if (in_flight_.count(db) != 0) continue;  // already being resumed
    if (unacked_.count(db) != 0) continue;    // dispatch already on the wire
    auto it = queued_dbs_.find(db);
    if (it != queued_dbs_.end()) {
      if (Idx(it->second) <= Idx(ResumeClass::kImminentProactive)) {
        continue;  // already queued at the same or a higher class
      }
      // Class upgrade: a maintenance touch or speculative catch-up queued
      // for this database must not swallow its due pre-warm — the
      // selection window only passes over each database once, so a
      // skipped enqueue here would silently lose the pre-warm.  The old
      // item retires through its own class (keeping the per-class
      // invariant closed) and a fresh imminent workflow is admitted.
      RetireQueued(it->second, db);
      if (fenced_) return fence_status_;
    }
    AdmitNonReactive(db, ResumeClass::kImminentProactive, now);
  }
  if (fenced_) return fence_status_;
  ++diagnostics_.observed_iterations;
  diagnostics_.max_queue_depth =
      std::max(diagnostics_.max_queue_depth, pending_workflows());

  // Slow-start ramp: while a storm is active and admission control is
  // on, non-reactive drains share an exponentially growing quota (the
  // same capped-exponential + jitter schedule as the retry backoff,
  // growing instead of delaying).
  uint64_t quota_value = 0;
  uint64_t* quota = nullptr;
  if (storm_active_ && config_.admission_control_enabled) {
    quota_value = static_cast<uint64_t>(common::WithJitter(
        common::CappedExponential(
            static_cast<int64_t>(config_.slow_start_initial_quota),
            static_cast<int64_t>(config_.slow_start_quota_cap), ramp_step_),
        config_.slow_start_jitter_fraction, storm_seq_,
        static_cast<uint64_t>(ramp_step_)));
    ++ramp_step_;
    ++diagnostics_.slow_start_ticks;
    quota = &quota_value;
  }
  quota_this_iteration_ = quota != nullptr ? quota_value : 0;

  // Step 3: deadline watchdog, then drain in strict class order —
  // reactive logins first and ungated, then the gated classes.
  Watchdog(now);
  DrainClass(ResumeClass::kReactiveLogin, now, nullptr);
  // Proactive successes acked asynchronously since the last iteration
  // fold into this one's count, so the journaled aggregate stays exact.
  uint64_t resumed = async_resumed_pending_;
  async_resumed_pending_ = 0;
  resumed += DrainClass(ResumeClass::kImminentProactive, now, quota) +
             DrainClass(ResumeClass::kSpeculativeProactive, now, quota);
  DrainClass(ResumeClass::kMaintenance, now, quota);
  if (fenced_) return fence_status_;

  // A storm ends when the non-reactive backlog has fully drained; the
  // cooldown then keeps the tail of the recovery from re-triggering it.
  if (storm_active_ && NonReactiveQueued() == 0) {
    JournalRecord rec;
    rec.event = JournalEvent::kStormEnd;
    rec.time = now;
    if (!Journal(rec)) return fence_status_;
    Apply(rec);
  }

  // Iteration aggregates are journaled as absolutes so replay is
  // idempotent; a fence mid-iteration loses only this iteration's
  // aggregate sample, never an accounted workflow.
  {
    JournalRecord rec;
    rec.event = JournalEvent::kIteration;
    rec.time = now;
    rec.stats[0] = resumed;
    rec.stats[1] = static_cast<uint64_t>(diagnostics_.max_queue_depth);
    rec.stats[2] = diagnostics_.quota_deferrals;
    rec.stats[3] = quota_this_iteration_;
    rec.idle_before = idle_before;
    if (quota != nullptr) rec.flags |= kJfSlowStart;
    if (!Journal(rec)) return fence_status_;
  }
  NoteIterationResumed(resumed, idle_before);
  return resumed;
}

Status ManagementService::ApplyForRecovery(const JournalRecord& rec) {
  // Apply indexes per-class state with the class byte, which kBreaker
  // spends on a breaker code (kMetaUpsert on a DbState code, checked by
  // the metadata store): a byte out of range is corrupt, not an index.
  const size_t max_cls = rec.event == JournalEvent::kBreaker
                             ? static_cast<size_t>(BreakerState::kHalfOpen)
                             : kNumResumeClasses - 1;
  if (rec.event != JournalEvent::kMetaUpsert && rec.cls > max_cls) {
    return Status::Corruption("journal replay: class byte out of range");
  }
  const ResumeClass cls = static_cast<ResumeClass>(rec.cls);
  switch (rec.event) {
    case JournalEvent::kEpochStart:
    case JournalEvent::kMetaUpsert:
    case JournalEvent::kMetaRemove:
      // Epoch tracking and metadata records are applied by the owner
      // (DurableControlPlane), not the service.
      return Status::OK();
    case JournalEvent::kAccepted:
      if (queued_dbs_.count(rec.db) != 0) {
        return Status::Corruption(
            "journal replay: kAccepted for an already-queued database");
      }
      if ((rec.flags & kJfReactive) != 0) ++reactive_arrivals_;
      Apply(rec);
      return Status::OK();
    case JournalEvent::kEvicted:
    case JournalEvent::kRetired:
      TakeQueued(cls, rec.db, nullptr,
                 /*from_back=*/rec.event == JournalEvent::kEvicted);
      Apply(rec);
      return Status::OK();
    case JournalEvent::kDispatched: {
      WorkItem* item = FindQueued(cls, rec.db);
      if (item == nullptr) {
        return Status::Corruption(
            "journal replay: kDispatched for a database not queued");
      }
      Apply(rec, item);
      recovery_pending_[rec.db] = cls;
      return Status::OK();
    }
    case JournalEvent::kOutcomeOk:
    case JournalEvent::kReconcileComplete: {
      WorkItem item;
      const bool queued = TakeQueued(cls, rec.db, &item);
      Apply(rec, queued ? &item : nullptr);
      return Status::OK();
    }
    case JournalEvent::kOutcomeFailed:
      // Replay keeps a retried item in place; the live path moved it to
      // the back of its queue (DESIGN.md section 10, approximation (a)).
      if ((rec.flags & kJfIncident) != 0) {
        TakeQueued(cls, rec.db, nullptr);
        Apply(rec);
      } else {
        Apply(rec, FindQueued(cls, rec.db));
      }
      return Status::OK();
    case JournalEvent::kHedge:
      // A watchdog hedge of an in-flight resume, or of an unacked dispatch
      // (replay-wise still queued: kDispatched without an outcome).
      Apply(rec, in_flight_.count(rec.db) != 0 ? nullptr
                                               : FindQueued(cls, rec.db));
      return Status::OK();
    case JournalEvent::kReconcileRequeue:
      Apply(rec, (rec.flags & kJfAsync) != 0 ? nullptr
                                               : FindQueued(cls, rec.db));
      return Status::OK();
    case JournalEvent::kAdmissionShed:
    case JournalEvent::kCompleted:
    case JournalEvent::kBreaker:
    case JournalEvent::kStormStart:
    case JournalEvent::kStormEnd:
    case JournalEvent::kNodeDead:
      Apply(rec);
      return Status::OK();
    case JournalEvent::kIteration: {
      // An iteration cannot resume more databases than have resumed in
      // all; a record that claims to is corrupt, and its count would
      // size the per-count vector.
      uint64_t resumed_ever = 0;
      for (const ClassDiagnostics& c : diagnostics_.per_class) {
        resumed_ever += c.resumed;
      }
      if (rec.stats[0] > resumed_ever) {
        return Status::Corruption(
            "journal replay: iteration resumed more than ever resumed");
      }
      // The idle count is added in one step, so a forged one costs no
      // time; one that would overflow a counter, this iteration's own
      // included, is corrupt.
      constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
      const uint64_t zero_entry = resumed_per_iteration_.empty()
                                      ? 0
                                      : resumed_per_iteration_[0];
      if (rec.idle_before >= kMax - diagnostics_.observed_iterations ||
          rec.idle_before >= kMax - zero_entry) {
        return Status::Corruption(
            "journal replay: idle iteration count overflows the counters");
      }
      ++diagnostics_.observed_iterations;
      diagnostics_.max_queue_depth = std::max(
          diagnostics_.max_queue_depth, static_cast<size_t>(rec.stats[1]));
      diagnostics_.quota_deferrals = rec.stats[2];
      if ((rec.flags & kJfSlowStart) != 0) {
        ++diagnostics_.slow_start_ticks;
        ++ramp_step_;
      }
      NoteIterationResumed(rec.stats[0], rec.idle_before);
      quota_this_iteration_ = rec.stats[3];
      reactive_arrivals_ = 0;
      return Status::OK();
    }
  }
  return Status::Corruption("journal replay: unknown event type");
}

ManagementService::ReconcileStats ManagementService::FinishRecovery(
    const std::function<bool(DbId)>& node_resumed, EpochSeconds now) {
  ReconcileStats stats;
  // Deterministic reconcile order, so a crash during recovery replays the
  // same prefix of decisions on the next attempt.  Each decision is
  // journaled, then applied exactly as replay applies it.
  std::vector<std::pair<DbId, ResumeClass>> pending(recovery_pending_.begin(),
                                                    recovery_pending_.end());
  std::sort(pending.begin(), pending.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [db, cls] : pending) {
    if (fenced_) break;
    const WorkItem* item = FindQueued(cls, db);
    if (item == nullptr) {
      recovery_pending_.erase(db);
      continue;
    }
    JournalRecord rec;
    rec.db = db;
    rec.cls = static_cast<uint8_t>(cls);
    rec.time = now;
    const bool resumed = node_resumed(db);
    if (resumed) {
      // The dispatch went through before the crash; acknowledging it now
      // (instead of re-dispatching) is what keeps resumes exactly-once.
      rec.event = JournalEvent::kReconcileComplete;
      rec.attempt = item->attempts + 1;
      if (item->attempts > 0) rec.flags |= kJfWasFailed;
    } else {
      // The dispatch never reached the node: requeue, attempts unchanged.
      rec.event = JournalEvent::kReconcileRequeue;
      rec.attempt = item->attempts;
    }
    if (!Journal(rec)) break;
    (void)ApplyForRecovery(rec);
    ++(resumed ? stats.completed : stats.requeued);
  }
  if (!fenced_) recovery_pending_.clear();

  // In-flight workflows whose node no longer shows the resume: the
  // customer is still waiting, so a fresh reactive workflow starts.
  std::vector<DbId> lost;
  for (const auto& [db, f] : in_flight_) {
    if (!node_resumed(db)) lost.push_back(db);
  }
  std::sort(lost.begin(), lost.end());
  for (DbId db : lost) {
    if (fenced_) break;
    JournalRecord rec;
    rec.event = JournalEvent::kReconcileRequeue;
    rec.db = db;
    rec.cls = static_cast<uint8_t>(ResumeClass::kReactiveLogin);
    rec.time = now;
    rec.enqueued_at = now;
    rec.flags |= kJfAsync;
    if (config_.deadline_hedging_enabled) {
      rec.deadline = now + DeadlineFor(ResumeClass::kReactiveLogin);
    }
    if (!Journal(rec)) break;
    (void)ApplyForRecovery(rec);
    ++stats.in_flight_requeued;
  }

  // Conservative degradation posture: the breaker's outcome window and
  // half-open probe progress are deliberately not journaled — rebuilding
  // them optimistically could let a crash bypass an open breaker.  The
  // journaled breaker STATE is restored exactly (open stays open until
  // its cool-down elapses on the virtual clock); the window restarts
  // empty, half-open progress restarts at zero, and an active storm
  // restarts its slow-start ramp from the first step.
  outcomes_.clear();
  window_failures_ = 0;
  half_open_probes_issued_ = 0;
  half_open_successes_ = 0;
  if (storm_active_) ramp_step_ = 0;
  return stats;
}

}  // namespace prorp::controlplane
