#include "controlplane/management_service.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/backoff.h"
#include "controlplane/journal.h"
#include "faults/crash_points.h"

namespace prorp::controlplane {

void DiagnosticsReport::Merge(const DiagnosticsReport& other) {
  observed_iterations += other.observed_iterations;
  max_queue_depth = std::max(max_queue_depth, other.max_queue_depth);
  stuck_workflows += other.stuck_workflows;
  mitigated += other.mitigated;
  skipped_state_changed += other.skipped_state_changed;
  failed_then_skipped += other.failed_then_skipped;
  failed_then_shed += other.failed_then_shed;
  incidents += other.incidents;
  backoff_retries_scheduled += other.backoff_retries_scheduled;
  backoff_delay_seconds_total += other.backoff_delay_seconds_total;
  shed_resumes += other.shed_resumes;
  breaker_opens += other.breaker_opens;
  breaker_state_changes += other.breaker_state_changes;
  for (size_t c = 0; c < kNumResumeClasses; ++c) {
    ClassDiagnostics& m = per_class[c];
    const ClassDiagnostics& v = other.per_class[c];
    m.enqueued += v.enqueued;
    m.resumed += v.resumed;
    m.shed_admission += v.shed_admission;
    m.shed_evicted += v.shed_evicted;
    m.stuck += v.stuck;
    m.mitigated += v.mitigated;
    m.incidents += v.incidents;
    m.skipped_state_changed += v.skipped_state_changed;
    m.failed_then_skipped += v.failed_then_skipped;
    m.failed_then_shed += v.failed_then_shed;
    m.deadline_breaches += v.deadline_breaches;
    m.hedged += v.hedged;
    m.hedge_wins += v.hedge_wins;
  }
  storms_detected += other.storms_detected;
  slow_start_ticks += other.slow_start_ticks;
  quota_deferrals += other.quota_deferrals;
  catch_up_enqueued += other.catch_up_enqueued;
  deleted_while_queued += other.deleted_while_queued;
  max_brownout_level = std::max(max_brownout_level, other.max_brownout_level);
  unacked_dispatches += other.unacked_dispatches;
  dispatch_timeouts += other.dispatch_timeouts;
  late_acks += other.late_acks;
  stale_epoch_acks += other.stale_epoch_acks;
  node_failovers += other.node_failovers;
  failover_requeues += other.failover_requeues;
  queue_wait.Merge(other.queue_wait);
  in_flight_duration.Merge(other.in_flight_duration);
}

std::string_view BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

std::string_view ResumeClassName(ResumeClass cls) {
  switch (cls) {
    case ResumeClass::kReactiveLogin:
      return "reactive";
    case ResumeClass::kImminentProactive:
      return "imminent";
    case ResumeClass::kSpeculativeProactive:
      return "speculative";
    case ResumeClass::kMaintenance:
      return "maintenance";
  }
  return "unknown";
}

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
  for (const auto& q : queues_) {
    for (const WorkItem& item : q) {
      if (item.attempts > 0) ++n;
    }
  }
  // Unacked dispatches are still open workflows: an item that failed
  // before going on the wire stays an open term of the invariant until
  // its ack (or timeout requeue) resolves it.
  for (const auto& [db, u] : unacked_) {
    if (u.item.attempts > 0) ++n;
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

void ManagementService::SetBreaker(BreakerState next, EpochSeconds now) {
  if (next == breaker_) return;
  JournalRecord rec;
  rec.event = JournalEvent::kBreaker;
  rec.cls = static_cast<uint8_t>(next);
  rec.time = now;
  if (!Journal(rec)) return;
  ApplyBreaker(next, now);
}

void ManagementService::ApplyBreaker(BreakerState next, EpochSeconds now) {
  breaker_ = next;
  ++diagnostics_.breaker_state_changes;
  switch (next) {
    case BreakerState::kOpen:
      ++diagnostics_.breaker_opens;
      breaker_opened_at_ = now;
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
    queued_dbs_.erase(victim.db);
    ClassDiagnostics& cd = diagnostics_.per_class[i];
    ++cd.shed_evicted;
    if (victim.attempts > 0) {
      ++cd.failed_then_shed;
      ++diagnostics_.failed_then_shed;
    }
    return true;
  }
  return false;
}

void ManagementService::EnqueueItem(DbId db, ResumeClass cls, EpochSeconds now,
                                    int brownout_level, bool catch_up,
                                    bool failover) {
  WorkItem item;
  item.db = db;
  item.cls = cls;
  item.not_before = now;
  item.enqueued_at = now;
  if (config_.deadline_hedging_enabled) {
    item.deadline = now + DeadlineFor(cls);
  }
  JournalRecord rec;
  rec.event = JournalEvent::kAccepted;
  rec.db = db;
  rec.cls = static_cast<uint8_t>(cls);
  rec.attempt = brownout_level;
  rec.time = now;
  rec.enqueued_at = now;
  rec.deadline = item.deadline;
  if (catch_up) rec.flags |= kJfCatchUp;
  if (failover) {
    // Failover re-placements are reactive-priority but deliberately NOT
    // kJfReactive: replay must not feed them into the storm detector's
    // arrival count.
    rec.flags |= kJfFailover;
  } else if (cls == ResumeClass::kReactiveLogin) {
    rec.flags |= kJfReactive;
  }
  if (!Journal(rec)) return;
  queued_dbs_.emplace(db, cls);
  queues_[Idx(cls)].push_back(item);
  ++Cls(cls).enqueued;
  if (failover) ++diagnostics_.failover_requeues;
}

bool ManagementService::AdmitNonReactive(DbId db, ResumeClass cls,
                                         EpochSeconds now, bool catch_up) {
  if (fenced_) return false;
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
    if (!Journal(rec)) return false;
    ++diagnostics_.shed_resumes;
    ++Cls(cls).shed_admission;
    return false;
  }
  int level = ComputeBrownoutLevel();
  diagnostics_.max_brownout_level =
      std::max(diagnostics_.max_brownout_level, level);
  bool shed = !ClassAdmittedAt(cls, level);
  if (!shed && config_.queue_capacity > 0 &&
      NonReactiveQueued() >= config_.queue_capacity &&
      !EvictLowerClass(cls, now)) {
    if (fenced_) return false;  // eviction fenced mid-journal
    shed = true;
  }
  if (shed) {
    JournalRecord rec;
    rec.event = JournalEvent::kAdmissionShed;
    rec.db = db;
    rec.cls = static_cast<uint8_t>(cls);
    rec.attempt = level;
    rec.time = now;
    if (!Journal(rec)) return false;
    ++Cls(cls).shed_admission;
    return false;
  }
  EnqueueItem(db, cls, now, level, catch_up);
  return !fenced_;
}

void ManagementService::RetireSkipped(const WorkItem& item, bool deleted) {
  JournalRecord rec;
  rec.event = JournalEvent::kRetired;
  rec.db = item.db;
  rec.cls = static_cast<uint8_t>(item.cls);
  rec.attempt = item.attempts;
  if (item.attempts > 0) rec.flags |= kJfWasFailed;
  if (deleted) rec.flags |= kJfDeleted;
  if (!Journal(rec)) return;
  queued_dbs_.erase(item.db);
  ++diagnostics_.skipped_state_changed;
  ++Cls(item.cls).skipped_state_changed;
  if (item.attempts > 0) {
    ++diagnostics_.failed_then_skipped;
    ++Cls(item.cls).failed_then_skipped;
  }
  if (deleted) ++diagnostics_.deleted_while_queued;
}

void ManagementService::PromoteToReactive(DbId db, EpochSeconds now) {
  auto it = queued_dbs_.find(db);
  if (it == queued_dbs_.end() || it->second == ResumeClass::kReactiveLogin) {
    return;
  }
  // The old item is retired through the skipped_state_changed path of its
  // own class (keeping the per-class invariant closed) and a fresh
  // reactive workflow starts.
  auto& q = queues_[Idx(it->second)];
  for (auto qi = q.begin(); qi != q.end(); ++qi) {
    if (qi->db == db) {
      RetireSkipped(*qi);
      if (fenced_) return;
      q.erase(qi);
      break;
    }
  }
  EnqueueItem(db, ResumeClass::kReactiveLogin, now);
}

Status ManagementService::EnqueueReactive(DbId db, EpochSeconds now) {
  if (fenced_) return fence_status_;
  ++reactive_arrivals_;
  if (in_flight_.count(db) != 0) return Status::OK();  // already resuming
  if (auto ua = unacked_.find(db); ua != unacked_.end()) {
    // A dispatch for this database is on the wire with an unknown
    // outcome.  The login is absorbed — NOT journaled as kAccepted:
    // replay-wise the database is still queued (kDispatched without an
    // outcome), so a fresh accept would corrupt replay.  The interest
    // flag makes the resolution paths promote the workflow to reactive.
    ua->second.reactive_interest = true;
    return Status::OK();
  }
  auto it = queued_dbs_.find(db);
  if (it != queued_dbs_.end()) {
    if (it->second == ResumeClass::kReactiveLogin) return Status::OK();
    // Promotion: the customer's login outruns a queued pre-warm of the
    // same database.
    PromoteToReactive(db, now);
    if (fenced_) return fence_status_;
    return Status::OK();
  }
  EnqueueItem(db, ResumeClass::kReactiveLogin, now);
  if (fenced_) return fence_status_;
  return Status::OK();
}

Status ManagementService::NoteNodeDead(uint32_t node, EpochSeconds now) {
  if (fenced_) return fence_status_;
  JournalRecord rec;
  rec.event = JournalEvent::kNodeDead;
  rec.db = node;  // the db field carries the node id for this event
  rec.time = now;
  if (!Journal(rec)) return fence_status_;
  ++diagnostics_.node_failovers;
  return Status::OK();
}

Status ManagementService::EnqueueFailover(DbId db, EpochSeconds now) {
  if (fenced_) return fence_status_;
  // Dedup against every live form the workflow could already have: a
  // failover must never fork a second concurrent workflow for the same
  // database.  In-flight and unacked dispatches resolve through their own
  // paths (timeout/reconcile re-places them), and anything already queued
  // is promoted to reactive priority rather than duplicated.
  if (in_flight_.count(db) != 0) return Status::OK();
  if (auto ua = unacked_.find(db); ua != unacked_.end()) {
    ua->second.reactive_interest = true;
    return Status::OK();
  }
  if (auto it = queued_dbs_.find(db); it != queued_dbs_.end()) {
    if (it->second != ResumeClass::kReactiveLogin) PromoteToReactive(db, now);
    if (fenced_) return fence_status_;
    return Status::OK();
  }
  EnqueueItem(db, ResumeClass::kReactiveLogin, now, /*brownout_level=*/-1,
              /*catch_up=*/false, /*failover=*/true);
  if (fenced_) return fence_status_;
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
  if (!Journal(rec)) return;
  diagnostics_.in_flight_duration.Add(now - it->second.started);
  in_flight_.erase(it);
}

void ManagementService::NoteLateAck(DbId db) {
  (void)db;
  ++diagnostics_.late_acks;
}

void ManagementService::NoteStaleEpochAck(DbId db) {
  (void)db;
  ++diagnostics_.stale_epoch_acks;
}

void ManagementService::ResolveUnacked(DbId db, UnackedDispatch u,
                                       bool is_hedge, const Status& outcome,
                                       EpochSeconds now) {
  WorkItem& item = u.item;
  ClassDiagnostics& cd = Cls(item.cls);
  const bool hedge_verdict = is_hedge || u.hedge_dispatch;
  if (outcome.ok()) {
    const bool went_async = item.cls == ResumeClass::kReactiveLogin &&
                            config_.deadline_hedging_enabled;
    EpochSeconds effective_deadline =
        item.deadline > 0 ? item.deadline : now + DeadlineFor(item.cls);
    JournalRecord rec;
    rec.event = JournalEvent::kOutcomeOk;
    rec.db = db;
    rec.cls = static_cast<uint8_t>(item.cls);
    rec.attempt = item.attempts + 1;
    rec.time = now;
    rec.deadline = went_async ? effective_deadline : item.deadline;
    if (hedge_verdict) rec.flags |= kJfHedge;
    if (item.attempts > 0) rec.flags |= kJfWasFailed;
    if (went_async) rec.flags |= kJfAsync;
    if (!Journal(rec)) return;  // fenced; recovery reconciles the dispatch
    ++cd.resumed;
    if (item.attempts > 0) {
      ++diagnostics_.mitigated;
      ++cd.mitigated;
    }
    if (hedge_verdict) ++cd.hedge_wins;
    if (item.cls == ResumeClass::kImminentProactive ||
        item.cls == ResumeClass::kSpeculativeProactive) {
      // Folded into the next RunOnce's resumed count (and its journaled
      // kIteration aggregate), keeping the Figure 11 metric and replay
      // exact.
      ++async_resumed_pending_;
    }
    if (u.gated) {
      // Breaker bookkeeping uses the dispatch-time posture (stored at
      // park time): an ack landing after the breaker moved on must not
      // count as a probe it never was.
      if (u.half_open_probe) {
        ++half_open_successes_;
        if (half_open_successes_ >= config_.breaker_half_open_probes) {
          SetBreaker(BreakerState::kClosed, now);
        }
      } else {
        RecordOutcome(/*success=*/true, now);
      }
    }
    if (went_async) {
      InFlightItem f;
      f.cls = item.cls;
      f.attempts = item.attempts + 1;
      f.started = now;
      f.deadline = effective_deadline;
      f.hedged = item.hedged;
      in_flight_[db] = f;
    }
    // A reactive interest noted while unacked is satisfied by the resume
    // itself — the customer's database is up.
    return;
  }
  if (outcome.code() == StatusCode::kFailedPrecondition) {
    // The database is no longer physically paused; retire silently,
    // breaker-neutral, exactly like the synchronous path.
    RetireSkipped(item);
    return;
  }
  // Transient workflow failure reported by the node: mirror the
  // synchronous failure path (backoff retry or incident).
  int new_attempts = item.attempts + 1;
  const bool incident = new_attempts >= max_attempts_;
  DurationSeconds delay = incident ? 0 : BackoffDelay(db, new_attempts);
  JournalRecord rec;
  rec.event = JournalEvent::kOutcomeFailed;
  rec.db = db;
  rec.cls = static_cast<uint8_t>(item.cls);
  rec.attempt = new_attempts;
  rec.time = now;
  if (!incident) rec.not_before = now + delay;
  if (new_attempts == 1) rec.flags |= kJfFirstFailure;
  if (incident) rec.flags |= kJfIncident;
  if (!Journal(rec)) return;
  item.attempts = new_attempts;
  if (item.attempts == 1) {
    ++diagnostics_.stuck_workflows;
    ++cd.stuck;
  }
  if (u.gated) {
    if (u.half_open_probe) {
      SetBreaker(BreakerState::kOpen, now);  // failed probe: re-open
    } else {
      RecordOutcome(/*success=*/false, now);
    }
  }
  if (!incident) {
    item.not_before = now + delay;
    ++diagnostics_.backoff_retries_scheduled;
    diagnostics_.backoff_delay_seconds_total += static_cast<uint64_t>(delay);
    // Replay-consistent: the journal still shows the item queued (its
    // kDispatched never got a terminal outcome until the kOutcomeFailed
    // above), so re-adding it here converges with replay.
    queues_[Idx(item.cls)].push_back(item);
    queued_dbs_.emplace(db, item.cls);
    if (u.reactive_interest && item.cls != ResumeClass::kReactiveLogin) {
      PromoteToReactive(db, now);
    }
  } else {
    ++diagnostics_.incidents;
    ++cd.incidents;
    if (u.reactive_interest) {
      // The login absorbed while unacked still needs a workflow; the db
      // is no longer queued at this point, so a fresh accept is valid.
      EnqueueItem(db, ResumeClass::kReactiveLogin, now);
    }
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
  const bool is_hedge = request_id == it->second.hedge_request_id;
  const bool transient = !outcome.ok() &&
                         outcome.code() != StatusCode::kFailedPrecondition;
  if (transient) {
    // A transient nack from one side of a hedged pair: spend this rid and
    // keep waiting while the other dispatch is still on the wire.
    uint64_t& slot =
        is_hedge ? it->second.hedge_request_id : it->second.request_id;
    slot = 0;
    if (it->second.request_id != 0 || it->second.hedge_request_id != 0) {
      return;
    }
  }
  UnackedDispatch resolved = std::move(it->second);
  unacked_.erase(it);
  ResolveUnacked(db, std::move(resolved), is_hedge, outcome, now);
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
  WorkItem item = resolved.item;
  item.not_before = now;
  queues_[Idx(item.cls)].push_back(item);
  queued_dbs_.emplace(db, item.cls);
  if (resolved.reactive_interest &&
      item.cls != ResumeClass::kReactiveLogin) {
    PromoteToReactive(db, now);
  }
}

void ManagementService::Watchdog(EpochSeconds now) {
  if (!config_.deadline_hedging_enabled || fenced_) return;
  for (auto& [db, f] : in_flight_) {
    if (fenced_) break;
    if (f.hedged || now <= f.deadline) continue;
    // Journal the hedge before dispatching it: hedging is bounded at one
    // per workflow, and that bound must hold across a crash — a recovered
    // control plane must never re-hedge a workflow whose hedge already
    // went out.
    JournalRecord rec;
    rec.event = JournalEvent::kHedge;
    rec.db = db;
    rec.cls = static_cast<uint8_t>(f.cls);
    rec.attempt = f.attempts;
    rec.time = now;
    if (!Journal(rec)) break;
    f.hedged = true;
    ClassDiagnostics& cd = Cls(f.cls);
    ++cd.deadline_breaches;
    ++cd.hedged;
    ResumeAttempt attempt;
    attempt.db = db;
    attempt.cls = f.cls;
    attempt.attempt = f.attempts;
    attempt.hedge = true;
    attempt.node_offset = 1;
    attempt.enqueued_at = f.started;
    attempt.request_id = NextRequestId();
    // Best-effort rescue: the original dispatch is still in flight, so a
    // hedge failure changes nothing — the completion (or an incident at a
    // higher layer) still resolves the workflow.
    Status s = resume_(attempt, now);
    if (s.code() == StatusCode::kAborted) {
      // Simulated process death inside the resume path, not a workflow
      // failure.
      Fence(s);
      break;
    }
    if (s.code() == StatusCode::kPending) continue;  // ack decides later
    if (s.ok()) {
      JournalRecord win;
      win.event = JournalEvent::kHedge;
      win.db = db;
      win.cls = static_cast<uint8_t>(f.cls);
      win.time = now;
      win.flags |= kJfHedgeWin;
      if (!Journal(win)) break;
      ++cd.hedge_wins;
    }
  }
  if (fenced_) return;

  // Hedge unacked dispatches past their deadline: the primary request may
  // be delayed or lost in the transport, so one hedge to the secondary
  // node races it.  Node-side dedup and the single-resolution rule below
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
    JournalRecord rec;
    rec.event = JournalEvent::kHedge;
    rec.db = db;
    rec.cls = static_cast<uint8_t>(it->second.item.cls);
    rec.attempt = it->second.item.attempts + 1;
    rec.time = now;
    if (!Journal(rec)) break;
    it->second.item.hedged = true;
    ClassDiagnostics& cd = Cls(it->second.item.cls);
    ++cd.deadline_breaches;
    ++cd.hedged;
    ResumeAttempt attempt;
    attempt.db = db;
    attempt.cls = it->second.item.cls;
    attempt.attempt = it->second.item.attempts + 1;
    attempt.hedge = true;
    attempt.node_offset = 1;
    attempt.enqueued_at = it->second.item.enqueued_at;
    attempt.request_id = NextRequestId();
    it->second.hedge_request_id = attempt.request_id;
    Status s = resume_(attempt, now);
    if (s.code() == StatusCode::kAborted) {
      Fence(s);
      break;
    }
    if (s.code() == StatusCode::kPending) continue;  // races the original
    // Inline hedge verdict (fault-free path to the secondary node).  A
    // success or a state-changed resolves the workflow as the hedge's
    // outcome; a transient hedge failure changes nothing — the original
    // dispatch is still on the wire.
    it = unacked_.find(db);
    if (it == unacked_.end()) continue;
    if (s.ok() || s.code() == StatusCode::kFailedPrecondition) {
      UnackedDispatch u = std::move(it->second);
      unacked_.erase(it);
      ResolveUnacked(db, std::move(u), /*is_hedge=*/true, s, now);
    } else {
      // Transient inline hedge nack: the hedge rid is already settled on
      // the dispatcher side, so the slot must be spent here — leaving it
      // set would make the original's eventual timeout wait forever on a
      // hedge ack that can never arrive.
      it->second.hedge_request_id = 0;
      if (it->second.request_id == 0) {
        UnackedDispatch u = std::move(it->second);
        unacked_.erase(it);
        ResolveUnacked(db, std::move(u), /*is_hedge=*/true, s, now);
      }
    }
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
  storm_active_ = true;
  ++storm_seq_;
  ramp_step_ = 0;
  ++diagnostics_.storms_detected;
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
    if (AdmitNonReactive(m.db, cls, now, /*catch_up=*/true)) {
      ++diagnostics_.catch_up_enqueued;
    }
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
    ClassDiagnostics& cd = Cls(item.cls);
    // Journal the dispatch before the callback runs: a crash between the
    // two leaves a dispatched-but-unacked workflow, the one case recovery
    // must reconcile against the node instead of deciding alone.
    {
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
    }
    if (hedge_now) {
      item.hedged = true;
      ++cd.deadline_breaches;
      ++cd.hedged;
    }
    if (!item.wait_recorded) {
      diagnostics_.queue_wait.Add(now - item.enqueued_at);
      item.wait_recorded = true;
    }
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
    if (s.code() == StatusCode::kPending) {
      // The dispatch is on the wire with its outcome deferred; it parks
      // in the unacked set until OnDispatchAck / OnDispatchTimeout.
      // Journal-wise nothing more is needed: the kDispatched above
      // without an outcome IS the unacked state, and a crash here leaves
      // exactly what FinishRecovery reconciles against the node.
      UnackedDispatch u;
      u.item = item;
      u.request_id = attempt.request_id;
      u.sent_at = now;
      u.gated = gated && !hedge_now;
      u.half_open_probe = u.gated && breaker_ == BreakerState::kHalfOpen;
      u.hedge_dispatch = hedge_now;
      unacked_.emplace(item.db, std::move(u));
      queued_dbs_.erase(item.db);
      ++diagnostics_.unacked_dispatches;
      continue;
    }
    if (s.ok()) {
      const bool went_async = cls == ResumeClass::kReactiveLogin &&
                              config_.deadline_hedging_enabled;
      EpochSeconds effective_deadline =
          item.deadline > 0 ? item.deadline : now + DeadlineFor(item.cls);
      JournalRecord rec;
      rec.event = JournalEvent::kOutcomeOk;
      rec.db = item.db;
      rec.cls = static_cast<uint8_t>(item.cls);
      rec.attempt = item.attempts + 1;
      rec.time = now;
      rec.deadline = went_async ? effective_deadline : item.deadline;
      if (hedge_now) rec.flags |= kJfHedge;
      if (item.attempts > 0) rec.flags |= kJfWasFailed;
      if (went_async) rec.flags |= kJfAsync;
      if (!Journal(rec)) {
        q.push_front(item);
        break;
      }
      queued_dbs_.erase(item.db);
      ++resumed;
      ++cd.resumed;
      if (item.attempts > 0) {
        ++diagnostics_.mitigated;
        ++cd.mitigated;
      }
      if (hedge_now) ++cd.hedge_wins;
      if (gated && !hedge_now) {
        if (breaker_ == BreakerState::kHalfOpen) {
          ++half_open_successes_;
          if (half_open_successes_ >= config_.breaker_half_open_probes) {
            SetBreaker(BreakerState::kClosed, now);
          }
        } else {
          RecordOutcome(/*success=*/true, now);
        }
      }
      if (went_async) {
        // Resources arrive asynchronously; the watchdog guards the wait.
        InFlightItem f;
        f.cls = item.cls;
        f.attempts = item.attempts + 1;
        f.started = now;
        f.deadline = effective_deadline;
        f.hedged = item.hedged;
        in_flight_[item.db] = f;
      }
      continue;
    }
    if (s.code() == StatusCode::kFailedPrecondition) {
      // The database is no longer physically paused (it resumed on its
      // own or was already handled): nothing to do.  Breaker-neutral.
      RetireSkipped(item);
      continue;
    }
    // Transient workflow failure: the diagnostics runner mitigates by
    // retrying after a capped exponential backoff.
    {
      int new_attempts = item.attempts + 1;
      const bool incident = new_attempts >= max_attempts_;
      DurationSeconds delay =
          incident ? 0 : BackoffDelay(item.db, new_attempts);
      JournalRecord rec;
      rec.event = JournalEvent::kOutcomeFailed;
      rec.db = item.db;
      rec.cls = static_cast<uint8_t>(item.cls);
      rec.attempt = new_attempts;
      rec.time = now;
      if (!incident) rec.not_before = now + delay;
      if (new_attempts == 1) rec.flags |= kJfFirstFailure;
      if (incident) rec.flags |= kJfIncident;
      if (!Journal(rec)) {
        q.push_front(item);
        break;
      }
      item.attempts = new_attempts;
      if (item.attempts == 1) {
        ++diagnostics_.stuck_workflows;
        ++cd.stuck;
      }
      if (gated && !hedge_now) {
        if (breaker_ == BreakerState::kHalfOpen) {
          SetBreaker(BreakerState::kOpen, now);  // failed probe: re-open
        } else {
          RecordOutcome(/*success=*/false, now);
        }
      }
      if (!incident) {
        item.not_before = now + delay;
        ++diagnostics_.backoff_retries_scheduled;
        diagnostics_.backoff_delay_seconds_total +=
            static_cast<uint64_t>(delay);
        q.push_back(item);
      } else {
        queued_dbs_.erase(item.db);
        ++diagnostics_.incidents;  // mitigation failed -> on-call engineer
        ++cd.incidents;
      }
    }
  }
  return resumed;
}

uint64_t ManagementService::Pump(EpochSeconds now) {
  if (fenced_) return 0;
  Watchdog(now);
  return DrainClass(ResumeClass::kReactiveLogin, now, nullptr);
}

Result<uint64_t> ManagementService::RunOnce(EpochSeconds now,
                                            bool use_sql_scan) {
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
      auto& q = queues_[Idx(it->second)];
      for (auto qi = q.begin(); qi != q.end(); ++qi) {
        if (qi->db == db) {
          RetireSkipped(*qi);
          if (fenced_) return fence_status_;
          q.erase(qi);
          break;
        }
      }
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
    storm_active_ = false;
    storm_ended_at_ = now;
    quota_this_iteration_ = 0;
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
    if (quota != nullptr) rec.flags |= kJfSlowStart;
    if (!Journal(rec)) return fence_status_;
  }
  resumed_per_iteration_.Add(static_cast<double>(resumed));
  total_resumed_ += resumed;
  return resumed;
}

Status ManagementService::ApplyForRecovery(const JournalRecord& rec) {
  const ResumeClass cls = static_cast<ResumeClass>(rec.cls);
  switch (rec.event) {
    case JournalEvent::kEpochStart:
    case JournalEvent::kMetaUpsert:
    case JournalEvent::kMetaRemove:
      // Epoch tracking and metadata records are applied by the owner
      // (DurableControlPlane), not the service.
      return Status::OK();
    case JournalEvent::kAccepted: {
      if (queued_dbs_.count(rec.db) != 0) {
        return Status::Corruption(
            "journal replay: kAccepted for an already-queued database");
      }
      WorkItem item;
      item.db = rec.db;
      item.cls = cls;
      item.not_before = rec.time;
      item.enqueued_at = rec.enqueued_at;
      item.deadline = rec.deadline;
      queued_dbs_.emplace(rec.db, cls);
      queues_[Idx(cls)].push_back(item);
      ++Cls(cls).enqueued;
      if ((rec.flags & kJfCatchUp) != 0) ++diagnostics_.catch_up_enqueued;
      if ((rec.flags & kJfReactive) != 0) ++reactive_arrivals_;
      if ((rec.flags & kJfFailover) != 0) ++diagnostics_.failover_requeues;
      if (rec.attempt > 0) {
        diagnostics_.max_brownout_level =
            std::max(diagnostics_.max_brownout_level, rec.attempt);
      }
      return Status::OK();
    }
    case JournalEvent::kNodeDead:
      ++diagnostics_.node_failovers;
      return Status::OK();
    case JournalEvent::kAdmissionShed: {
      if ((rec.flags & kJfBreakerShed) != 0) ++diagnostics_.shed_resumes;
      ++Cls(cls).shed_admission;
      if (rec.attempt > 0) {
        diagnostics_.max_brownout_level =
            std::max(diagnostics_.max_brownout_level, rec.attempt);
      }
      return Status::OK();
    }
    case JournalEvent::kEvicted: {
      auto& q = queues_[Idx(cls)];
      for (auto qi = q.end(); qi != q.begin();) {
        --qi;
        if (qi->db != rec.db) continue;
        q.erase(qi);
        break;
      }
      queued_dbs_.erase(rec.db);
      ++Cls(cls).shed_evicted;
      if ((rec.flags & kJfWasFailed) != 0) {
        ++Cls(cls).failed_then_shed;
        ++diagnostics_.failed_then_shed;
      }
      return Status::OK();
    }
    case JournalEvent::kRetired: {
      auto& q = queues_[Idx(cls)];
      for (auto qi = q.begin(); qi != q.end(); ++qi) {
        if (qi->db != rec.db) continue;
        q.erase(qi);
        break;
      }
      queued_dbs_.erase(rec.db);
      recovery_pending_.erase(rec.db);
      ++diagnostics_.skipped_state_changed;
      ++Cls(cls).skipped_state_changed;
      if ((rec.flags & kJfWasFailed) != 0) {
        ++diagnostics_.failed_then_skipped;
        ++Cls(cls).failed_then_skipped;
      }
      if ((rec.flags & kJfDeleted) != 0) ++diagnostics_.deleted_while_queued;
      return Status::OK();
    }
    case JournalEvent::kDispatched: {
      WorkItem* item = FindQueued(cls, rec.db);
      if (item == nullptr) {
        return Status::Corruption(
            "journal replay: kDispatched for a database not queued");
      }
      if ((rec.flags & kJfFirstWait) != 0) {
        diagnostics_.queue_wait.Add(rec.time - rec.enqueued_at);
        item->wait_recorded = true;
      }
      if ((rec.flags & kJfHedge) != 0) {
        item->hedged = true;
        ++Cls(cls).deadline_breaches;
        ++Cls(cls).hedged;
      }
      recovery_pending_[rec.db] = cls;
      return Status::OK();
    }
    case JournalEvent::kOutcomeOk:
      ReplaySuccess(rec, (rec.flags & kJfAsync) != 0);
      return Status::OK();
    case JournalEvent::kOutcomeFailed: {
      recovery_pending_.erase(rec.db);
      ClassDiagnostics& cd = Cls(cls);
      if ((rec.flags & kJfFirstFailure) != 0) {
        ++diagnostics_.stuck_workflows;
        ++cd.stuck;
      }
      auto& q = queues_[Idx(cls)];
      if ((rec.flags & kJfIncident) != 0) {
        for (auto qi = q.begin(); qi != q.end(); ++qi) {
          if (qi->db != rec.db) continue;
          q.erase(qi);
          break;
        }
        queued_dbs_.erase(rec.db);
        ++diagnostics_.incidents;
        ++cd.incidents;
      } else if (WorkItem* item = FindQueued(cls, rec.db); item != nullptr) {
        item->attempts = rec.attempt;
        item->not_before = rec.not_before;
        ++diagnostics_.backoff_retries_scheduled;
        diagnostics_.backoff_delay_seconds_total +=
            static_cast<uint64_t>(rec.not_before - rec.time);
      }
      return Status::OK();
    }
    case JournalEvent::kHedge: {
      if ((rec.flags & kJfHedgeWin) != 0) {
        ++Cls(cls).hedge_wins;
        return Status::OK();
      }
      auto it = in_flight_.find(rec.db);
      if (it != in_flight_.end()) {
        it->second.hedged = true;
        ++Cls(cls).deadline_breaches;
        ++Cls(cls).hedged;
      } else if (WorkItem* item = FindQueued(cls, rec.db); item != nullptr) {
        // A watchdog hedge of an unacked dispatch: replay-wise the item
        // is still queued (kDispatched without an outcome).  Restoring
        // the hedged bit keeps the one-hedge-per-workflow bound across a
        // crash.
        item->hedged = true;
        ++Cls(cls).deadline_breaches;
        ++Cls(cls).hedged;
      }
      return Status::OK();
    }
    case JournalEvent::kCompleted: {
      auto it = in_flight_.find(rec.db);
      if (it != in_flight_.end()) {
        diagnostics_.in_flight_duration.Add(rec.time - it->second.started);
        in_flight_.erase(it);
      }
      return Status::OK();
    }
    case JournalEvent::kBreaker:
      ApplyBreaker(static_cast<BreakerState>(rec.cls), rec.time);
      return Status::OK();
    case JournalEvent::kStormStart:
      storm_active_ = true;
      ++storm_seq_;
      ramp_step_ = 0;
      ++diagnostics_.storms_detected;
      return Status::OK();
    case JournalEvent::kStormEnd:
      storm_active_ = false;
      storm_ended_at_ = rec.time;
      quota_this_iteration_ = 0;
      return Status::OK();
    case JournalEvent::kIteration:
      ++diagnostics_.observed_iterations;
      diagnostics_.max_queue_depth = std::max(
          diagnostics_.max_queue_depth, static_cast<size_t>(rec.stats[1]));
      diagnostics_.quota_deferrals = rec.stats[2];
      if ((rec.flags & kJfSlowStart) != 0) {
        ++diagnostics_.slow_start_ticks;
        ++ramp_step_;
      }
      resumed_per_iteration_.Add(static_cast<double>(rec.stats[0]));
      total_resumed_ += rec.stats[0];
      quota_this_iteration_ = rec.stats[3];
      reactive_arrivals_ = 0;
      return Status::OK();
    case JournalEvent::kReconcileComplete:
      ReplaySuccess(rec, /*async=*/false);
      return Status::OK();
    case JournalEvent::kReconcileRequeue: {
      recovery_pending_.erase(rec.db);
      if ((rec.flags & kJfAsync) != 0) {
        // An in-flight resume the node lost: a fresh reactive workflow
        // was started for the still-waiting customer.
        in_flight_.erase(rec.db);
        if (queued_dbs_.count(rec.db) == 0) {
          WorkItem item;
          item.db = rec.db;
          item.cls = ResumeClass::kReactiveLogin;
          item.not_before = rec.time;
          item.enqueued_at = rec.enqueued_at;
          item.deadline = rec.deadline;
          queued_dbs_.emplace(rec.db, ResumeClass::kReactiveLogin);
          queues_[Idx(ResumeClass::kReactiveLogin)].push_back(item);
          ++Cls(ResumeClass::kReactiveLogin).enqueued;
        }
      } else if (WorkItem* item = FindQueued(cls, rec.db); item != nullptr) {
        item->not_before = rec.time;
      }
      return Status::OK();
    }
  }
  return Status::Corruption("journal replay: unknown event type");
}

void ManagementService::ReplaySuccess(const JournalRecord& rec, bool async) {
  const ResumeClass cls = static_cast<ResumeClass>(rec.cls);
  recovery_pending_.erase(rec.db);
  bool hedged = false;
  auto& q = queues_[Idx(cls)];
  for (auto qi = q.begin(); qi != q.end(); ++qi) {
    if (qi->db != rec.db) continue;
    hedged = qi->hedged;
    q.erase(qi);
    break;
  }
  queued_dbs_.erase(rec.db);
  ClassDiagnostics& cd = Cls(cls);
  ++cd.resumed;
  if ((rec.flags & kJfWasFailed) != 0) {
    ++diagnostics_.mitigated;
    ++cd.mitigated;
  }
  if ((rec.flags & kJfHedge) != 0) ++cd.hedge_wins;
  if (async) {
    InFlightItem f;
    f.cls = cls;
    f.attempts = rec.attempt;
    f.started = rec.time;
    f.deadline = rec.deadline;
    f.hedged = hedged || (rec.flags & kJfHedge) != 0;
    in_flight_[rec.db] = f;
  }
}

ManagementService::ReconcileStats ManagementService::FinishRecovery(
    const std::function<bool(DbId)>& node_resumed, EpochSeconds now) {
  ReconcileStats stats;
  // Deterministic reconcile order, so a crash during recovery replays the
  // same prefix of decisions on the next attempt.
  std::vector<std::pair<DbId, ResumeClass>> pending(recovery_pending_.begin(),
                                                    recovery_pending_.end());
  std::sort(pending.begin(), pending.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [db, cls] : pending) {
    if (fenced_) break;
    WorkItem* item = FindQueued(cls, db);
    if (item == nullptr) {
      recovery_pending_.erase(db);
      continue;
    }
    if (node_resumed(db)) {
      // The dispatch went through before the crash; acknowledging it now
      // (instead of re-dispatching) is what keeps resumes exactly-once.
      JournalRecord rec;
      rec.event = JournalEvent::kReconcileComplete;
      rec.db = db;
      rec.cls = static_cast<uint8_t>(cls);
      rec.attempt = item->attempts + 1;
      rec.time = now;
      if (item->attempts > 0) rec.flags |= kJfWasFailed;
      if (!Journal(rec)) break;
      ReplaySuccess(rec, /*async=*/false);
      ++stats.completed;
    } else {
      // The dispatch never reached the node: requeue, attempts unchanged.
      JournalRecord rec;
      rec.event = JournalEvent::kReconcileRequeue;
      rec.db = db;
      rec.cls = static_cast<uint8_t>(cls);
      rec.attempt = item->attempts;
      rec.time = now;
      if (!Journal(rec)) break;
      item->not_before = now;
      recovery_pending_.erase(db);
      ++stats.requeued;
    }
  }
  if (!fenced_) recovery_pending_.clear();

  // In-flight workflows whose node no longer shows the resume: the
  // customer is still waiting, so a fresh reactive workflow starts (the
  // original workflow's accounting closed at its success).
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
    in_flight_.erase(db);
    if (queued_dbs_.count(db) == 0) {
      WorkItem item;
      item.db = db;
      item.cls = ResumeClass::kReactiveLogin;
      item.not_before = now;
      item.enqueued_at = now;
      item.deadline = rec.deadline;
      queued_dbs_.emplace(db, ResumeClass::kReactiveLogin);
      queues_[Idx(ResumeClass::kReactiveLogin)].push_back(item);
      ++Cls(ResumeClass::kReactiveLogin).enqueued;
    }
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
