#ifndef PRORP_CONTROLPLANE_MANAGEMENT_SERVICE_H_
#define PRORP_CONTROLPLANE_MANAGEMENT_SERVICE_H_

#include <array>
#include <deque>
#include <functional>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "common/config.h"
#include "common/stats.h"
#include "controlplane/metadata_store.h"
#include "telemetry/histogram.h"

namespace prorp::controlplane {

class ControlPlaneJournal;
struct JournalRecord;
struct ServiceStateCodec;

/// Circuit-breaker state of the resume-workflow path.
enum class BreakerState {
  kClosed,    // normal operation
  kOpen,      // shedding: fresh resumes dropped, retries held
  kHalfOpen,  // probing: a few attempts allowed to test recovery
};

std::string_view BreakerStateName(BreakerState state);

/// Workflow class of one resume request, in strict priority order: a
/// lower value is drained first and shed last.
enum class ResumeClass : uint8_t {
  /// A customer login hit a physically paused database; the customer is
  /// waiting.  Never bounded, never shed, breaker- and quota-exempt.
  kReactiveLogin = 0,
  /// Proactive pre-warm whose predicted activity start is still ahead.
  kImminentProactive = 1,
  /// Proactive pre-warm whose predicted start has already passed (a
  /// catch-up after the resume path was degraded) — useful, not urgent.
  kSpeculativeProactive = 2,
  /// Background maintenance touch of a physically paused database.
  kMaintenance = 3,
};

inline constexpr size_t kNumResumeClasses = 4;

std::string_view ResumeClassName(ResumeClass cls);

/// One resume-workflow attempt handed to the resume callback.
struct ResumeAttempt {
  DbId db = 0;
  ResumeClass cls = ResumeClass::kImminentProactive;
  int attempt = 1;    // 1-based; a hedge repeats the upcoming attempt no.
  bool hedge = false;  // deadline-breach rescue, route to a different node
  int node_offset = 0;  // 0 = the database's home node; hedges pass 1
  EpochSeconds enqueued_at = 0;
  /// Dispatch identity for the transport layer: (epoch << 32) | seq.
  /// Node-side dedup and ack matching key; 0 only before dispatch.
  uint64_t request_id = 0;
};

/// Per-class slice of the mitigation accounting.  The invariant holds
/// class by class:
///   stuck == mitigated + incidents + failed_then_skipped
///            + failed_then_shed + (queued items of the class with
///                                  attempts > 0).
struct ClassDiagnostics {
  uint64_t enqueued = 0;
  uint64_t resumed = 0;
  uint64_t shed_admission = 0;  // refused at enqueue (breaker/brownout/full)
  uint64_t shed_evicted = 0;    // evicted from the queue by a higher class
  uint64_t stuck = 0;
  uint64_t mitigated = 0;
  uint64_t incidents = 0;
  uint64_t skipped_state_changed = 0;
  uint64_t failed_then_skipped = 0;
  uint64_t failed_then_shed = 0;   // failed first, then shed/evicted
  uint64_t deadline_breaches = 0;  // workflows that blew their deadline
  uint64_t hedged = 0;             // hedge attempts dispatched
  uint64_t hedge_wins = 0;         // hedge attempt itself succeeded

  uint64_t shed() const { return shed_admission + shed_evicted; }
};

/// Outcome counters of the diagnostics and mitigation runner (Section 7):
/// it monitors the proactive-resume queue, retries stuck workflows with
/// capped exponential backoff, sheds load through a circuit breaker when
/// the resume path is systematically failing, and raises an incident when
/// mitigation fails.
///
/// Accounting invariant (checked by tests): every workflow that failed at
/// least once is eventually accounted for exactly once —
///   stuck_workflows == mitigated + incidents + failed_then_skipped
///                      + failed_then_shed
///                      + (queued items with attempts > 0).
struct DiagnosticsReport {
  uint64_t observed_iterations = 0;
  size_t max_queue_depth = 0;
  uint64_t stuck_workflows = 0;      // required at least one retry
  uint64_t mitigated = 0;            // succeeded on retry
  uint64_t skipped_state_changed = 0;  // database resumed on its own
  uint64_t failed_then_skipped = 0;  // failed first, then state changed
  uint64_t failed_then_shed = 0;     // failed first, then shed by brownout
  uint64_t incidents = 0;            // retries exhausted -> on-call

  // Graceful-degradation telemetry.
  uint64_t backoff_retries_scheduled = 0;
  uint64_t backoff_delay_seconds_total = 0;  // sum of scheduled delays
  uint64_t shed_resumes = 0;          // dropped while the breaker was open
  uint64_t breaker_opens = 0;         // transitions into kOpen
  uint64_t breaker_state_changes = 0;  // all transitions

  // Overload-resilience telemetry (inert-zero unless the storm layer or
  // the multi-class queue is exercised).
  std::array<ClassDiagnostics, kNumResumeClasses> per_class;
  uint64_t storms_detected = 0;
  uint64_t slow_start_ticks = 0;     // iterations run under a quota
  uint64_t quota_deferrals = 0;      // drains deferred by the quota
  uint64_t catch_up_enqueued = 0;    // stale pre-warms swept at storm start
  uint64_t deleted_while_queued = 0;  // db vanished from the metadata store
  int max_brownout_level = 0;

  // Transport telemetry (inert-zero when dispatches return inline).
  uint64_t unacked_dispatches = 0;  // dispatches parked awaiting an ack
  uint64_t dispatch_timeouts = 0;   // ack never arrived; requeued unacked
  uint64_t late_acks = 0;           // ack after local resolution; no-op
  uint64_t stale_epoch_acks = 0;    // ack from a predecessor epoch; no-op

  // Failover telemetry (inert-zero without the node health tracker).
  uint64_t node_failovers = 0;     // journaled node-death declarations
  uint64_t failover_requeues = 0;  // databases re-placed off a dead node
  telemetry::Histogram queue_wait;          // enqueue -> first attempt
  telemetry::Histogram in_flight_duration;  // dispatch -> completion

  const ClassDiagnostics& cls(ResumeClass c) const {
    return per_class[static_cast<size_t>(c)];
  }

  /// Accumulates another report into this one (sharded-run merge):
  /// counters add, depth/level high-water marks take the max, and the
  /// wait/in-flight histograms merge bucket-wise.
  void Merge(const DiagnosticsReport& other);
};

/// The periodic proactive resume operation of the Management Service
/// (Algorithm 5), plus the workflow queue with stuck-workflow mitigation
/// and the overload-resilience layer (DESIGN.md section 8).
///
/// Each RunOnce(now):
///  1. selects physically paused databases whose predicted activity starts
///     within [now + k, now + k + period) from the metadata store,
///  2. enqueues a resume workflow per database into the bounded
///     multi-class priority queue (unless the circuit breaker is open or a
///     brownout level sheds the class, in which case the database simply
///     stays physically paused and resumes reactively), and
///  3. drains eligible queue entries in strict class-priority order by
///     invoking the resume callback.  A failed workflow is retried at a
///     later iteration after a capped exponential backoff with
///     deterministic jitter; `max_attempts` total attempts, then an
///     incident is raised.
///
/// Storms: when the detector trips (due-burst, login-spike, or breaker
/// recovery with a backlog), draining of the non-reactive classes is
/// throttled by a slow-start admission quota that doubles (with jitter)
/// every iteration instead of dumping the backlog onto freshly healed
/// nodes.  Reactive-login resumes are never throttled.
///
/// All scheduling is virtual-clock based: backoff deadlines, workflow
/// deadlines, and breaker cool-downs compare against the `now` passed in,
/// never against wall clock, so behavior is deterministic and
/// simulation-friendly.
///
/// The resume callback returns:
///   OK                  — resources allocated (LogicalPause entered),
///   FailedPrecondition  — the database is no longer physically paused
///                         (customer beat us to it); dropped silently,
///   anything else       — transient workflow failure; retried.
class ManagementService {
 public:
  using ResumeCallback =
      std::function<Status(const ResumeAttempt& attempt, EpochSeconds now)>;

  ManagementService(MetadataStore* metadata, ControlPlaneConfig config,
                    ResumeCallback resume, int max_attempts = 3);

  /// One iteration of the proactive resume operation.  Returns the number
  /// of databases proactively resumed in this iteration (the Figure 11
  /// metric; reactive and maintenance successes are counted per class but
  /// excluded here).  Set `use_sql_scan` to exercise the faithful SQL
  /// path.
  Result<uint64_t> RunOnce(EpochSeconds now, bool use_sql_scan = false);

  /// Admits a reactive-login resume: the customer is waiting, so the
  /// workflow is never bounded, shed, throttled, or breaker-gated.  A
  /// proactive workflow already queued for the same database is promoted:
  /// the old item is retired through the skipped_state_changed path of
  /// its own class and a fresh reactive workflow starts.
  Status EnqueueReactive(DbId db, EpochSeconds now);

  /// Admits a maintenance touch (lowest class; first to be shed).
  Status EnqueueMaintenance(DbId db, EpochSeconds now);

  // --- Failover (node death, DESIGN.md section 12) ---

  /// Journals a node-death declaration (kNodeDead).  The failover engine
  /// calls this once per declaration, before re-queueing the node's
  /// databases, so the decision itself is exactly-once across a plane
  /// crash mid-failover.
  Status NoteNodeDead(uint32_t node, EpochSeconds now);

  /// Re-places one database off a dead node: admitted as
  /// reactive-priority work (customer impact is live or imminent), never
  /// shed or throttled, journaled kAccepted|kJfFailover so replay
  /// restores it exactly once.  Deduplicates against work already
  /// queued, in flight, or on the wire for the database — a failover
  /// must never fork a second workflow.  Does NOT count as a reactive
  /// arrival (plane-initiated work must not feed the storm detector).
  Status EnqueueFailover(DbId db, EpochSeconds now);

  /// Drains the reactive class and runs the deadline watchdog without an
  /// Algorithm 5 selection — the between-iterations pump a login-path
  /// driver calls as reactive work arrives.  Returns reactive workflows
  /// completed synchronously.
  uint64_t Pump(EpochSeconds now);

  /// Marks an asynchronously completing workflow (a reactive resume whose
  /// resources arrive later) as done: clears the in-flight entry and
  /// records its duration.  Unknown ids are ignored.
  void CompleteWorkflow(DbId db, EpochSeconds now);

  // --- Asynchronous dispatch (transport layer, DESIGN.md section 11) ---
  //
  // When the resume callback returns Status::Pending, the dispatch is on
  // the wire and its outcome deferred: the workflow is parked in the
  // unacked set (journal-wise it is simply kDispatched-without-outcome,
  // the same reconcilable state a crash leaves behind) until the
  // transport reports one of the calls below.

  /// The node's verdict for dispatch `request_id` of `db` arrived.
  /// Applies exactly the outcome bookkeeping the synchronous path would
  /// have applied at dispatch time.  Unknown (db, request_id) pairs are
  /// counted as late acks and ignored.
  void OnDispatchAck(DbId db, uint64_t request_id, const Status& outcome,
                     EpochSeconds now);

  /// Dispatch `request_id` of `db` exhausted its transmission budget with
  /// no ack.  The outcome is UNKNOWN, so this is NOT a failure: the item
  /// is requeued for immediate redispatch with its attempt count
  /// unchanged (node-side dedup makes the redispatch safe), and a crash
  /// before the redispatch leaves the journaled kDispatched for recovery
  /// to reconcile.
  void OnDispatchTimeout(DbId db, uint64_t request_id, EpochSeconds now);

  /// An ack arrived for a dispatch that already resolved locally (hedge
  /// win, timeout requeue).  Telemetry only; no state transition.
  void NoteLateAck(DbId db);
  /// An ack arrived carrying a predecessor incarnation's epoch.
  /// Telemetry only; no state transition.
  void NoteStaleEpochAck(DbId db);

  /// Dispatches currently awaiting an ack.
  size_t unacked() const { return unacked_.size(); }
  /// True while a dispatch for `db` is on the wire awaiting its ack.  A
  /// completion driver should hold its resource-arrival signal for the db
  /// until the ack resolves — delivered earlier it would complete an
  /// in-flight entry that does not exist yet.
  bool IsUnacked(DbId db) const { return unacked_.count(db) != 0; }

  /// Number of databases resumed per iteration so far (box-plot source).
  const Summary& resumed_per_iteration() const {
    return resumed_per_iteration_;
  }
  const DiagnosticsReport& diagnostics() const { return diagnostics_; }
  uint64_t total_resumed() const { return total_resumed_; }
  const ControlPlaneConfig& config() const { return config_; }

  BreakerState breaker_state() const { return breaker_; }
  bool storm_active() const { return storm_active_; }
  /// Non-reactive drains allowed this iteration while a storm is active
  /// and admission control is on; 0 outside a throttled storm.
  uint64_t current_quota() const { return quota_this_iteration_; }
  /// Brownout level right now (0 = none, 3 = shedding all but reactive).
  int brownout_level() const { return ComputeBrownoutLevel(); }

  /// Queue depth right now (items awaiting attempt or backing off, all
  /// classes; in-flight asynchronous workflows are not queued).
  size_t pending_workflows() const;
  size_t queued(ResumeClass cls) const {
    return queues_[static_cast<size_t>(cls)].size();
  }
  size_t in_flight() const { return in_flight_.size(); }

  /// Queued items that have failed at least once (the open term of the
  /// accounting invariant), total and per class.
  size_t pending_failed() const;
  size_t pending_failed(ResumeClass cls) const;

  /// True when the aggregate AND every per-class accounting invariant
  /// reconciles against the live queues.
  bool AccountingReconciles() const;

  /// Backoff before retry attempt `attempt` (1-based) of `db`:
  /// min(cap, base * 2^(attempt-1)) plus deterministic jitter.  Exposed
  /// for tests asserting the schedule.
  DurationSeconds BackoffDelay(DbId db, int attempt) const;

  /// Deadline budget of a class (meaningful with deadline hedging on).
  DurationSeconds DeadlineFor(ResumeClass cls) const;

  // --- Durability & recovery (DESIGN.md section 10) ---

  /// Attaches the control-plane journal: every externally visible
  /// transition is journaled before it takes effect, and the service
  /// fences itself (refusing all further work) the moment an append
  /// fails.  Without a journal (nullptr) the same transitions apply
  /// without being appended.
  void AttachJournal(ControlPlaneJournal* journal) { journal_ = journal; }

  /// Incarnation number, bumped by every recovery; workflow identity for
  /// cross-incarnation dedup is (db, epoch).
  void set_epoch(uint64_t epoch) { epoch_ = epoch; }
  uint64_t epoch() const { return epoch_; }

  /// True once a journal append failed or an injected crash fired inside
  /// an operation: the control plane is dead.  Every entry point refuses
  /// (nothing is acknowledged after the journal stopped recording), and
  /// the owner must recover from disk.
  bool fenced() const { return fenced_; }
  const Status& fence_status() const { return fence_status_; }

  /// Applies one replayed journal record during recovery: finds the
  /// record's queued item, makes the checks only replay can make, and
  /// applies the transition exactly as the live path did.  Called on a
  /// freshly constructed (or checkpoint-restored) service, and by
  /// FinishRecovery for its own reconcile records; it never journals.
  Status ApplyForRecovery(const JournalRecord& rec);

  struct ReconcileStats {
    uint64_t completed = 0;           // unacked dispatch found resumed
    uint64_t requeued = 0;            // unacked dispatch found not resumed
    uint64_t in_flight_requeued = 0;  // in-flight resume lost by the node
  };

  /// Final recovery step: resolves dispatched-but-unacked workflows
  /// against the simulated node state (`node_resumed`) so nothing is lost
  /// and nothing is double-resumed, and re-arms a conservative
  /// degradation posture (an open breaker stays open, the outcome window
  /// restarts empty, a storm in progress restarts its slow-start ramp).
  /// Reconcile decisions are journaled, so a crash during or after
  /// recovery replays them instead of re-deciding.
  ReconcileStats FinishRecovery(const std::function<bool(DbId)>& node_resumed,
                                EpochSeconds now);

 private:
  struct WorkItem {
    DbId db;
    ResumeClass cls = ResumeClass::kImminentProactive;
    int attempts = 0;
    EpochSeconds not_before = 0;  // backoff deadline (virtual clock)
    EpochSeconds enqueued_at = 0;
    EpochSeconds deadline = 0;  // 0 = none
    bool hedged = false;        // the single hedge has been spent
    bool wait_recorded = false;  // queue-wait histogram sampled
  };

  /// A dispatched workflow whose completion arrives asynchronously
  /// (reactive resumes when deadline hedging is on).
  struct InFlightItem {
    ResumeClass cls = ResumeClass::kReactiveLogin;
    int attempts = 0;
    EpochSeconds started = 0;
    EpochSeconds deadline = 0;
    bool hedged = false;
  };

  /// One dispatched workflow awaiting its verdict: built for every
  /// dispatch, and parked in the unacked set when the resume callback
  /// returned kPending (the request is on the wire, the outcome
  /// unknown).  The item carries the full queued state so the verdict
  /// applies exactly as an inline one and a timeout can requeue it
  /// unchanged.
  struct UnackedDispatch {
    WorkItem item;
    uint64_t request_id = 0;        // the primary dispatch
    uint64_t hedge_request_id = 0;  // a watchdog hedge, if one was spent
    bool gated = false;            // dispatch counted against the breaker
    bool half_open_probe = false;  // dispatched as a half-open probe
    bool hedge_dispatch = false;   // the primary dispatch was itself a hedge
    /// A reactive login arrived while unacked: on resolution the database
    /// is promoted to (or re-enqueued as) reactive instead of its class.
    bool reactive_interest = false;
  };

  static size_t Idx(ResumeClass cls) { return static_cast<size_t>(cls); }
  ClassDiagnostics& Cls(ResumeClass cls) {
    return diagnostics_.per_class[Idx(cls)];
  }

  size_t NonReactiveQueued() const;
  int ComputeBrownoutLevel() const;
  bool ClassAdmittedAt(ResumeClass cls, int level) const;

  /// Full admission pipeline of a fresh non-reactive workflow: breaker
  /// shed, brownout shed, capacity bound with lower-class eviction.
  void AdmitNonReactive(DbId db, ResumeClass cls, EpochSeconds now,
                        bool catch_up = false);
  /// Frees one capacity slot by evicting the newest item of the lowest
  /// class strictly below `cls`; false if no lower-class item exists.
  bool EvictLowerClass(ResumeClass cls, EpochSeconds now);
  void EnqueueItem(DbId db, ResumeClass cls, EpochSeconds now,
                   int brownout_level = -1, bool catch_up = false,
                   bool failover = false);
  /// Retires a queued item without an attempt (promotion, deletion) via
  /// the skipped_state_changed path of its class.
  void RetireSkipped(const WorkItem& item, bool deleted = false);
  /// Retires the queued item of `db` in the queue of `cls` and removes it
  /// from the queue (class upgrade, promotion).
  void RetireQueued(ResumeClass cls, DbId db);

  /// Next dispatch identity: (epoch << 32) | ++dispatch_seq_.  Pure
  /// counter — draws no randomness, so assigning ids never perturbs the
  /// deterministic schedule.
  uint64_t NextRequestId() { return (epoch_ << 32) | ++dispatch_seq_; }
  /// Applies a node verdict to a dispatch, whether it returned inline
  /// (DrainClass) or arrived on the wire: journals the outcome, applies
  /// it, runs the breaker bookkeeping of the dispatch-time posture, and
  /// requeues a retry.  `is_hedge` marks the verdict as the hedge's.
  /// Returns false when the service fenced before an ok or failed outcome
  /// was journaled; the caller then still holds the item.
  bool ApplyVerdict(UnackedDispatch& u, bool is_hedge, const Status& outcome,
                    EpochSeconds now);
  /// Settles the verdict of one side of an unacked dispatch: a transient
  /// nack waits for the other side of a hedged pair; anything else takes
  /// the dispatch off the wire and applies the verdict.
  void SettleUnacked(std::unordered_map<DbId, UnackedDispatch>::iterator it,
                     bool is_hedge, const Status& outcome, EpochSeconds now);
  /// Puts an item back at the tail of its queue after a dispatch; a login
  /// absorbed while it was on the wire promotes it to reactive.
  void Requeue(const WorkItem& item, bool reactive_interest, EpochSeconds now);
  /// Promotes a queued non-reactive item of `db` to a fresh reactive
  /// workflow (retire + re-enqueue), shared by EnqueueReactive and the
  /// unacked resolution paths.
  void PromoteToReactive(DbId db, EpochSeconds now);

  /// Drains up to the queue length of `cls` at entry; `quota` (when
  /// non-null) is the shared slow-start budget across the non-reactive
  /// classes.  Returns successful attempts.
  uint64_t DrainClass(ResumeClass cls, EpochSeconds now, uint64_t* quota);
  /// Hedges in-flight and unacked workflows past their deadline (one
  /// hedge each).
  void Watchdog(EpochSeconds now);
  /// Journals, applies and dispatches the hedge of one overdue workflow:
  /// `item` is an unacked dispatch's item (nullptr: an in-flight resume),
  /// and `request_id` receives the hedge's id before it is sent.  Returns
  /// the hedge's inline verdict, or nullopt once the service fenced.
  std::optional<Status> SendHedge(DbId db, ResumeClass cls, int attempt_no,
                                  EpochSeconds enqueued_at, WorkItem* item,
                                  uint64_t* request_id, EpochSeconds now);

  void MaybeStartStorm(EpochSeconds now);
  /// Re-enqueues missed pre-warms (stale predicted starts) at storm
  /// start.
  void CatchUpSweep(EpochSeconds now);

  /// Records a success/failure outcome in the breaker window and opens
  /// the breaker when the failure ratio crosses the threshold.
  void RecordOutcome(bool success, EpochSeconds now);
  void SetBreaker(BreakerState next, EpochSeconds now);

  /// Journals one record (journal-before-apply).  Returns true when the
  /// caller may apply the transition; false when the service just fenced
  /// (append failed or an injected crash fired) — the caller must apply
  /// NOTHING and unwind.  Without an attached journal nothing is
  /// appended and this returns true.
  bool Journal(JournalRecord rec);
  /// Applies one journaled transition to the counters, the queue index,
  /// the in-flight set and the storm and breaker state — the one apply
  /// step of every service event, shared by the live path and replay.
  /// `item` is the workflow's item where the event needs it: the live
  /// path passes the item it holds, replay the one it looked up.  Apply
  /// never adds or removes queue entries for an existing item; the
  /// caller places them.
  void Apply(const JournalRecord& rec, WorkItem* item = nullptr);
  void Fence(const Status& status);
  /// Locates a queued item of `cls` by database id; nullptr if absent.
  WorkItem* FindQueued(ResumeClass cls, DbId db);
  /// Removes the queued item of `db` from the queue of `cls` (copied to
  /// `out` when non-null), searching from the back when `from_back`.
  /// False if absent.
  bool TakeQueued(ResumeClass cls, DbId db, WorkItem* out,
                  bool from_back = false);

  MetadataStore* metadata_;
  ControlPlaneConfig config_;
  ResumeCallback resume_;
  int max_attempts_;
  /// One FIFO deque per class, drained in class order; with a single
  /// populated class the drain is exactly the pre-storm FIFO.
  std::array<std::deque<WorkItem>, kNumResumeClasses> queues_;
  /// Databases currently queued, with their class: selection windows of
  /// consecutive iterations overlap, so a database backing off after a
  /// failure would otherwise be re-enqueued as a duplicate fresh
  /// workflow; the class enables reactive promotion.
  std::unordered_map<DbId, ResumeClass> queued_dbs_;
  std::unordered_map<DbId, InFlightItem> in_flight_;
  /// Dispatches on the wire awaiting an ack (kPending callback results).
  std::unordered_map<DbId, UnackedDispatch> unacked_;
  uint64_t dispatch_seq_ = 0;
  /// Asynchronously acked proactive successes since the last RunOnce,
  /// folded into that iteration's resumed count (and its journaled
  /// kIteration stats) so replay stays exact.
  uint64_t async_resumed_pending_ = 0;
  Summary resumed_per_iteration_;
  DiagnosticsReport diagnostics_;
  uint64_t total_resumed_ = 0;

  BreakerState breaker_ = BreakerState::kClosed;
  std::deque<bool> outcomes_;       // sliding window, true = failure
  size_t window_failures_ = 0;
  EpochSeconds breaker_opened_at_ = 0;
  int half_open_probes_issued_ = 0;
  int half_open_successes_ = 0;

  // Storm machinery.
  bool storm_active_ = false;
  uint64_t storm_seq_ = 0;  // jitter key: distinct storms ramp differently
  int ramp_step_ = 0;
  uint64_t quota_this_iteration_ = 0;
  /// End time of the last storm (cooldown anchor); far past initially.
  EpochSeconds storm_ended_at_;
  uint64_t reactive_arrivals_ = 0;  // since the last RunOnce

  // Durability & recovery state (inert when journal_ == nullptr).
  ControlPlaneJournal* journal_ = nullptr;
  uint64_t epoch_ = 0;
  bool fenced_ = false;
  Status fence_status_ = Status::OK();
  /// Databases with a journaled kDispatched but no journaled outcome yet,
  /// populated only during replay; FinishRecovery resolves them against
  /// the node state.  Value: the class the dispatch targeted.
  std::unordered_map<DbId, ResumeClass> recovery_pending_;

  friend struct ServiceStateCodec;
};

}  // namespace prorp::controlplane

#endif  // PRORP_CONTROLPLANE_MANAGEMENT_SERVICE_H_
