#include "sim/fleet_simulator.h"

#include <algorithm>
#include <memory>

#include "common/arena.h"
#include "common/backoff.h"
#include "common/random.h"
#include "controlplane/durable_control_plane.h"
#include "controlplane/failover.h"
#include "controlplane/node_health.h"
#include "forecast/fast_predictor.h"
#include "history/mem_history_store.h"
#include "history/null_history_store.h"
#include "history/sql_history_store.h"
#include "net/dispatcher.h"
#include "net/node_agent.h"
#include "net/transport.h"
#include "sim/resume_capacity.h"
#include "sim/timer_wheel.h"
#include "telemetry/usage_ledger.h"

namespace prorp::sim {
namespace {

using controlplane::MetadataStore;
using history::MemHistoryStore;
using policy::DbState;
using policy::LifecycleController;
using policy::PolicyMode;
using policy::TransitionCause;
using telemetry::DbId;
using telemetry::EventKind;
using telemetry::Phase;

// The failure detector's timing (DESIGN.md section 12): lease period and
// TTL, silence before suspect, grace before dead, cooldown before rejoin.
constexpr DurationSeconds kLeaseInterval = 60;
constexpr DurationSeconds kLeaseTtl = 240;
constexpr DurationSeconds kSuspectAfter = 150;
constexpr DurationSeconds kDeadGrace = 120;
constexpr DurationSeconds kRejoinAfter = 600;

enum class SimEventType : uint8_t {
  kDbCreated,        // first session begins; controller constructed
  kAllocationSample,  // periodic concurrent-allocation census
  kSessionEnd,       // customer workload completes
  kSessionStart,     // subsequent customer login
  kTimer,            // lifecycle controller wait-condition re-check
  kResumeOpTick,     // periodic proactive resume operation
  kScrubTick,        // periodic integrity scrub of SQL-backed histories
  kEviction,         // capacity-pressure reclamation attempt
  kResumeLatencyDone,  // reactive resume finished; resources usable
  kMeasureStart,     // KPI window begins: swap ledger/recorder
  kPumpTick,         // storm layer: periodic reactive drain + watchdog
  kMaintenanceTick,  // storm layer: enqueue background maintenance load
  kControlPlaneCrash,  // durable mode: simulated control-plane death
  kLeaseTick,        // transport: lease renewals, retransmits, failover
  kNodeCrash,        // injected node death: agent deaf, resources lost
  kNodeRestart,      // the crashed node's process returns
  kFailoverPlaced,   // a failover re-placement finished on a survivor
};

/// Deterministic per-node outage windows over [0, end), derived from the
/// run seed and the node index alone.
class OutageSchedule {
 public:
  static OutageSchedule Build(const SimOptions& options) {
    OutageSchedule schedule;
    bool random_on = options.num_nodes > 0 &&
                     options.outage_rate_per_day > 0 &&
                     options.outage_duration > 0;
    bool fleet_on = options.fleet_outage_duration > 0 &&
                    options.fleet_outage_at < options.end;
    if (!random_on && !fleet_on) return schedule;
    size_t num_nodes =
        options.num_nodes > 0 ? static_cast<size_t>(options.num_nodes) : 1;
    schedule.nodes_.resize(num_nodes);
    if (random_on) {
      double mean_gap = static_cast<double>(kSecondsPerDay) /
                        options.outage_rate_per_day;
      for (size_t node = 0; node < schedule.nodes_.size(); ++node) {
        Rng rng(options.seed ^
                (0xA24BAED4963EE407ULL * (static_cast<uint64_t>(node) + 1)));
        EpochSeconds t = 0;
        for (;;) {
          t += static_cast<DurationSeconds>(rng.NextExponential(mean_gap));
          if (t >= options.end) break;
          EpochSeconds down_until =
              std::min(t + options.outage_duration, options.end);
          schedule.nodes_[node].push_back({t, down_until});
          t = down_until;
        }
      }
    }
    if (fleet_on) {
      // The fleet-wide correlated window hits every node; overlapping
      // windows are merged below so DownAt's prev-window invariant holds.
      EpochSeconds at = std::max<EpochSeconds>(0, options.fleet_outage_at);
      EpochSeconds until =
          std::min(at + options.fleet_outage_duration, options.end);
      for (auto& wins : schedule.nodes_) wins.push_back({at, until});
    }
    for (auto& wins : schedule.nodes_) {
      std::sort(wins.begin(), wins.end());
      std::vector<std::pair<EpochSeconds, EpochSeconds>> merged;
      for (const auto& w : wins) {
        if (!merged.empty() && w.first <= merged.back().second) {
          merged.back().second = std::max(merged.back().second, w.second);
        } else {
          merged.push_back(w);
        }
      }
      wins = std::move(merged);
      for (const auto& w : wins) {
        ++schedule.windows_;
        schedule.seconds_ += static_cast<uint64_t>(w.second - w.first);
      }
    }
    return schedule;
  }

  bool enabled() const { return !nodes_.empty(); }
  uint64_t windows() const { return windows_; }
  uint64_t seconds() const { return seconds_; }

  bool DownAt(size_t node, EpochSeconds t) const {
    return DownUntil(node, t) != 0;
  }

  /// End of the outage window covering t on the node, or 0 when the node
  /// is up at t.
  EpochSeconds DownUntil(size_t node, EpochSeconds t) const {
    const auto& wins = nodes_[node % nodes_.size()];
    // First window starting after t; the one before it is the only
    // candidate containing t (windows are merged, hence disjoint).
    auto it = std::upper_bound(
        wins.begin(), wins.end(), t,
        [](EpochSeconds v, const std::pair<EpochSeconds, EpochSeconds>& w) {
          return v < w.first;
        });
    if (it != wins.begin() && t < std::prev(it)->second) {
      return std::prev(it)->second;
    }
    return 0;
  }

 private:
  std::vector<std::vector<std::pair<EpochSeconds, EpochSeconds>>> nodes_;
  uint64_t windows_ = 0;
  uint64_t seconds_ = 0;
};

struct SimEvent {
  EpochSeconds time;
  uint64_t seq;  // FIFO tiebreaker for simultaneous events
  SimEventType type;
  DbId db;
  uint64_t aux;  // session index or generation stamp
};

/// One discrete-event simulation over the whole fleet.
///
/// Per-database runtime state lives in parallel arrays (struct-of-arrays)
/// instead of one heap-allocated runtime object per database: the event
/// loop's per-tick working set touches only the few fields the handler
/// needs, and the controllers and history stores are arena-packed so
/// same-kind objects stay contiguous.
class FleetSimulation {
 public:
  FleetSimulation(const workload::TraceSource& source,
                  const SimOptions& options)
      : source_(&source),
        num_dbs_(source.num_dbs()),
        options_(options),
        rng_(options.seed) {}

  Result<SimReport> Run();

 private:
  void Push(EpochSeconds time, SimEventType type, DbId db, uint64_t aux) {
    SimEvent e{time, seq_++, type, db, aux};
    // A handler pushing into the tick being processed (an inline resume
    // completing "now") appends to the tick buffer: its seq is larger
    // than every event already buffered, which is exactly where a strict
    // (time, seq) priority queue would pop it.
    if (time <= tick_time_) {
      tick_.push_back(e);
    } else {
      queue_.Push(e);
    }
  }

  /// Re-schedules the controller's requested timer if it changed.  A
  /// cancelled timer (NextTimerAt() == 0, e.g. on physical pause) clears
  /// the bookkeeping so the already-queued event is recognized as stale:
  /// otherwise a later legitimate timer at the same timestamp would be
  /// silently consumed by HandleTimer's staleness check.
  void SyncTimer(DbId db) {
    EpochSeconds t = controllers_[db]->NextTimerAt();
    if (t == 0) {
      scheduled_timer_[db] = 0;
      return;
    }
    if (t != scheduled_timer_[db] ||
        scheduled_timer_gen_[db] != generation_[db]) {
      scheduled_timer_[db] = t;
      scheduled_timer_gen_[db] = generation_[db];
      Push(t, SimEventType::kTimer, db, generation_[db]);
    }
  }

  void RecordEvent(EpochSeconds time, DbId db, EventKind kind) {
    counts_.Add(kind);
    if (recorder_ != nullptr) recorder_->Record(time, db, kind);
  }

  void SetPhase(DbId db, Phase phase, EpochSeconds time) {
    bool was_allocated = current_phase_[db] != Phase::kReclaimed;
    bool is_allocated = phase != Phase::kReclaimed;
    if (is_allocated && !was_allocated) ++allocated_now_;
    if (!is_allocated && was_allocated) --allocated_now_;
    ledger_->SetPhase(db, phase, time);
    current_phase_[db] = phase;
  }

  /// Lifecycle transition hook: metadata store, telemetry, ledger phases,
  /// eviction scheduling, reactive-resume latency.
  void OnTransition(DbId db, const policy::TransitionEvent& e);

  /// Home node of a database (its id modulo the node count).
  size_t NodeOf(DbId db) const {
    return static_cast<size_t>(db) %
           static_cast<size_t>(std::max(1, options_.num_nodes));
  }

  Status HandleDbCreated(const SimEvent& ev);
  Status HandleSessionStart(const SimEvent& ev);
  Status HandleSessionEnd(const SimEvent& ev);
  Status HandleTimer(const SimEvent& ev);
  Status HandleResumeOpTick(const SimEvent& ev);
  Status HandleScrubTick(const SimEvent& ev);
  Status HandleEviction(const SimEvent& ev);
  Status HandleResumeLatencyDone(const SimEvent& ev);
  void HandleMeasureStart(const SimEvent& ev);
  Status HandlePumpTick(const SimEvent& ev);
  Status HandleMaintenanceTick(const SimEvent& ev);
  Status HandleControlPlaneCrash(const SimEvent& ev);
  Status HandleLeaseTick(const SimEvent& ev);
  Status HandleNodeCrash(const SimEvent& ev);
  Status HandleNodeRestart(const SimEvent& ev);

  /// True when a run models node loss (failure detection or an injected
  /// node crash): the lease loop ticks and crash-evicted databases are
  /// tracked for failover.
  bool node_loss_modeled() const {
    return options_.failure_detection_enabled ||
           options_.node_crash_node >= 0;
  }

  bool full_telemetry() const {
    return options_.telemetry == SimOptions::Telemetry::kFull;
  }

  /// The node-side resume executor each per-node agent runs: `node` is
  /// the 0-based node actually running the attempt (the home node, or
  /// the dispatch target under failover).  Failure draws come from the
  /// member RNG so the stream continues across a simulated control-plane
  /// restart.
  Status ExecuteResume(const controlplane::ResumeAttempt& a,
                       EpochSeconds now, size_t node);

  /// A reactive-class attempt with no waiting login: either a failover
  /// re-placement of a crash-evicted database (re-warm it on `node`) or
  /// a genuinely stale workflow (refuse it).
  Status ExecuteFailoverPlacement(const controlplane::ResumeAttempt& a,
                                  EpochSeconds now, size_t node);

  /// Builds the dispatcher, one agent per node, and the health tracker
  /// and failover engine when failure detection is enabled.
  void BuildTransport();

  /// Opens (or, after a crash, recovers) the control plane, then repoints
  /// metadata_/management_, the dispatcher, the agents' fences and the
  /// failover engine at the new incarnation.
  Status OpenControlPlane(EpochSeconds now);

  const workload::TraceSource* source_;
  size_t num_dbs_;
  SimOptions options_;
  Rng rng_;

  TimerWheel<SimEvent> queue_;
  uint64_t seq_ = 0;
  /// Events of the tick currently being processed, ascending seq;
  /// handlers may append same-tick events while it drains.
  std::vector<SimEvent> tick_;
  /// Time of the tick being processed (-1 outside the event loop, so
  /// setup-phase pushes always go to the queue).
  EpochSeconds tick_time_ = -1;
  uint64_t events_processed_ = 0;

  OutageSchedule outages_;
  telemetry::RobustnessReport robustness_;
  /// Storm layer (null when disabled): finite per-node resume capacity.
  std::unique_ptr<NodeCapacityModel> capacity_;
  /// Reactive login-to-resources delays inside the measurement window.
  Summary login_delay_;
  telemetry::Histogram login_delay_hist_;
  /// Round-robin cursor of the maintenance sweep.
  DbId maint_cursor_ = 0;

  // --- Struct-of-arrays per-database state (indexed by database id).
  // Arena pools own the controllers and in-memory history stores; the
  // parallel vectors below hold raw pointers plus the hot scheduling
  // fields the event handlers actually touch.
  ArenaPool<LifecycleController> controller_pool_;
  ArenaPool<MemHistoryStore> mem_history_pool_;
  history::NullHistoryStore null_history_;
  std::vector<LifecycleController*> controllers_;  // null until created
  std::vector<history::HistoryStore*> history_;
  /// Concrete views of SQL-backed stores (scrubber + integrity rollup);
  /// allocated only when options_.sql_history_count > 0.
  std::vector<history::SqlHistoryStore*> sql_history_;
  std::vector<std::unique_ptr<history::SqlHistoryStore>> owned_sql_;
  /// Bumped on every lifecycle transition; stamps scheduled timer,
  /// eviction, and resume-latency events so stale ones are dropped.
  std::vector<uint64_t> generation_;
  std::vector<EpochSeconds> scheduled_timer_;
  std::vector<uint64_t> scheduled_timer_gen_;
  /// Capacity-pressure hazard streams, one per database, seeded from the
  /// run seed and the database id; empty when eviction is disabled.
  std::vector<Rng> eviction_rng_;
  /// Storm layer: time of the reactive login currently waiting for
  /// resources (0 = none) and the generation it was issued under, so the
  /// first matching completion event records the login delay exactly once
  /// (a hedge produces a second, ignored, completion).  Empty when the
  /// storm layer is disabled.
  std::vector<EpochSeconds> reactive_login_at_;
  std::vector<uint64_t> reactive_login_gen_;
  /// Per-database session stream and the end of the most recently
  /// scheduled session (what the kSessionStart/kSessionEnd handlers
  /// need); a cursor is released as soon as its trace is exhausted.
  std::vector<std::unique_ptr<workload::SessionCursor>> cursors_;
  std::vector<EpochSeconds> cur_session_end_;
  std::vector<Phase> current_phase_;

  int64_t allocated_now_ = 0;
  Summary allocated_samples_;
  std::unique_ptr<forecast::FastPredictor> predictor_;
  /// The control plane, journaled when control_plane_journal_dir is set;
  /// all handlers go through the raw pointers below so a mid-run recovery
  /// only has to swap what they point at.
  std::unique_ptr<controlplane::DurableControlPlane> plane_;
  MetadataStore* metadata_ = nullptr;
  controlplane::ManagementService* management_ = nullptr;
  /// Message transport between the service and the node executor.
  /// Fault-free and inline, so every dispatch resolves synchronously; the
  /// stack outlives control-plane recoveries and is re-pointed at each
  /// new incarnation.
  net::InProcessTransport transport_;
  std::unique_ptr<net::TransportDispatcher> dispatcher_;
  /// One agent per node at endpoints 1..max(1, num_nodes), plus the
  /// lease-driven health tracker and failover engine when failure
  /// detection is enabled.
  std::vector<std::unique_ptr<net::NodeAgent>> agents_;
  std::unique_ptr<controlplane::NodeHealthTracker> tracker_;
  std::unique_ptr<controlplane::FailoverEngine> engine_;
  /// Databases force-evicted by a node crash and not yet re-placed; the
  /// failover engine enumerates these for the dead node.
  std::vector<uint8_t> crash_evicted_;
  /// Failover-engine requeue count after the previous lease tick, so the
  /// tick only pumps the service when the engine actually enqueued work
  /// (a fault-free run must not see extra pumps).
  uint64_t failover_requeued_seen_ = 0;
  Rng failure_rng_{0};
  uint64_t cp_recoveries_ = 0;
  uint64_t cp_last_replayed_ = 0;
  /// Resume ticks skipped because the service was idle (IdleAt) and not
  /// yet handed to a RunOnce, and all skipped so far.
  uint64_t idle_ticks_held_ = 0;
  uint64_t resume_ticks_skipped_ = 0;
  std::unique_ptr<telemetry::UsageLedger> ledger_;
  telemetry::EventCounts counts_;
  /// Null under Telemetry::kStreaming — events are counted, not buffered.
  std::unique_ptr<telemetry::Recorder> recorder_;
};

void FleetSimulation::OnTransition(DbId db,
                                   const policy::TransitionEvent& e) {
  ++generation_[db];
  // Algorithm 1 line 31: persist the predicted start in the metadata
  // store when physically pausing (0 when no prediction).
  (void)metadata_->UpsertState(db, e.to, e.prediction.start);

  switch (e.to) {
    case DbState::kResumed:
      // Login events themselves are recorded in HandleSessionStart (one
      // per first-login-after-idle); here only phases are tracked.
      if (e.cause == TransitionCause::kReactiveResume) {
        // Resources take resume_latency to come back; the customer waits.
        SetPhase(db, Phase::kUnavailable, e.time);
        if (options_.storm_layer_enabled()) {
          // The reactive resume routes through the control plane's
          // multi-class queue and the finite node capacity: the delay is
          // base service time plus whatever congestion the node has.
          reactive_login_at_[db] = e.time;
          reactive_login_gen_[db] = generation_[db];
          (void)management_->EnqueueReactive(db, e.time);
          (void)management_->Pump(e.time);
        } else {
          Push(e.time + options_.resume_latency,
               SimEventType::kResumeLatencyDone, db, generation_[db]);
        }
      } else {
        SetPhase(db, Phase::kActive, e.time);
      }
      break;
    case DbState::kLogicallyPaused:
      if (e.cause == TransitionCause::kProactiveResume) {
        RecordEvent(e.time, db, EventKind::kProactiveResume);
        SetPhase(db, Phase::kIdleProactive, e.time);
      } else {
        RecordEvent(e.time, db, EventKind::kLogicalPause);
        SetPhase(db, Phase::kIdleLogical, e.time);
      }
      if (options_.eviction_per_hour > 0) {
        double mean_seconds = 3600.0 / options_.eviction_per_hour;
        EpochSeconds at =
            e.time + static_cast<DurationSeconds>(
                         eviction_rng_[db].NextExponential(mean_seconds));
        if (at < options_.end) {
          Push(at, SimEventType::kEviction, db, generation_[db]);
        }
      }
      break;
    case DbState::kPhysicallyPaused:
      RecordEvent(e.time, db, EventKind::kPhysicalPause);
      if (e.cause == TransitionCause::kForcedEviction) {
        RecordEvent(e.time, db, EventKind::kForcedEviction);
      }
      SetPhase(db, Phase::kReclaimed, e.time);
      break;
  }
}

Status FleetSimulation::HandleDbCreated(const SimEvent& ev) {
  DbId db = ev.db;
  if (static_cast<uint64_t>(db) < options_.sql_history_count) {
    // The real SQL stack (ephemeral: no on-disk directory per simulated
    // database, but the full B+tree/buffer-pool/checksum path runs).
    PRORP_ASSIGN_OR_RETURN(auto sql_store, history::SqlHistoryStore::Open());
    sql_history_[db] = sql_store.get();
    history_[db] = sql_store.get();
    owned_sql_.push_back(std::move(sql_store));
  } else if (options_.use_null_history) {
    // Reactive/always-on controllers write history but never read it:
    // one shared no-op store serves the whole fleet.
    history_[db] = &null_history_;
  } else {
    history_[db] = mem_history_pool_.Emplace();
  }
  if (!eviction_rng_.empty()) {
    eviction_rng_[db].Seed(options_.seed ^
                           (0x9E3779B97F4A7C15ULL *
                            (static_cast<uint64_t>(db) + 1)));
  }
  const forecast::Predictor* predictor =
      options_.mode == PolicyMode::kProactive ? predictor_.get() : nullptr;
  controllers_[db] = controller_pool_.Emplace(
      options_.config.policy, options_.mode, history_[db], predictor,
      ev.time, [this, db](const policy::TransitionEvent& e) {
        OnTransition(db, e);
      });
  PRORP_RETURN_IF_ERROR(metadata_->UpsertState(db, DbState::kResumed, 0));
  // A creation login is not a "first login after an idle interval", so it
  // does not enter the QoS statistics.
  SetPhase(db, Phase::kActive, ev.time);
  // The creation login is session 0; its end is the next event.
  Push(cur_session_end_[db], SimEventType::kSessionEnd, db, 0);
  return Status::OK();
}

Status FleetSimulation::HandleSessionStart(const SimEvent& ev) {
  PRORP_ASSIGN_OR_RETURN(policy::LoginOutcome outcome,
                         controllers_[ev.db]->OnActivityStart(ev.time));
  if (outcome == policy::LoginOutcome::kReactiveResume) {
    RecordEvent(ev.time, ev.db, EventKind::kLoginReactive);
  } else if (outcome == policy::LoginOutcome::kResourcesAvailable) {
    RecordEvent(ev.time, ev.db, EventKind::kLoginAvailable);
    if (options_.mode == PolicyMode::kAlwaysOn) {
      SetPhase(ev.db, Phase::kActive, ev.time);  // no FSM transition fires
    }
  }
  SyncTimer(ev.db);
  Push(cur_session_end_[ev.db], SimEventType::kSessionEnd, ev.db, ev.aux);
  return Status::OK();
}

Status FleetSimulation::HandleSessionEnd(const SimEvent& ev) {
  PRORP_RETURN_IF_ERROR(controllers_[ev.db]->OnActivityEnd(ev.time));
  RecordEvent(ev.time, ev.db, EventKind::kLogout);
  if (options_.mode == PolicyMode::kAlwaysOn) {
    // Resources stay allocated; the idle time is plain logical-pause idle.
    SetPhase(ev.db, Phase::kIdleLogical, ev.time);
  }
  SyncTimer(ev.db);
  workload::Session next;
  if (cursors_[ev.db] != nullptr && cursors_[ev.db]->Next(&next)) {
    cur_session_end_[ev.db] = next.end;
    Push(next.start, SimEventType::kSessionStart, ev.db, ev.aux + 1);
  } else {
    cursors_[ev.db].reset();  // trace exhausted: free the generator state
  }
  return Status::OK();
}

Status FleetSimulation::HandleTimer(const SimEvent& ev) {
  if (controllers_[ev.db] == nullptr) return Status::OK();
  if (scheduled_timer_[ev.db] != ev.time ||
      scheduled_timer_gen_[ev.db] != ev.aux) {
    return Status::OK();  // superseded or cancelled: this event is stale
  }
  scheduled_timer_[ev.db] = 0;  // this event is consumed either way
  if (controllers_[ev.db]->NextTimerAt() == ev.time) {
    PRORP_RETURN_IF_ERROR(controllers_[ev.db]->OnTimerCheck(ev.time));
  }
  SyncTimer(ev.db);
  return Status::OK();
}

Status FleetSimulation::HandleResumeOpTick(const SimEvent& ev) {
  EpochSeconds next =
      ev.time + options_.config.control_plane.resume_operation_period;
  const bool last = next >= options_.end;
  // An iteration that can only count itself is counted here instead; the
  // next RunOnce folds the count into its kIteration frame.  The run's
  // last tick always runs, so no count outlives the run, and the count
  // lives here rather than in the service so a plane crash keeps it.
  if (!last && management_->IdleAt(ev.time)) {
    ++idle_ticks_held_;
    ++resume_ticks_skipped_;
  } else {
    PRORP_RETURN_IF_ERROR(management_
                              ->RunOnce(ev.time,
                                        options_.use_sql_scan_for_resume_op,
                                        idle_ticks_held_)
                              .status());
    idle_ticks_held_ = 0;
  }
  PRORP_RETURN_IF_ERROR(plane_->MaybeCheckpoint());
  if (!last) Push(next, SimEventType::kResumeOpTick, 0, 0);
  return Status::OK();
}

Status FleetSimulation::HandleScrubTick(const SimEvent& ev) {
  for (history::SqlHistoryStore* store : sql_history_) {
    if (store == nullptr || store->quarantined()) continue;
    // A scrub failure must not kill the run: a dirty store repairs or
    // quarantines itself, and the integrity counters record the outcome.
    (void)store->Scrub();
  }
  EpochSeconds next = ev.time + options_.scrub_interval;
  if (next < options_.end) Push(next, SimEventType::kScrubTick, 0, 0);
  return Status::OK();
}

Status FleetSimulation::HandleEviction(const SimEvent& ev) {
  LifecycleController* controller = controllers_[ev.db];
  if (controller == nullptr || generation_[ev.db] != ev.aux) {
    return Status::OK();  // the pause this hazard was drawn for is over
  }
  if (controller->state() != DbState::kLogicallyPaused ||
      controller->active()) {
    return Status::OK();
  }
  PRORP_RETURN_IF_ERROR(controller->OnForcedEviction(ev.time));
  SyncTimer(ev.db);
  return Status::OK();
}

Status FleetSimulation::HandleResumeLatencyDone(const SimEvent& ev) {
  if (controllers_[ev.db] == nullptr) return Status::OK();
  if (options_.storm_layer_enabled() && reactive_login_at_[ev.db] > 0 &&
      ev.aux == reactive_login_gen_[ev.db]) {
    // First completion (original or hedge) wins; later ones fall through
    // to the generation check below and are dropped as stale.
    management_->CompleteWorkflow(ev.db, ev.time);
    if (reactive_login_at_[ev.db] >= options_.measure_from) {
      const EpochSeconds login_at = reactive_login_at_[ev.db];
      DurationSeconds delay = ev.time - login_at;
      if (full_telemetry()) login_delay_.Add(static_cast<double>(delay));
      login_delay_hist_.Add(delay);
      // Attribute the wait: did it start inside an outage window of the
      // home node (ride it out), or inside the node-crash window
      // (failover should have re-placed the database elsewhere)?
      const size_t home = NodeOf(ev.db);
      if (outages_.enabled() && outages_.DownAt(home, login_at)) {
        ++robustness_.outage_waited_logins;
        robustness_.outage_wait_seconds += static_cast<uint64_t>(delay);
      } else if (options_.node_crash_node >= 0 &&
                 home == static_cast<size_t>(options_.node_crash_node) &&
                 login_at >= options_.node_crash_at &&
                 (options_.node_crash_duration <= 0 ||
                  login_at <
                      options_.node_crash_at + options_.node_crash_duration)) {
        ++robustness_.failover_waited_logins;
        robustness_.failover_wait_seconds += static_cast<uint64_t>(delay);
      }
    }
    reactive_login_at_[ev.db] = 0;
  }
  if (generation_[ev.db] != ev.aux) return Status::OK();
  if (controllers_[ev.db]->active() &&
      current_phase_[ev.db] == Phase::kUnavailable) {
    SetPhase(ev.db, Phase::kActive, ev.time);
  }
  return Status::OK();
}

Status FleetSimulation::HandlePumpTick(const SimEvent& ev) {
  // Reactive work arriving between proactive iterations must not wait for
  // the next RunOnce: drain the reactive class and run the watchdog.
  (void)management_->Pump(ev.time);
  PRORP_RETURN_IF_ERROR(plane_->MaybeCheckpoint());
  EpochSeconds next =
      ev.time + options_.config.control_plane.resume_operation_period;
  if (next < options_.end) Push(next, SimEventType::kPumpTick, 0, 0);
  return Status::OK();
}

Status FleetSimulation::HandleMaintenanceTick(const SimEvent& ev) {
  // Enqueue up to maintenance_batch physically paused idle databases as
  // lowest-class touches, round-robin over the fleet slice.
  size_t enqueued = 0;
  for (size_t scanned = 0;
       scanned < num_dbs_ && enqueued < options_.maintenance_batch;
       ++scanned) {
    DbId db = maint_cursor_;
    maint_cursor_ = (maint_cursor_ + 1) % num_dbs_;
    if (controllers_[db] == nullptr ||
        controllers_[db]->state() != DbState::kPhysicallyPaused) {
      continue;
    }
    if (management_->EnqueueMaintenance(db, ev.time).ok()) ++enqueued;
  }
  EpochSeconds next = ev.time + options_.maintenance_interval;
  if (next < options_.end) Push(next, SimEventType::kMaintenanceTick, 0, 0);
  return Status::OK();
}

void FleetSimulation::HandleMeasureStart(const SimEvent& ev) {
  // Swap in a fresh ledger/recorder/counter set seeded with the current
  // phases: the warm-up period does not count toward the KPIs.  Like the
  // warm-up ledger, it keeps fleet totals only.
  auto fresh = std::make_unique<telemetry::UsageLedger>(
      num_dbs_, ev.time, /*track_per_db=*/false);
  for (DbId db = 0; db < num_dbs_; ++db) {
    if (controllers_[db] != nullptr) {
      fresh->SetPhase(db, current_phase_[db], ev.time);
    }
  }
  ledger_ = std::move(fresh);
  counts_ = telemetry::EventCounts();
  if (full_telemetry()) {
    recorder_ = std::make_unique<telemetry::Recorder>();
  }
}

Status FleetSimulation::ExecuteResume(const controlplane::ResumeAttempt& a,
                                      EpochSeconds now, size_t node) {
  if (a.node_offset != 0) {
    // Hedge: route to a different (least-loaded) node.
    node = capacity_ != nullptr
               ? capacity_->LeastLoadedOther(node, now)
               : (node + static_cast<size_t>(a.node_offset)) %
                     static_cast<size_t>(std::max(1, options_.num_nodes));
  }
  if (a.cls == controlplane::ResumeClass::kReactiveLogin) {
    const bool login_waiting =
        !reactive_login_at_.empty() && controllers_[a.db] != nullptr &&
        reactive_login_at_[a.db] != 0 &&
        current_phase_[a.db] == Phase::kUnavailable;
    if (!login_waiting) return ExecuteFailoverPlacement(a, now, node);
    // The customer's connection retry loop rides out outages and
    // congestion: the workflow never fails, it just takes longer.
    EpochSeconds blocked_until =
        outages_.enabled() ? outages_.DownUntil(node, now) : 0;
    NodeCapacityModel::Grant g = capacity_->Acquire(
        node, now, common::JitterHash(a.db, a.attempt), blocked_until,
        /*limited=*/false);
    Push(g.done, SimEventType::kResumeLatencyDone, a.db,
         reactive_login_gen_[a.db]);
    return Status::OK();
  }
  if (outages_.enabled() && outages_.DownAt(node, now)) {
    ++robustness_.resume_failures_outage;
    return Status::Unavailable("node outage");
  }
  if (a.cls == controlplane::ResumeClass::kMaintenance) {
    if (controllers_[a.db] == nullptr) {
      return Status::FailedPrecondition("database not yet created");
    }
    Status s = controllers_[a.db]->OnMaintenanceTouch(now);
    if (s.ok() && capacity_ != nullptr) {
      (void)capacity_->Acquire(node, now,
                               common::JitterHash(a.db, a.attempt), 0);
    }
    return s;
  }
  if (options_.resume_failure_probability > 0 &&
      failure_rng_.NextBool(options_.resume_failure_probability)) {
    ++robustness_.resume_failures_injected;
    return Status::Unavailable("injected workflow failure");
  }
  if (controllers_[a.db] == nullptr) {
    return Status::FailedPrecondition("database not yet created");
  }
  Status s = controllers_[a.db]->OnProactiveResume(now);
  if (s.ok()) {
    SyncTimer(a.db);
    if (capacity_ != nullptr) {
      // Pre-warms consume node capacity too — this is exactly the
      // coupling a naive post-outage catch-up abuses.
      (void)capacity_->Acquire(node, now,
                               common::JitterHash(a.db, a.attempt), 0);
    }
  }
  return s;
}

Status FleetSimulation::ExecuteFailoverPlacement(
    const controlplane::ResumeAttempt& a, EpochSeconds now, size_t node) {
  // A reactive-class attempt arriving with no login waiting is either a
  // failover re-placement — the crash evicted the database's warm
  // resources, and the engine re-queued it at reactive priority to
  // re-warm them on a survivor — or a genuinely stale workflow.
  LifecycleController* c = controllers_[a.db];
  if (c == nullptr || crash_evicted_.empty() || !crash_evicted_[a.db] ||
      c->state() != DbState::kPhysicallyPaused) {
    return Status::FailedPrecondition("login no longer waiting");
  }
  if (outages_.enabled() && outages_.DownAt(node, now)) {
    ++robustness_.resume_failures_outage;
    return Status::Unavailable("node outage");
  }
  Status s = c->OnProactiveResume(now);
  if (s.ok()) {
    crash_evicted_[a.db] = 0;
    SyncTimer(a.db);
    if (capacity_ != nullptr) {
      (void)capacity_->Acquire(node, now,
                               common::JitterHash(a.db, a.attempt), 0);
    }
    // Close the workflow once the re-placement lands (the login path
    // closes it from kResumeLatencyDone; there is no login here).
    Push(now, SimEventType::kFailoverPlaced, a.db, 0);
  }
  return s;
}

void FleetSimulation::BuildTransport() {
  // Real per-node endpoints: agent at endpoint i+1 serves node i.  The
  // resolver routes each attempt to its home node, diverting a
  // declared-dead node's work to the next live endpoint (the executor
  // still re-warms on the node it actually runs on, and picks a hedge's
  // target itself).
  const int n = std::max(1, options_.num_nodes);
  net::TransportDispatcher::Options dopt;
  dopt.first_node = 1;
  dopt.num_nodes = n;
  if (options_.failure_detection_enabled) {
    dopt.lease_interval = kLeaseInterval;
    dopt.lease_ttl = kLeaseTtl;
    controlplane::NodeHealthTracker::Options hopt;
    hopt.lease_ttl = kLeaseTtl;
    hopt.suspect_after = kSuspectAfter;
    hopt.dead_grace = kDeadGrace;
    hopt.rejoin_after = kRejoinAfter;
    tracker_ = std::make_unique<controlplane::NodeHealthTracker>(hopt);
  }
  dispatcher_ = std::make_unique<net::TransportDispatcher>(
      &transport_, dopt,
      [this, n](const controlplane::ResumeAttempt& a) {
        auto target = static_cast<net::EndpointId>(1 + NodeOf(a.db));
        if (tracker_ != nullptr) {
          for (int i = 0; i < n && tracker_->health(target) ==
                                       controlplane::NodeHealth::kDead;
               ++i) {
            target = static_cast<net::EndpointId>(target % n + 1);
          }
        }
        return target;
      });
  if (tracker_ != nullptr) {
    dispatcher_->set_health_tracker(tracker_.get());
    // The tracker and engine ride across a plane crash (they model
    // plane-side RAM, but re-detection after recovery is covered by the
    // failover-torture harness); OpenControlPlane points the engine at
    // each service incarnation.
    engine_ = std::make_unique<controlplane::FailoverEngine>(
        nullptr, tracker_.get(), [this](uint32_t node) {
          // Placement source: the crash-evicted databases homed on the
          // dead endpoint and not yet re-placed.
          std::vector<DbId> dbs;
          for (DbId db = 0; db < num_dbs_; ++db) {
            if (!crash_evicted_.empty() && crash_evicted_[db] &&
                NodeOf(db) + 1 == node) {
              dbs.push_back(db);
            }
          }
          return dbs;
        });
  }
  agents_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const size_t node = static_cast<size_t>(i);
    agents_.push_back(std::make_unique<net::NodeAgent>(
        static_cast<net::EndpointId>(1 + i), &transport_,
        [this, node](const controlplane::ResumeAttempt& a,
                     EpochSeconds now) -> Status {
          return ExecuteResume(a, now, node);
        }));
  }
}

Status FleetSimulation::OpenControlPlane(EpochSeconds now) {
  controlplane::DurableControlPlane::Options cp;
  cp.dir = options_.control_plane_journal_dir;
  cp.config = options_.config.control_plane;
  cp.sync_mode = controlplane::ControlPlaneJournal::SyncMode::kBuffered;
  cp.checkpoint_every = options_.control_plane_checkpoint_every;
  // The SQL mirror of sys.databases opens only for the literal-scan
  // validation path, its one reader.
  cp.metadata_backing = options_.use_sql_scan_for_resume_op
                            ? MetadataStore::Backing::kSqlMirrored
                            : MetadataStore::Backing::kIndexOnly;
  PRORP_ASSIGN_OR_RETURN(
      plane_, controlplane::DurableControlPlane::Open(
                  cp,
                  [this](const controlplane::ResumeAttempt& a,
                         EpochSeconds t) -> Status {
                    return dispatcher_->DispatchResume(a, t);
                  },
                  [this](DbId db) {
                    // Reconcile oracle: the node holds the resumed
                    // resources iff the database's lifecycle FSM is not
                    // physically paused.
                    return controllers_[db] != nullptr &&
                           controllers_[db]->state() !=
                               DbState::kPhysicallyPaused;
                  },
                  now));
  metadata_ = &plane_->metadata();
  management_ = &plane_->service();
  dispatcher_->set_service(management_);
  // Fence the nodes against the dead incarnation's stragglers before the
  // new one dispatches anything (inline transport has none; the call
  // keeps the recovery contract explicit).
  for (auto& ag : agents_) ag->FenceEpoch(management_->epoch());
  if (engine_ != nullptr) engine_->set_service(management_);
  cp_last_replayed_ = plane_->recovery_stats().replayed;
  return Status::OK();
}

Status FleetSimulation::HandleControlPlaneCrash(const SimEvent& ev) {
  // Simulated control-plane process death at an event boundary: the
  // in-memory plane is destroyed — queue contents, breaker state and
  // accounting survive only through journal + checkpoint — and recovery
  // reopens the directory under a fresh epoch.  Node-side work already
  // granted (pending kResumeLatencyDone events) is unaffected;
  // dispatched-but-unacked workflows reconcile against the lifecycle
  // FSMs through the oracle above.
  plane_.reset();
  metadata_ = nullptr;
  management_ = nullptr;
  PRORP_RETURN_IF_ERROR(OpenControlPlane(ev.time));
  ++cp_recoveries_;
  return Status::OK();
}

Status FleetSimulation::HandleLeaseTick(const SimEvent& ev) {
  // The plane's lease loop: renew/probe every node, feed the failure
  // detector, and drain any death declarations into failover re-queues.
  dispatcher_->Tick(ev.time);
  if (engine_ != nullptr) {
    PRORP_RETURN_IF_ERROR(engine_->Tick(ev.time));
    const uint64_t requeued = engine_->stats().requeued;
    if (requeued != failover_requeued_seen_) {
      failover_requeued_seen_ = requeued;
      (void)management_->Pump(ev.time);
    }
  }
  EpochSeconds next = ev.time + kLeaseInterval;
  if (next < options_.end) Push(next, SimEventType::kLeaseTick, 0, 0);
  return Status::OK();
}

Status FleetSimulation::HandleNodeCrash(const SimEvent& ev) {
  const size_t node = static_cast<size_t>(ev.aux);
  if (node < agents_.size()) agents_[node]->Crash();
  // The node's RAM is gone: every database idling there with warm
  // resources (logically paused) loses them.  Active databases are
  // assumed HA-protected above this model, and physically paused ones
  // had nothing on the node to lose.
  for (DbId db = 0; db < num_dbs_; ++db) {
    LifecycleController* c = controllers_[db];
    if (c == nullptr || NodeOf(db) != node) continue;
    if (c->state() != DbState::kLogicallyPaused || c->active()) continue;
    PRORP_RETURN_IF_ERROR(c->OnForcedEviction(ev.time));
    if (!crash_evicted_.empty()) crash_evicted_[db] = 1;
    SyncTimer(db);
  }
  return Status::OK();
}

Status FleetSimulation::HandleNodeRestart(const SimEvent& ev) {
  const size_t node = static_cast<size_t>(ev.aux);
  if (node < agents_.size()) agents_[node]->Restart(ev.time);
  return Status::OK();
}

Result<SimReport> FleetSimulation::Run() {
  PRORP_RETURN_IF_ERROR(options_.config.Validate());
  if (options_.end <= 0) {
    return Status::InvalidArgument("SimOptions.end is required");
  }
  if (options_.num_threads != 1) {
    return Status::InvalidArgument("SimOptions.num_threads must be 1");
  }
  if (options_.use_legacy_event_heap) {
    return Status::InvalidArgument(
        "SimOptions.use_legacy_event_heap must be false");
  }
  if (options_.control_plane_crash_at > 0 &&
      options_.control_plane_journal_dir.empty()) {
    return Status::InvalidArgument(
        "control_plane_crash_at requires control_plane_journal_dir");
  }
  if (options_.use_null_history && options_.mode == PolicyMode::kProactive) {
    return Status::InvalidArgument(
        "use_null_history discards the history the proactive policy "
        "predicts from");
  }
  if (options_.use_lite_metadata && options_.use_sql_scan_for_resume_op) {
    return Status::InvalidArgument(
        "use_lite_metadata asks for no SQL mirror, which the literal-scan "
        "validation path reads");
  }
  if (options_.node_crash_node >= 0) {
    if (options_.node_crash_node >= std::max(1, options_.num_nodes)) {
      return Status::InvalidArgument("node_crash_node out of range");
    }
    if (options_.node_crash_at <= 0) {
      return Status::InvalidArgument("node_crash_at must be positive");
    }
  }
  size_t n = num_dbs_;
  controllers_.assign(n, nullptr);
  history_.assign(n, nullptr);
  if (options_.sql_history_count > 0) sql_history_.assign(n, nullptr);
  generation_.assign(n, 0);
  scheduled_timer_.assign(n, 0);
  scheduled_timer_gen_.assign(n, 0);
  if (options_.eviction_per_hour > 0) eviction_rng_.assign(n, Rng(0));
  if (options_.storm_layer_enabled()) {
    reactive_login_at_.assign(n, 0);
    reactive_login_gen_.assign(n, 0);
  }
  cursors_.resize(n);
  cur_session_end_.assign(n, 0);
  current_phase_.assign(n, Phase::kReclaimed);
  if (node_loss_modeled()) crash_evicted_.assign(n, 0);
  predictor_ = std::make_unique<forecast::FastPredictor>(
      options_.config.policy.prediction);

  outages_ = OutageSchedule::Build(options_);
  robustness_.outage_windows = outages_.windows();
  robustness_.outage_seconds = outages_.seconds();

  if (options_.storm_layer_enabled()) {
    CapacityOptions cap;
    cap.num_nodes = static_cast<size_t>(std::max(1, options_.num_nodes));
    cap.concurrency_per_node = options_.resume_concurrency_per_node;
    cap.service_time = options_.resume_latency;
    cap.admission_rate = options_.node_admission_rate;
    cap.admission_burst = options_.node_admission_burst;
    cap.queue_jitter_max = options_.resume_queue_jitter_max;
    cap.seed = options_.seed;
    capacity_ = std::make_unique<NodeCapacityModel>(cap);
  }

  failure_rng_ = rng_.Fork();
  BuildTransport();
  PRORP_RETURN_IF_ERROR(OpenControlPlane(/*now=*/0));

  EpochSeconds measure_from = options_.measure_from;
  // The report only ever publishes fleet totals, so skip the ledger's
  // per-database breakdown (bit-identical; see UsageLedger).
  ledger_ = std::make_unique<telemetry::UsageLedger>(
      n, measure_from > 0 ? measure_from : 0, /*track_per_db=*/false);
  if (full_telemetry()) {
    recorder_ = std::make_unique<telemetry::Recorder>();
  }

  EpochSeconds earliest_start = options_.end;
  for (DbId db = 0; db < n; ++db) {
    std::unique_ptr<workload::SessionCursor> cursor =
        source_->Open(db);
    workload::Session first;
    if (!cursor->Next(&first)) continue;
    earliest_start = std::min(earliest_start, first.start);
    if (first.start < options_.end) {
      cur_session_end_[db] = first.end;
      cursors_[db] = std::move(cursor);
      Push(first.start, SimEventType::kDbCreated, db, 0);
    }
  }
  if (options_.mode == PolicyMode::kProactive &&
      options_.proactive_resume_enabled) {
    // The operation starts with the earliest database; earlier ticks
    // would only scan an empty metadata store.
    if (earliest_start + 1 < options_.end) {
      Push(earliest_start + 1, SimEventType::kResumeOpTick, 0, 0);
    }
  } else if (options_.storm_layer_enabled()) {
    // No RunOnce iterations: the pump tick keeps the reactive drain and
    // the deadline watchdog running between logins.
    if (earliest_start + 1 < options_.end) {
      Push(earliest_start + 1, SimEventType::kPumpTick, 0, 0);
    }
  }
  if (options_.storm_layer_enabled() &&
      options_.maintenance_interval > 0 && options_.maintenance_batch > 0 &&
      options_.mode == PolicyMode::kProactive) {
    EpochSeconds first = earliest_start + options_.maintenance_interval;
    if (first < options_.end) {
      Push(first, SimEventType::kMaintenanceTick, 0, 0);
    }
  }
  if (options_.scrub_interval > 0 && options_.sql_history_count > 0) {
    // Anchored to the earliest database: earlier ticks have nothing to
    // scrub.
    EpochSeconds first_scrub = earliest_start + options_.scrub_interval;
    if (first_scrub < options_.end) {
      Push(first_scrub, SimEventType::kScrubTick, 0, 0);
    }
  }
  if (options_.control_plane_crash_at > 0 &&
      options_.control_plane_crash_at < options_.end) {
    Push(options_.control_plane_crash_at, SimEventType::kControlPlaneCrash,
         0, 0);
  }
  // The transport maintenance tick: lease fan-out + failure detection
  // when enabled, and (node loss generally) the retransmit / timeout
  // loop a deaf node's unanswered dispatches depend on.
  if (node_loss_modeled() && earliest_start + 1 < options_.end) {
    Push(earliest_start + 1, SimEventType::kLeaseTick, 0, 0);
  }
  if (options_.node_crash_node >= 0 && options_.node_crash_at > 0 &&
      options_.node_crash_at < options_.end) {
    Push(options_.node_crash_at, SimEventType::kNodeCrash, 0,
         static_cast<uint64_t>(options_.node_crash_node));
    robustness_.node_crash_windows = 1;
    EpochSeconds back = options_.node_crash_at + options_.node_crash_duration;
    if (options_.node_crash_duration > 0 && back < options_.end) {
      Push(back, SimEventType::kNodeRestart, 0,
           static_cast<uint64_t>(options_.node_crash_node));
      robustness_.node_crash_seconds =
          static_cast<uint64_t>(options_.node_crash_duration);
    } else {
      // No restart before the horizon: down for the rest of the run.
      robustness_.node_crash_seconds =
          static_cast<uint64_t>(options_.end - options_.node_crash_at);
    }
  }
  if (measure_from > 0) {
    Push(measure_from, SimEventType::kMeasureStart, 0, 0);
  }
  Push(measure_from > 0 ? measure_from : options_.end - 1,
       SimEventType::kAllocationSample, 0, 0);

  // The tick-drain loop: the wheel hands over one virtual second of
  // events at a time, ascending seq; handlers appending to the current
  // tick extend the same pass.  Indexing (not iterators) because
  // tick_ may reallocate mid-loop.
  while (queue_.PopNextTick(&tick_)) {
    if (tick_.front().time >= options_.end) break;
    tick_time_ = tick_.front().time;
    for (size_t i = 0; i < tick_.size(); ++i) {
      SimEvent ev = tick_[i];
      ++events_processed_;
      switch (ev.type) {
        case SimEventType::kDbCreated:
          PRORP_RETURN_IF_ERROR(HandleDbCreated(ev));
          break;
        case SimEventType::kSessionStart:
          PRORP_RETURN_IF_ERROR(HandleSessionStart(ev));
          break;
        case SimEventType::kSessionEnd:
          PRORP_RETURN_IF_ERROR(HandleSessionEnd(ev));
          break;
        case SimEventType::kTimer:
          PRORP_RETURN_IF_ERROR(HandleTimer(ev));
          break;
        case SimEventType::kResumeOpTick:
          PRORP_RETURN_IF_ERROR(HandleResumeOpTick(ev));
          break;
        case SimEventType::kScrubTick:
          PRORP_RETURN_IF_ERROR(HandleScrubTick(ev));
          break;
        case SimEventType::kEviction:
          PRORP_RETURN_IF_ERROR(HandleEviction(ev));
          break;
        case SimEventType::kResumeLatencyDone:
          PRORP_RETURN_IF_ERROR(HandleResumeLatencyDone(ev));
          break;
        case SimEventType::kMeasureStart:
          HandleMeasureStart(ev);
          break;
        case SimEventType::kPumpTick:
          PRORP_RETURN_IF_ERROR(HandlePumpTick(ev));
          break;
        case SimEventType::kMaintenanceTick:
          PRORP_RETURN_IF_ERROR(HandleMaintenanceTick(ev));
          break;
        case SimEventType::kControlPlaneCrash:
          PRORP_RETURN_IF_ERROR(HandleControlPlaneCrash(ev));
          break;
        case SimEventType::kLeaseTick:
          PRORP_RETURN_IF_ERROR(HandleLeaseTick(ev));
          break;
        case SimEventType::kNodeCrash:
          PRORP_RETURN_IF_ERROR(HandleNodeCrash(ev));
          break;
        case SimEventType::kNodeRestart:
          PRORP_RETURN_IF_ERROR(HandleNodeRestart(ev));
          break;
        case SimEventType::kFailoverPlaced:
          management_->CompleteWorkflow(ev.db, ev.time);
          break;
        case SimEventType::kAllocationSample: {
          allocated_samples_.Add(static_cast<double>(allocated_now_));
          EpochSeconds next_sample = ev.time + Minutes(5);
          if (next_sample < options_.end) {
            Push(next_sample, SimEventType::kAllocationSample, 0, 0);
          }
          break;
        }
      }
    }
    tick_time_ = -1;
    // Same post-storm policy as the wheel's slots: a tick inflated by a
    // synchronized herd must not pin its capacity forever.
    if (tick_.capacity() > 4096 && tick_.size() < tick_.capacity() / 4) {
      std::vector<SimEvent>().swap(tick_);
    } else {
      tick_.clear();
    }
  }
  ledger_->Finish(options_.end);

  SimReport report;
  report.usage = ledger_->fleet_total();
  report.counts = counts_;
  report.kpi = telemetry::ComputeKpi(counts_, report.usage);
  // Predictions are counted inside the controllers (the event stream only
  // carries lifecycle transitions).
  for (const LifecycleController* controller : controllers_) {
    if (controller == nullptr) continue;
    report.kpi.predictions += controller->stats().predictions_made;
    robustness_.degraded_enters += controller->stats().degraded_enters;
    robustness_.degraded_exits += controller->stats().degraded_exits;
    robustness_.history_errors += controller->stats().history_errors;
    robustness_.corruption_errors += controller->stats().corruption_errors;
    robustness_.maintenance_touches +=
        controller->stats().maintenance_touches;
  }
  for (const history::SqlHistoryStore* store : sql_history_) {
    if (store == nullptr) continue;
    const storage::IntegrityStats& is = store->integrity_stats();
    robustness_.corruption_detected += is.corruption_detected;
    robustness_.corruption_repaired += is.corruption_repaired;
    robustness_.corruption_quarantined += is.corruption_quarantined;
    robustness_.scrub_passes += is.scrub_passes;
    robustness_.scrub_pages += is.scrub_pages;
    robustness_.scrub_errors += is.scrub_errors;
  }
  if (recorder_ != nullptr) report.recorder = std::move(*recorder_);
  report.diagnostics = management_->diagnostics();
  if (tracker_ != nullptr) {
    robustness_.node_deaths = tracker_->stats().deaths;
    robustness_.node_rejoins = tracker_->stats().rejoins;
  }
  if (engine_ != nullptr) {
    robustness_.failover_requeues = engine_->stats().requeued;
    robustness_.failover_deduped = engine_->stats().deduped;
  }
  for (const auto& ag : agents_) {
    robustness_.resume_failures_node_down +=
        ag->stats().lease_expired_rejected;
    robustness_.duplicates_suppressed += ag->stats().duplicate_suppressed;
  }
  report.robustness = robustness_;
  report.pending_failed = management_->pending_failed();
  report.resumed_per_iteration = management_->resumed_per_iteration();
  report.login_delay = login_delay_;
  report.login_delay_hist = login_delay_hist_;
  if (capacity_ != nullptr) report.resume_waits = capacity_->waits();
  report.control_plane_recoveries = cp_recoveries_;
  report.control_plane_replayed = cp_last_replayed_;
  report.resume_ticks_skipped = resume_ticks_skipped_;
  report.measure_from = measure_from;
  report.measure_end = options_.end;
  report.allocated_samples = allocated_samples_;
  report.events_processed = events_processed_;
  report.event_queue_bytes =
      queue_.MemoryBytes() + tick_.capacity() * sizeof(SimEvent);
  for (DbId db = 0; db < n; ++db) {
    if (history_[db] == nullptr) continue;
    uint64_t tuples = history_[db]->NumTuples();
    uint64_t bytes = history_[db]->SizeBytes();
    if (full_telemetry()) {
      report.history_tuples.Add(static_cast<double>(tuples));
      report.history_bytes.Add(static_cast<double>(bytes));
    }
    report.history_tuples_hist.Add(static_cast<int64_t>(tuples));
    report.history_bytes_hist.Add(static_cast<int64_t>(bytes));
  }
  return report;
}

}  // namespace

Result<SimReport> RunFleetSimulation(const workload::TraceSource& source,
                                     const SimOptions& options) {
  FleetSimulation simulation(source, options);
  return simulation.Run();
}

Result<SimReport> RunFleetSimulation(
    const std::vector<workload::DbTrace>& traces, const SimOptions& options) {
  workload::MaterializedTraceSource source(traces);
  return RunFleetSimulation(source, options);
}

}  // namespace prorp::sim
