#ifndef PRORP_POLICY_LIFECYCLE_CONTROLLER_H_
#define PRORP_POLICY_LIFECYCLE_CONTROLLER_H_

#include <functional>
#include <string>

#include "common/config.h"
#include "common/result.h"
#include "common/status.h"
#include "forecast/predictor.h"
#include "history/history_store.h"
#include "policy/lifecycle.h"

namespace prorp::policy {

/// Resource allocation mode.
enum class PolicyMode {
  /// Algorithm 1: predict next activity, physically pause when no activity
  /// is expected within l, resume proactively via the control plane.
  kProactive,
  /// The current production baseline (Section 2.2): always logically pause
  /// on idle, physically pause after l, resume reactively on demand.
  kReactive,
  /// Fixed provisioned: resources never reclaimed (cost upper bound).
  kAlwaysOn,
};

std::string_view PolicyModeName(PolicyMode mode);

/// Event-driven encoding of Algorithm 1's per-database lifecycle.
///
/// The paper writes the proactive policy as blocking loops (Resume /
/// LogicalPause / PhysicalPause run "inside" the database).  To simulate
/// hundreds of thousands of databases on one thread, this controller keeps
/// the same state variables (nextActivity, old, pauseStart) and evaluates
/// the same branch conditions, but is driven by events:
///
///   OnActivityStart  — customer login            (Resume(), lines 1-5)
///   OnActivityEnd    — workload completed        (lines 6-12)
///   OnTimerCheck     — logical-pause wait expiry (lines 18-29)
///   OnProactiveResume— control plane pre-warm    (Algorithm 5 line 8)
///   OnForcedEviction — node capacity pressure    (production reality;
///                      see DESIGN.md section 3, "Capacity pressure")
///
/// After any event, NextTimerAt() tells the driver when the controller
/// next needs to re-evaluate its wait conditions (0 = no timer needed).
///
/// "Default to Reactive" (Section 3.2): if PredictNextActivity returns a
/// non-OK Status, the controller behaves exactly like PolicyMode::kReactive
/// for that decision and counts the fallback.
///
/// Graceful degradation: history-store write failures do NOT propagate to
/// the customer path (a login must never fail because telemetry storage
/// is down).  Instead the controller enters a degraded mode in which it
/// ignores predictions — behaving like kReactive — until a history
/// operation succeeds again, and counts the transitions.
class LifecycleController {
 public:
  using TransitionCallback = std::function<void(const TransitionEvent&)>;

  struct Stats {
    uint64_t logins_available = 0;        // logins with resources allocated
    uint64_t logins_reactive = 0;         // logins that hit a physical pause
    uint64_t logical_pauses = 0;
    uint64_t physical_pauses = 0;
    uint64_t proactive_resumes = 0;
    uint64_t predictions_made = 0;
    uint64_t reactive_fallbacks = 0;      // prediction component failures
    uint64_t forced_evictions = 0;
    uint64_t maintenance_touches = 0;
    uint64_t history_errors = 0;          // failed history-store operations
    uint64_t corruption_errors = 0;       // history errors typed Corruption
    uint64_t degraded_enters = 0;         // transitions into degraded mode
    uint64_t degraded_exits = 0;          // recoveries back to proactive
  };

  /// `history` and `predictor` must outlive the controller.  `predictor`
  /// may be null when mode != kProactive.  The controller assumes the
  /// database starts resumed with a running workload at `created_at` and
  /// records the initial login in the history.
  LifecycleController(PolicyConfig config, PolicyMode mode,
                      history::HistoryStore* history,
                      const forecast::Predictor* predictor,
                      EpochSeconds created_at,
                      TransitionCallback on_transition = nullptr);

  LifecycleController(const LifecycleController&) = delete;
  LifecycleController& operator=(const LifecycleController&) = delete;

  /// Customer login.  Tracks the activity start (Algorithm 1 line 3) and
  /// resumes resources if paused.  Returns what the customer experienced.
  Result<LoginOutcome> OnActivityStart(EpochSeconds now);

  /// Customer workload completed (line 6 onward): records the activity
  /// end, refreshes the prediction if the previous one is over, and
  /// decides logical vs physical pause (lines 7-12).
  Status OnActivityEnd(EpochSeconds now);

  /// Re-evaluates the logical-pause wait conditions (lines 18-29).  A
  /// no-op unless the database is logically paused and idle.
  Status OnTimerCheck(EpochSeconds now);

  /// Control-plane pre-warm (Algorithm 5 calls LogicalPause()).  Only
  /// valid while physically paused; the database becomes logically paused
  /// awaiting the predicted login.
  Status OnProactiveResume(EpochSeconds now);

  /// Node capacity pressure reclaims a logically paused database early.
  Status OnForcedEviction(EpochSeconds now);

  /// Control-plane maintenance touch: a background workflow briefly
  /// visits a physically paused database (integrity check, metadata
  /// refresh) without changing its lifecycle state.  Valid only while
  /// physically paused — any other state returns FailedPrecondition,
  /// giving maintenance workflows the same skipped-on-state-change
  /// semantics as pre-warms.
  Status OnMaintenanceTouch(EpochSeconds now);

  DbState state() const { return state_; }
  bool active() const { return active_; }
  bool is_old() const { return old_; }

  /// True while history-store errors force reactive behavior.
  bool degraded() const { return degraded_; }

  /// The prediction currently in effect (what Algorithm 1 line 31 stores
  /// in the metadata store when physically pausing).
  const forecast::ActivityPrediction& next_activity() const {
    return next_activity_;
  }

  /// When the controller next needs OnTimerCheck (0 = none scheduled).
  EpochSeconds NextTimerAt() const { return next_timer_; }

  const Stats& stats() const { return stats_; }
  PolicyMode mode() const { return mode_; }

 private:
  /// Tracks degraded mode from the outcome of a history-store operation:
  /// a failure enters it (counted, never propagated), a success exits it.
  void NoteHistoryOutcome(const Status& s);

  /// The prediction gate used by every decision: a prediction is acted on
  /// only when it is usable AND the controller is not degraded.
  bool UsablePrediction() const { return prediction_usable_ && !degraded_; }

  /// Runs DeleteOldHistory + PredictNextActivity (lines 8-9 / 24-25).
  void RefreshPrediction(EpochSeconds now);

  /// Lines 10-12 / 26-29: should the idle database be physically paused
  /// right now?
  bool ShouldPhysicallyPause(EpochSeconds now) const;

  /// The inner wait condition of lines 19-20: must the database stay
  /// logically paused at `now`?
  bool MustStayLogicallyPaused(EpochSeconds now) const;

  /// Next boundary at which the wait condition could change.
  EpochSeconds ComputeNextBoundary(EpochSeconds now) const;

  void Transition(DbState to, EpochSeconds now, TransitionCause cause);

  void EnterLogicalPause(EpochSeconds now, TransitionCause cause);
  void EnterPhysicalPause(EpochSeconds now, TransitionCause cause);

  PolicyConfig config_;
  PolicyMode mode_;
  history::HistoryStore* history_;
  const forecast::Predictor* predictor_;
  TransitionCallback on_transition_;

  DbState state_ = DbState::kResumed;
  bool active_ = true;
  bool old_ = false;
  bool prediction_usable_ = false;  // false after a predictor failure
  bool degraded_ = false;           // history store failing; act reactive
  EpochSeconds last_restore_time_ = 0;  // eviction-restore cooldown anchor
  forecast::ActivityPrediction next_activity_;
  EpochSeconds pause_start_ = 0;
  EpochSeconds next_timer_ = 0;
  Stats stats_;
};

}  // namespace prorp::policy

#endif  // PRORP_POLICY_LIFECYCLE_CONTROLLER_H_
