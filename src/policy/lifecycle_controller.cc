#include "policy/lifecycle_controller.h"

#include <algorithm>

namespace prorp::policy {
namespace {

/// Minimum spacing between two eviction restores of the same database.
constexpr DurationSeconds kEvictionRestoreCooldown = Minutes(20);

}  // namespace

std::string_view PolicyModeName(PolicyMode mode) {
  switch (mode) {
    case PolicyMode::kProactive:
      return "proactive";
    case PolicyMode::kReactive:
      return "reactive";
    case PolicyMode::kAlwaysOn:
      return "always_on";
  }
  return "unknown";
}

LifecycleController::LifecycleController(PolicyConfig config,
                                         PolicyMode mode,
                                         history::HistoryStore* history,
                                         const forecast::Predictor* predictor,
                                         EpochSeconds created_at,
                                         TransitionCallback on_transition)
    : config_(config),
      mode_(mode),
      history_(history),
      predictor_(predictor),
      on_transition_(std::move(on_transition)) {
  // The database is created resumed with its first workload running
  // (Algorithm 1 lines 2-3).
  NoteHistoryOutcome(history_->InsertHistory(created_at, history::kEventLogin));
}

void LifecycleController::NoteHistoryOutcome(const Status& s) {
  if (s.ok()) {
    if (degraded_) {
      degraded_ = false;
      ++stats_.degraded_exits;
    }
    return;
  }
  ++stats_.history_errors;
  if (s.IsCorruption()) ++stats_.corruption_errors;
  if (!degraded_) {
    degraded_ = true;
    ++stats_.degraded_enters;
  }
}

Result<LoginOutcome> LifecycleController::OnActivityStart(EpochSeconds now) {
  if (active_) return LoginOutcome::kAlreadyActive;
  // Line 3.  A history-store failure must not fail the login: degrade
  // instead (the prediction pipeline just misses one sample).
  NoteHistoryOutcome(history_->InsertHistory(now, history::kEventLogin));
  active_ = true;
  switch (state_) {
    case DbState::kResumed:
      // Only kAlwaysOn idles in the resumed state.
      ++stats_.logins_available;
      return LoginOutcome::kResourcesAvailable;
    case DbState::kLogicallyPaused:
      ++stats_.logins_available;
      next_timer_ = 0;
      Transition(DbState::kResumed, now, TransitionCause::kActivityStart);
      return LoginOutcome::kResourcesAvailable;
    case DbState::kPhysicallyPaused:
      ++stats_.logins_reactive;
      Transition(DbState::kResumed, now, TransitionCause::kReactiveResume);
      return LoginOutcome::kReactiveResume;
  }
  return Status::Internal("unreachable");
}

Status LifecycleController::OnActivityEnd(EpochSeconds now) {
  if (!active_) {
    return Status::FailedPrecondition("activity end without activity");
  }
  // Line 6; non-propagating, same as the login path.
  NoteHistoryOutcome(history_->InsertHistory(now, history::kEventLogout));
  active_ = false;
  if (mode_ == PolicyMode::kAlwaysOn) return Status::OK();

  // Line 7: skip history cleanup and re-prediction while the previously
  // predicted activity is not over yet.
  if (mode_ == PolicyMode::kProactive && next_activity_.end < now) {
    RefreshPrediction(now);  // lines 8-9
  }
  // Lines 10-12.
  if (mode_ == PolicyMode::kProactive &&
      ShouldPhysicallyPause(now)) {
    EnterPhysicalPause(now, TransitionCause::kActivityEndPhysical);
  } else {
    EnterLogicalPause(now, TransitionCause::kActivityEndLogical);
  }
  return Status::OK();
}

Status LifecycleController::OnTimerCheck(EpochSeconds now) {
  // Stale timers (the database resumed or was evicted meanwhile) are
  // harmless no-ops.
  if (state_ != DbState::kLogicallyPaused || active_) return Status::OK();
  if (MustStayLogicallyPaused(now)) {  // lines 19-20
    next_timer_ = ComputeNextBoundary(now);
    return Status::OK();
  }
  // Lines 24-25: the wait is over and the database is still idle.
  if (mode_ == PolicyMode::kProactive) {
    RefreshPrediction(now);
  }
  // Lines 26-29 (with <= tolerance on the logical-pause expiry, see
  // header comment).
  bool effective_old = old_ && UsablePrediction();
  bool expired = !effective_old && pause_start_ +
                     config_.logical_pause_duration <= now;
  if (expired || ShouldPhysicallyPause(now)) {
    EnterPhysicalPause(now, TransitionCause::kLogicalPauseExpired);
    return Status::OK();
  }
  // Neither waiting condition nor pause condition holds (e.g. a fresh
  // prediction starting right now): re-check at slide granularity, which
  // is the rate at which predictions can change.
  next_timer_ = ComputeNextBoundary(now);
  return Status::OK();
}

Status LifecycleController::OnProactiveResume(EpochSeconds now) {
  if (state_ != DbState::kPhysicallyPaused) {
    return Status::FailedPrecondition(
        "proactive resume requires a physically paused database");
  }
  ++stats_.proactive_resumes;
  // Algorithm 5 line 8: the database enters LogicalPause() — resources
  // allocated, awaiting the predicted login, customer not billed.
  pause_start_ = now;
  Transition(DbState::kLogicallyPaused, now,
             TransitionCause::kProactiveResume);
  next_timer_ = ComputeNextBoundary(now);
  return Status::OK();
}

Status LifecycleController::OnForcedEviction(EpochSeconds now) {
  if (state_ != DbState::kLogicallyPaused || active_) {
    return Status::FailedPrecondition(
        "forced eviction requires an idle logically paused database");
  }
  ++stats_.forced_evictions;
  // Coverage restore: when the reclaimed pause was protecting predicted
  // activity that is still ahead (whether the pause came from the policy
  // itself or from a control-plane pre-warm), re-schedule the pre-warm so
  // the coverage can be re-established, typically on a less loaded node.
  // A cooldown bounds the churn: a pause that was just restored is not
  // re-fought — the pressure wins for a while.
  bool cooled_down =
      last_restore_time_ == 0 ||
      now - last_restore_time_ >= kEvictionRestoreCooldown;
  if (mode_ == PolicyMode::kProactive &&
      config_.eviction_restore_delay > 0 && cooled_down &&
      UsablePrediction() && next_activity_.HasPrediction() &&
      next_activity_.end > now) {
    next_activity_.start =
        std::max(next_activity_.start, now + config_.eviction_restore_delay);
    next_activity_.end = std::max(next_activity_.end, next_activity_.start);
    last_restore_time_ = now;
  }
  EnterPhysicalPause(now, TransitionCause::kForcedEviction);
  return Status::OK();
}

Status LifecycleController::OnMaintenanceTouch(EpochSeconds now) {
  (void)now;  // virtual-clock signature symmetry; the touch is stateless
  if (state_ != DbState::kPhysicallyPaused) {
    return Status::FailedPrecondition(
        "maintenance touch requires a physically paused database");
  }
  ++stats_.maintenance_touches;
  return Status::OK();
}

void LifecycleController::RefreshPrediction(EpochSeconds now) {
  auto old_result =
      history_->DeleteOldHistory(config_.prediction.history_length, now);
  NoteHistoryOutcome(old_result.status());
  old_ = old_result.ok() ? *old_result : false;
  if (predictor_ == nullptr) {
    prediction_usable_ = false;
    next_activity_ = forecast::ActivityPrediction::None();
    return;
  }
  auto pred = predictor_->PredictNextActivity(*history_, now);
  if (pred.ok()) {
    next_activity_ = *pred;
    prediction_usable_ = true;
    ++stats_.predictions_made;
  } else {
    // Default to reactive: behave like a new database with no prediction
    // until the component recovers (Section 3.2).
    next_activity_ = forecast::ActivityPrediction::None();
    prediction_usable_ = false;
    ++stats_.reactive_fallbacks;
  }
}

bool LifecycleController::ShouldPhysicallyPause(EpochSeconds now) const {
  if (!UsablePrediction()) return false;  // reactive fallback: never eager
  // Line 10 / 26: no activity predicted within the next l time units, or
  // an old database with no prediction at all.
  if (next_activity_.HasPrediction() &&
      now + config_.logical_pause_duration <= next_activity_.start) {
    return true;
  }
  if (old_ && !next_activity_.HasPrediction()) return true;
  return false;
}

bool LifecycleController::MustStayLogicallyPaused(EpochSeconds now) const {
  // Line 19.  The reactive policy and the reactive fallback behave like a
  // new database: wait out the full logical pause duration.
  bool effective_old = old_ && UsablePrediction();
  if (!effective_old && now < pause_start_ + config_.logical_pause_duration) {
    return true;
  }
  if (!UsablePrediction() || !next_activity_.HasPrediction()) return false;
  if (now < next_activity_.end) return true;
  if (now < next_activity_.start &&
      next_activity_.start < now + config_.logical_pause_duration) {
    return true;
  }
  return false;
}

EpochSeconds LifecycleController::ComputeNextBoundary(
    EpochSeconds now) const {
  EpochSeconds best = 0;
  auto consider = [&](EpochSeconds t) {
    if (t > now && (best == 0 || t < best)) best = t;
  };
  bool effective_old = old_ && UsablePrediction();
  if (!effective_old) {
    consider(pause_start_ + config_.logical_pause_duration);
  }
  if (UsablePrediction() && next_activity_.HasPrediction()) {
    consider(next_activity_.start);
    consider(next_activity_.end);
  }
  if (best == 0) {
    // Inconclusive (prediction starting immediately): poll at the slide
    // granularity, the rate at which window-based predictions change.
    best = now + config_.prediction.window_slide;
  }
  return best;
}

void LifecycleController::Transition(DbState to, EpochSeconds now,
                                     TransitionCause cause) {
  TransitionEvent event;
  event.time = now;
  event.from = state_;
  event.to = to;
  event.cause = cause;
  event.prediction =
      UsablePrediction() ? next_activity_
                         : forecast::ActivityPrediction::None();
  event.used_prediction = UsablePrediction();
  state_ = to;
  if (on_transition_) on_transition_(event);
}

void LifecycleController::EnterLogicalPause(EpochSeconds now,
                                            TransitionCause cause) {
  ++stats_.logical_pauses;
  pause_start_ = now;  // lines 15-16
  Transition(DbState::kLogicallyPaused, now, cause);
  next_timer_ = ComputeNextBoundary(now);
}

void LifecycleController::EnterPhysicalPause(EpochSeconds now,
                                             TransitionCause cause) {
  ++stats_.physical_pauses;
  next_timer_ = 0;
  // Line 31 (InsertMetadata) is observed by the control plane through the
  // transition event's prediction field; line 32 reclaims the resources.
  Transition(DbState::kPhysicallyPaused, now, cause);
}

}  // namespace prorp::policy
