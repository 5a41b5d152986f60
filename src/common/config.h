#ifndef PRORP_COMMON_CONFIG_H_
#define PRORP_COMMON_CONFIG_H_

#include <cstdint>

#include "common/status.h"
#include "common/time_util.h"

namespace prorp {

/// Configuration knobs of the next-activity prediction (Algorithm 4).
/// Defaults are the paper's Table 1 values.
struct PredictionConfig {
  /// Bound on h (about 68 years), so that every offset the vectorized
  /// predictor takes within the last h fits in 31 bits.
  static constexpr DurationSeconds kMaxHistoryLength = 2'147'483'647;

  /// h: history retention length.  Only this much recent customer activity
  /// is kept and analyzed (default 28 days = 4 weeks).
  DurationSeconds history_length = Days(28);

  /// p: prediction horizon; the algorithm looks for activity within
  /// [now, now + p] (default 1 day, matching daily seasonality).
  DurationSeconds prediction_horizon = Days(1);

  /// c: confidence threshold; a window predicts activity only if the
  /// fraction of past seasons whose matching window contained a login is at
  /// least c (default 0.1).
  double confidence_threshold = 0.1;

  /// w: window size (default 7 hours).
  DurationSeconds window_size = Hours(7);

  /// s: window slide (default 5 minutes).
  DurationSeconds window_slide = Minutes(5);

  /// Seasonality period: 1 day for a daily pattern (the default), 7 days
  /// for a weekly pattern.  The inner loop of Algorithm 4 looks back at the
  /// same window shifted by multiples of this period.
  DurationSeconds seasonality = Days(1);

  /// Ablation flag: when true, reproduces the literally printed control
  /// flow of Algorithm 4, whose ELSE BREAK exits the outer loop at the
  /// first window below the confidence threshold.  See DESIGN.md section 3.
  bool literal_break = false;

  /// Validates parameter sanity (positive durations, c in [0,1],
  /// slide <= window, horizon covered by history, h at most
  /// kMaxHistoryLength).
  Status Validate() const;

  /// Number of sliding-window positions the outer loop evaluates,
  /// i.e. the number of windows fitting in the horizon: at most
  /// (p - w) / s + 1 (zero when w > p).
  int64_t NumWindows() const;

  /// Number of past seasons the inner loop inspects: h / seasonality.
  int64_t NumSeasons() const;
};

/// Configuration of the proactive resource allocation policy (Algorithm 1).
struct PolicyConfig {
  /// l: duration of logical pause (default 7 hours).  A new database (or an
  /// old one with activity predicted to start within l) stays logically
  /// paused this long before resources are physically reclaimed.
  DurationSeconds logical_pause_duration = Hours(7);

  /// When node capacity pressure forcibly reclaims a pre-warm that the
  /// control plane established ahead of predicted activity (and the
  /// predicted window is still ahead), the pre-warm is re-scheduled at
  /// least this far in the future so it can be re-established, typically
  /// on a less loaded node.  Applies ONLY to control-plane pre-warms;
  /// ordinary logical pauses are not restored, so pressure still relieves
  /// the node.  0 disables restore (ablation).
  DurationSeconds eviction_restore_delay = Minutes(8);

  PredictionConfig prediction;

  Status Validate() const;
};

/// Configuration of the control-plane management service (Algorithm 5),
/// including the graceful-degradation machinery of its diagnostics and
/// mitigation runner (Section 7): capped exponential backoff between
/// retry attempts of a stuck resume workflow, and a circuit breaker that
/// sheds proactive resumes while the resume path is systematically
/// failing.
struct ControlPlaneConfig {
  /// k: pre-warm interval; resources are proactively resumed k time units
  /// ahead of predicted customer activity (default 5 minutes).
  DurationSeconds prewarm_interval = Minutes(5);

  /// Period of the periodic proactive-resume operation (default 1 minute;
  /// Figure 11 tunes this between 1 and 15 minutes).
  DurationSeconds resume_operation_period = Minutes(1);

  /// Backoff before retry attempt n (1-based) of a failed resume
  /// workflow: min(retry_backoff_cap, retry_backoff_base * 2^(n-1)),
  /// plus a deterministic jitter in [0, retry_jitter_fraction * delay]
  /// hashed from (database, attempt) so that a burst of simultaneous
  /// failures does not retry in lockstep.  All delays are virtual-clock
  /// relative: a retry becomes eligible at the first RunOnce whose `now`
  /// has passed its deadline.
  DurationSeconds retry_backoff_base = Minutes(1);
  DurationSeconds retry_backoff_cap = Minutes(8);
  double retry_jitter_fraction = 0.25;

  /// Circuit breaker over resume-workflow outcomes.  When the last
  /// `breaker_window` attempts contain at least `breaker_failure_ratio`
  /// failures, the breaker opens: fresh proactive resumes are shed (the
  /// databases stay physically paused and fall back to reactive resume on
  /// the customer's login) and queued retries are held.  After
  /// `breaker_open_duration` the breaker half-opens and allows
  /// `breaker_half_open_probes` probe attempts per iteration; a probe
  /// failure re-opens it, `breaker_half_open_probes` consecutive
  /// successes close it.  FailedPrecondition outcomes (the database
  /// resumed on its own) are breaker-neutral.
  size_t breaker_window = 20;
  double breaker_failure_ratio = 0.5;
  DurationSeconds breaker_open_duration = Minutes(5);
  int breaker_half_open_probes = 3;

  // --- Overload resilience: resume storms (DESIGN.md section 8) ---
  // Every knob below defaults to inert so a configuration that does not
  // opt in behaves exactly like the pre-storm control plane.

  /// Bound on the total number of queued NON-reactive workflows (imminent
  /// proactive + speculative proactive + maintenance).  Reactive-login
  /// resumes are never bounded and never shed.  0 = unbounded (legacy).
  size_t queue_capacity = 0;

  /// Enables brownout shedding and the slow-start admission quota during
  /// detected storms.
  bool admission_control_enabled = false;

  /// Brownout engages by the fraction of queue_capacity occupied by
  /// non-reactive work: level 1 sheds fresh maintenance arrivals, level 2
  /// also speculative proactive, level 3 everything except reactive
  /// logins.  Only meaningful with admission control + a finite capacity.
  double brownout_l1 = 0.50;
  double brownout_l2 = 0.75;
  double brownout_l3 = 0.95;

  /// Per-workflow deadlines with a single hedged retry: a workflow still
  /// queued (or still in flight, for reactive resumes) past its class
  /// deadline gets one extra attempt routed to a different node.  The
  /// hedge bypasses backoff, breaker, and quota — it is the rescue path —
  /// and is bounded at one per workflow.
  bool deadline_hedging_enabled = false;
  DurationSeconds deadline_reactive = Minutes(2);
  DurationSeconds deadline_imminent = Minutes(10);
  DurationSeconds deadline_speculative = Hours(1);
  DurationSeconds deadline_maintenance = Hours(4);

  /// Storm detector: a storm starts when one selection returns at least
  /// storm_due_burst_threshold due databases, when at least
  /// storm_login_spike_threshold reactive logins arrived since the last
  /// iteration, or when the breaker leaves kOpen with at least
  /// storm_recovery_backlog non-reactive workflows queued.  0 disables
  /// the corresponding signal.  After a storm ends, a fresh one cannot
  /// start for storm_cooldown — draining the recovery backlog must not
  /// re-trigger the detector.
  size_t storm_due_burst_threshold = 64;
  uint64_t storm_login_spike_threshold = 32;
  size_t storm_recovery_backlog = 16;
  DurationSeconds storm_cooldown = Minutes(30);

  /// Slow-start ramp while a storm is active: the non-reactive admission
  /// quota per iteration is min(cap, initial * 2^tick) plus deterministic
  /// jitter (the same capped-exponential + jitter helpers as the retry
  /// backoff, growing instead of delaying).
  uint64_t slow_start_initial_quota = 2;
  uint64_t slow_start_quota_cap = 1ULL << 20;
  double slow_start_jitter_fraction = 0.25;

  /// Catch-up sweep at storm start: physically paused databases whose
  /// predicted start was missed (shed or stuck while the resume path was
  /// degraded) within [now - catch_up_lookback, now + prewarm_interval)
  /// are re-enqueued as speculative/imminent work.
  bool catch_up_enabled = false;
  DurationSeconds catch_up_lookback = Hours(2);

  /// True when any storm machinery (detector-driven) is active.
  bool StormControlEnabled() const {
    return admission_control_enabled || catch_up_enabled;
  }

  Status Validate() const;
};

/// Everything together; the unit handed to the fleet simulator.
struct ProrpConfig {
  PolicyConfig policy;
  ControlPlaneConfig control_plane;

  Status Validate() const;
};

}  // namespace prorp

#endif  // PRORP_COMMON_CONFIG_H_
