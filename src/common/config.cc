#include "common/config.h"

namespace prorp {

Status PredictionConfig::Validate() const {
  if (history_length <= 0) {
    return Status::InvalidArgument("history_length must be positive");
  }
  if (prediction_horizon <= 0) {
    return Status::InvalidArgument("prediction_horizon must be positive");
  }
  if (window_size <= 0) {
    return Status::InvalidArgument("window_size must be positive");
  }
  if (window_slide <= 0) {
    return Status::InvalidArgument("window_slide must be positive");
  }
  if (window_slide > window_size) {
    return Status::InvalidArgument(
        "window_slide must not exceed window_size (windows would skip time)");
  }
  if (confidence_threshold < 0.0 || confidence_threshold > 1.0) {
    return Status::InvalidArgument("confidence_threshold must be in [0, 1]");
  }
  if (seasonality <= 0) {
    return Status::InvalidArgument("seasonality must be positive");
  }
  if (prediction_horizon > seasonality) {
    return Status::InvalidArgument(
        "prediction_horizon must not exceed the seasonality period; the "
        "pattern repeats after one season");
  }
  if (history_length > kMaxHistoryLength) {
    return Status::InvalidArgument(
        "history_length must not exceed 2^31 - 1 seconds");
  }
  if (history_length < seasonality) {
    return Status::InvalidArgument(
        "history_length must cover at least one season");
  }
  return Status::OK();
}

int64_t PredictionConfig::NumWindows() const {
  if (window_size > prediction_horizon) return 0;
  return (prediction_horizon - window_size) / window_slide + 1;
}

int64_t PredictionConfig::NumSeasons() const {
  return history_length / seasonality;
}

Status PolicyConfig::Validate() const {
  if (logical_pause_duration <= 0) {
    return Status::InvalidArgument("logical_pause_duration must be positive");
  }
  return prediction.Validate();
}

Status ControlPlaneConfig::Validate() const {
  if (prewarm_interval < 0) {
    return Status::InvalidArgument("prewarm_interval must be non-negative");
  }
  if (resume_operation_period <= 0) {
    return Status::InvalidArgument(
        "resume_operation_period must be positive");
  }
  if (retry_backoff_cap < kRetryBackoffBase) {
    return Status::InvalidArgument(
        "retry_backoff_cap must be >= kRetryBackoffBase (60 s)");
  }
  if (breaker_window == 0) {
    return Status::InvalidArgument("breaker_window must be positive");
  }
  if (breaker_open_duration <= 0) {
    return Status::InvalidArgument(
        "breaker_open_duration must be positive");
  }
  if (breaker_half_open_probes <= 0) {
    return Status::InvalidArgument(
        "breaker_half_open_probes must be positive");
  }
  if (deadline_imminent <= 0) {
    return Status::InvalidArgument("deadline_imminent must be positive");
  }
  if (slow_start_initial_quota == 0) {
    return Status::InvalidArgument(
        "slow_start_initial_quota must be positive");
  }
  if (slow_start_quota_cap < slow_start_initial_quota) {
    return Status::InvalidArgument(
        "slow_start_quota_cap must be >= slow_start_initial_quota");
  }
  if (storm_cooldown < 0) {
    return Status::InvalidArgument("storm_cooldown must be non-negative");
  }
  if (catch_up_lookback <= 0) {
    return Status::InvalidArgument("catch_up_lookback must be positive");
  }
  return Status::OK();
}

Status ProrpConfig::Validate() const {
  PRORP_RETURN_IF_ERROR(policy.Validate());
  return control_plane.Validate();
}

}  // namespace prorp
