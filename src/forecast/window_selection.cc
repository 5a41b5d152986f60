#include "forecast/window_selection.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace prorp::forecast {

std::string ActivityPrediction::ToString() const {
  if (!HasPrediction()) return "no activity predicted";
  char buf[128];
  std::snprintf(buf, sizeof(buf), "[%s .. %s] conf=%.2f",
                FormatTimestamp(start).c_str(),
                FormatTimestamp(end).c_str(), confidence);
  return buf;
}

int64_t WindowSelector::MinQualifyingCount(double threshold,
                                           int64_t num_seasons) {
  const double n = static_cast<double>(num_seasons);
  auto qualifies = [&](int64_t k) {
    return threshold <= static_cast<double>(k) / n;
  };
  // Start from the real-valued answer, then settle it with the exact
  // expression the printed code evaluates (monotone in k).
  int64_t k = std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(threshold * n)), 1, num_seasons + 1);
  while (k > 1 && qualifies(k - 1)) --k;
  while (k <= num_seasons && !qualifies(k)) ++k;
  return k;
}

Result<ActivityPrediction> SelectPrediction(
    const PredictionConfig& config, EpochSeconds now,
    const std::function<Result<WindowStats>(EpochSeconds win_start)>&
        stats_fn) {
  PRORP_RETURN_IF_ERROR(config.Validate());
  const int64_t num_windows = config.NumWindows();
  WindowSelector selector(config);
  WindowStats chosen;
  for (int64_t i = 0; i < num_windows; ++i) {
    PRORP_ASSIGN_OR_RETURN(WindowStats stats,
                           stats_fn(now + i * config.window_slide));
    const bool more = selector.Offer(stats.seasons_with_activity);
    if (selector.chosen() == i) chosen = stats;
    if (!more) break;
  }
  return selector.Prediction(now + selector.chosen() * config.window_slide,
                             chosen);
}

}  // namespace prorp::forecast
