#include "forecast/fast_predictor.h"

#include <algorithm>
#include <vector>

#include "forecast/window_selection.h"

namespace prorp::forecast {

Result<ActivityPrediction> FastPredictor::PredictNextActivity(
    const history::HistoryStore& history, EpochSeconds now) const {
  const PredictionConfig& cfg = config_;
  PRORP_RETURN_IF_ERROR(cfg.Validate());
  const int64_t num_windows = cfg.NumWindows();
  if (num_windows == 0) return ActivityPrediction::None();
  const DurationSeconds season = cfg.seasonality;
  const DurationSeconds slide = cfg.window_slide;
  const DurationSeconds size = cfg.window_size;

  // Season k (1 = the most recent) lays the windows over
  // [now - k * season, now - k * season + span).  span <= p <= season,
  // so the seasons' spans are disjoint and one read covers them all.
  const DurationSeconds span = (num_windows - 1) * slide + size;
  const EpochSeconds oldest = now - cfg.NumSeasons() * season;
  PRORP_ASSIGN_OR_RETURN(std::vector<EpochSeconds> logins,
                         history.CollectLogins(oldest, now - season + span));

  // Difference array over windows: a season adds 1 to every window that
  // holds at least one of its logins.  A login at offset o in its season
  // lies in the windows i with i * s <= o < i * s + w; within a season the
  // logins ascend, so these ranges ascend too, and overlapping or adjacent
  // ones merge into a run that is added once.
  std::vector<int32_t> diff(static_cast<size_t>(num_windows) + 1, 0);
  int64_t run_lo = 0;  // the open run of windows, empty while hi < lo
  int64_t run_hi = -1;
  auto close_run = [&] {
    if (run_lo <= run_hi) {
      ++diff[static_cast<size_t>(run_lo)];
      --diff[static_cast<size_t>(run_hi) + 1];
    }
    run_lo = 0;
    run_hi = -1;
  };
  EpochSeconds base = oldest;  // start of the current login's season
  for (EpochSeconds t : logins) {
    for (; t - base >= season; base += season) close_run();
    const DurationSeconds offset = t - base;
    if (offset >= span) continue;  // between two seasons' spans
    // The login's first window, (o - w) / s + 1, lies past run_hi + 1.
    if (offset >= (run_hi + 1) * slide + size) {
      close_run();
      run_lo = (offset - size) / slide + 1;
    }
    run_hi = std::min(offset / slide, num_windows - 1);
  }
  close_run();

  WindowSelector selector(cfg);
  int64_t seasons_with_activity = 0;
  for (int64_t i = 0; i < num_windows; ++i) {
    seasons_with_activity += diff[static_cast<size_t>(i)];
    if (!selector.Offer(seasons_with_activity)) break;
  }
  if (selector.chosen() < 0) return ActivityPrediction::None();

  // Extreme login offsets of the chosen window only (lines 26-33).
  const DurationSeconds win_offset = selector.chosen() * slide;
  WindowStats stats;
  stats.first_login_offset = size;  // line 11
  stats.last_login_offset = 0;      // line 12
  base = oldest;
  for (EpochSeconds t : logins) {
    while (t - base >= season) base += season;
    const DurationSeconds offset = t - base - win_offset;
    if (offset < 0 || offset >= size) continue;
    stats.first_login_offset = std::min(stats.first_login_offset, offset);
    stats.last_login_offset = std::max(stats.last_login_offset, offset);
  }
  return selector.Prediction(now + win_offset, stats);
}

}  // namespace prorp::forecast
