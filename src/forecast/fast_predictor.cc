#include "forecast/fast_predictor.h"

#include <algorithm>
#include <span>
#include <vector>

#include "forecast/window_selection.h"

namespace prorp::forecast {
namespace {

/// Per-thread buffers reused by every prediction on the thread, so that
/// once they have grown to the largest history and config seen, a
/// prediction allocates nothing.
struct Scratch {
  std::vector<EpochSeconds> logins;  // for stores that copy (ReadLogins)
  std::vector<uint32_t> offsets;     // pass 1's in-span season offsets
  std::vector<int32_t> diff;         // difference array over the windows
};

thread_local Scratch scratch;

}  // namespace

Result<ActivityPrediction> FastPredictor::PredictNextActivity(
    const history::HistoryStore& history, EpochSeconds now) const {
  const PredictionConfig& cfg = config_;
  PRORP_RETURN_IF_ERROR(cfg.Validate());
  const int64_t num_windows = cfg.NumWindows();
  if (num_windows == 0) return ActivityPrediction::None();
  const DurationSeconds season = cfg.seasonality;

  // Season k (1 = the most recent) lays the windows over
  // [now - k * season, now - k * season + span).  span <= p <= season,
  // so the seasons' spans are disjoint and one read covers them all.
  // Offsets within a span are below p <= h, which Validate bounds to 31
  // bits.
  const DurationSeconds span =
      (num_windows - 1) * cfg.window_slide + cfg.window_size;
  const auto slide = static_cast<uint32_t>(cfg.window_slide);
  const auto size = static_cast<uint32_t>(cfg.window_size);
  const auto last_window = static_cast<uint32_t>(num_windows - 1);
  const EpochSeconds oldest = now - cfg.NumSeasons() * season;
  Scratch& s = scratch;
  PRORP_ASSIGN_OR_RETURN(
      std::span<const EpochSeconds> logins,
      history.ReadLogins(oldest, now - season + span, &s.logins));

  // Pass 1.  Difference array over windows: a season adds 1 to every
  // window that holds at least one of its logins.  A login at offset o in
  // its season lies in the windows i with i * s <= o < i * s + w; within
  // a season the logins ascend, so these ranges ascend too, and
  // overlapping or adjacent ones merge into a run [run_lo, run_end) that
  // is added once.  Each in-span offset is kept for pass 2.
  s.diff.assign(static_cast<size_t>(num_windows) + 1, 0);
  s.offsets.resize(logins.size());
  int32_t* const diff = s.diff.data();
  uint32_t* const offsets = s.offsets.data();
  size_t num_offsets = 0;
  uint32_t run_lo = 0;
  uint32_t run_end = 0;  // empty while run_end == 0
  auto close_run = [&] {
    if (run_end != 0) {
      ++diff[run_lo];
      --diff[run_end];
    }
    run_lo = 0;
    run_end = 0;
  };
  EpochSeconds base = oldest;  // start of the current login's season
  for (EpochSeconds t : logins) {
    for (; t - base >= season; base += season) close_run();
    if (t - base >= span) continue;  // between two seasons' spans
    const auto offset = static_cast<uint32_t>(t - base);
    offsets[num_offsets++] = offset;
    // The login's first window, (o - w) / s + 1, lies past run_end.
    if (offset >= run_end * slide + size) {
      close_run();
      run_lo = (offset - size) / slide + 1;
    }
    run_end = std::min(offset / slide, last_window) + 1;
  }
  close_run();

  WindowSelector selector(cfg);
  int64_t seasons_with_activity = 0;
  for (int64_t i = 0; i < num_windows; ++i) {
    seasons_with_activity += diff[i];
    if (!selector.Offer(seasons_with_activity)) break;
  }
  if (selector.chosen() < 0) return ActivityPrediction::None();

  // Pass 2: extreme login offsets of the chosen window only (lines
  // 26-33), a branch-free min/max over pass 1's offsets.  An offset
  // before the window wraps around to a value >= w.
  const auto win_offset = static_cast<uint32_t>(selector.chosen()) * slide;
  uint32_t first = size;  // line 11
  uint32_t last = 0;      // line 12
  for (size_t k = 0; k < num_offsets; ++k) {
    const uint32_t d = offsets[k] - win_offset;
    const bool in_window = d < size;
    first = std::min(first, in_window ? d : size);
    last = std::max(last, in_window ? d : 0u);
  }
  WindowStats stats;
  stats.first_login_offset = first;
  stats.last_login_offset = last;
  return selector.Prediction(now + win_offset, stats);
}

}  // namespace prorp::forecast
