#ifndef PRORP_FORECAST_WINDOW_SELECTION_H_
#define PRORP_FORECAST_WINDOW_SELECTION_H_

#include <functional>

#include "common/config.h"
#include "common/result.h"
#include "forecast/prediction.h"

namespace prorp::forecast {

/// Per-window statistics accumulated over the previous seasons (Algorithm
/// 4's inner loop): how many seasons had a login inside the window, and
/// the extreme login offsets relative to the window start.
struct WindowStats {
  int64_t seasons_with_activity = 0;
  /// Earliest first-login offset within the window across seasons
  /// (@firstLoginPerWin; initialized to w per Algorithm 4 line 11).
  DurationSeconds first_login_offset = 0;
  /// Latest last-login offset (@lastLoginPerWin).
  DurationSeconds last_login_offset = 0;
};

/// Candidate selection of Algorithm 4 (lines 36-47), shared by the
/// faithful and the vectorized predictor.  The caller offers each
/// window's count of seasons with activity in slide order, starting at
/// the window that opens at `now`; selection needs nothing else, so the
/// login offsets are computed only for the window it finally chooses.
/// The earliest-start window whose confidence clears the threshold and
/// is locally maximal wins.
///
/// The printed code compares the probability count / (h / season) with
/// c and with the previous candidate's.  Both comparisons are monotone
/// in the count, so the selector compares integer counts instead: with
/// the least count whose probability clears c, found once per call by
/// evaluating that same double expression, every choice is the one the
/// probabilities make.  The confidence is computed once, for the chosen
/// window.
///
/// When config.literal_break is set, reproduces the printed pseudo-code's
/// ELSE BREAK, which aborts the scan at the first sub-threshold window
/// (see DESIGN.md section 3 for why that is treated as a transcription
/// artifact).
///
/// The config must be valid; the predictor validates it once per call.
class WindowSelector {
 public:
  explicit WindowSelector(const PredictionConfig& config)
      : num_seasons_(static_cast<double>(config.NumSeasons())),
        min_count_(MinQualifyingCount(config.confidence_threshold,
                                      config.NumSeasons())),
        literal_break_(config.literal_break) {}

  /// Offers the next window's count; returns false once the choice is
  /// final and later windows can no longer change it.
  bool Offer(int64_t seasons_with_activity) {
    const int64_t index = next_++;
    // Lines 37-46: take the window if it clears the confidence threshold
    // and its probability still improves on the previous candidate.
    // (min_count_ >= 1 guards the degenerate c = 0 case, where the
    // printed code would emit an empty window.)
    if (seasons_with_activity >= min_count_ &&
        seasons_with_activity > chosen_count_) {
      chosen_ = index;
      chosen_count_ = seasons_with_activity;
      return true;
    }
    // The printed ELSE BREAK aborts at the first non-qualifying window.
    if (literal_break_) return false;
    // Corrected reading: once a candidate exists and confidence stopped
    // increasing, the earliest-start locally-maximal window is final.
    // Without a candidate, keep sliding past sub-threshold windows.
    return chosen_ < 0;
  }

  /// Index of the chosen window (0 opens at `now`), or -1 if none
  /// qualified.
  int64_t chosen() const { return chosen_; }
  /// The chosen window's probability (0 when none qualified).
  double confidence() const {
    return static_cast<double>(chosen_count_) / num_seasons_;
  }

  /// The prediction (lines 38-40): the chosen window, which opens at
  /// `win_start`, narrowed to its extreme login offsets `stats`; None()
  /// when no window qualified.
  ActivityPrediction Prediction(EpochSeconds win_start,
                                const WindowStats& stats) const {
    if (chosen_ < 0) return ActivityPrediction::None();
    return {win_start + stats.first_login_offset,
            win_start + stats.last_login_offset, confidence()};
  }

  /// The least count k >= 1 with `threshold <= k / num_seasons` in
  /// double arithmetic (num_seasons + 1 if none), i.e. the least count
  /// the printed comparison accepts.
  static int64_t MinQualifyingCount(double threshold, int64_t num_seasons);

 private:
  double num_seasons_;
  int64_t min_count_;
  bool literal_break_;
  int64_t next_ = 0;
  int64_t chosen_ = -1;
  int64_t chosen_count_ = 0;
};

/// Algorithm 4's outer loop (line 9) over per-window stats computed on
/// demand: validates `config`, slides the window across [now, now + p],
/// asks `stats_fn` for each window until the selection is final, and
/// returns the chosen window's prediction.  `stats_fn` is called once per
/// evaluated window, in slide order, so a store-backed implementation
/// issues no query beyond where the selection stops.
Result<ActivityPrediction> SelectPrediction(
    const PredictionConfig& config, EpochSeconds now,
    const std::function<Result<WindowStats>(EpochSeconds win_start)>&
        stats_fn);

}  // namespace prorp::forecast

#endif  // PRORP_FORECAST_WINDOW_SELECTION_H_
