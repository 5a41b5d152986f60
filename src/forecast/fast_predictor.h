#ifndef PRORP_FORECAST_FAST_PREDICTOR_H_
#define PRORP_FORECAST_FAST_PREDICTOR_H_

#include <string>

#include "forecast/predictor.h"

namespace prorp::forecast {

/// Vectorized Algorithm 4: algebraically identical to
/// SlidingWindowPredictor but restructured for fleet-scale simulation.
/// Instead of one range query per (window, season) pair — p/s x h queries
/// per prediction — it makes one prediction in three steps:
///
///  1. one ReadLogins read from the start of the oldest season's first
///     window to the end of the latest season's last window (the
///     seasons' spans of windows are disjoint because p <= season); a
///     MemHistoryStore hands out its own login array, any other store
///     copies through CollectLogins into a per-thread buffer;
///  2. one counting pass over that span: each login becomes its 32-bit
///     offset in its season and the range of windows that contain it,
///     overlapping ranges of one season merge into a run, and each run
///     adds 1 to a difference array, whose prefix sums are the
///     per-window season counts that WindowSelector consumes, up to
///     where it stops;
///  3. the first/last login offsets of the chosen window only, as a
///     branch-free min/max over step 2's offsets.
///
///   O(m + p/s + h/season) for m logins in the last h, with no
///   window x season loop and, once the per-thread buffers have grown,
///   no heap allocation,
///
/// versus the faithful p/s x h/season x O(log m).  Property tests assert
/// both produce bit-identical predictions on random histories and that a
/// prediction reads the history exactly once.
class FastPredictor : public Predictor {
 public:
  explicit FastPredictor(PredictionConfig config) : config_(config) {}

  Result<ActivityPrediction> PredictNextActivity(
      const history::HistoryStore& history,
      EpochSeconds now) const override;

  std::string name() const override { return "fast_sliding_window"; }

  const PredictionConfig& config() const { return config_; }

 private:
  PredictionConfig config_;
};

}  // namespace prorp::forecast

#endif  // PRORP_FORECAST_FAST_PREDICTOR_H_
