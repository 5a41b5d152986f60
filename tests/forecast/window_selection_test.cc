#include "forecast/window_selection.h"

#include <cmath>
#include <map>
#include <vector>

#include <gtest/gtest.h>

namespace prorp::forecast {
namespace {

PredictionConfig SmallConfig() {
  PredictionConfig cfg;
  cfg.history_length = Days(10);
  cfg.prediction_horizon = Hours(10);
  cfg.window_size = Hours(1);
  cfg.window_slide = Hours(1);  // 10 disjoint windows
  cfg.confidence_threshold = 0.3;
  return cfg;
}

/// Builds a stats function from per-window (seasons_with_activity,
/// first_offset, last_offset) triples keyed by window index.
auto StatsFromTable(const PredictionConfig& cfg, EpochSeconds now,
                    std::map<int64_t, WindowStats> table) {
  return [cfg, now, table = std::move(table)](
             EpochSeconds win_start) -> Result<WindowStats> {
    int64_t index = (win_start - now) / cfg.window_slide;
    auto it = table.find(index);
    if (it != table.end()) return it->second;
    WindowStats empty;
    empty.first_login_offset = cfg.window_size;
    return empty;
  };
}

TEST(WindowSelectionTest, NoQualifyingWindowYieldsNone) {
  PredictionConfig cfg = SmallConfig();
  auto r = SelectPrediction(cfg, 0, StatsFromTable(cfg, 0, {}));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->HasPrediction());
}

TEST(WindowSelectionTest, SkipsSubThresholdWindowsThenSelects) {
  PredictionConfig cfg = SmallConfig();
  // Window 4 has confidence 5/10 = 0.5 >= 0.3; earlier windows are empty.
  std::map<int64_t, WindowStats> table;
  table[4] = {5, Minutes(10), Minutes(40)};
  auto r = SelectPrediction(cfg, 0, StatsFromTable(cfg, 0, table));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->HasPrediction());
  EXPECT_EQ(r->start, 4 * Hours(1) + Minutes(10));
  EXPECT_EQ(r->end, 4 * Hours(1) + Minutes(40));
  EXPECT_DOUBLE_EQ(r->confidence, 0.5);
}

TEST(WindowSelectionTest, KeepsSlidingWhileConfidenceIncreases) {
  PredictionConfig cfg = SmallConfig();
  std::map<int64_t, WindowStats> table;
  table[2] = {4, Minutes(30), Minutes(50)};   // 0.4
  table[3] = {7, Minutes(5), Minutes(45)};    // 0.7 — improves
  table[4] = {7, Minutes(1), Minutes(59)};    // plateau — stops before
  table[5] = {9, 0, Minutes(59)};             // never reached
  auto r = SelectPrediction(cfg, 0, StatsFromTable(cfg, 0, table));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->start, 3 * Hours(1) + Minutes(5));
  EXPECT_DOUBLE_EQ(r->confidence, 0.7);
}

TEST(WindowSelectionTest, LiteralBreakAbortsAtFirstNonQualifier) {
  PredictionConfig cfg = SmallConfig();
  cfg.literal_break = true;
  std::map<int64_t, WindowStats> table;
  table[4] = {9, Minutes(10), Minutes(40)};  // unreachable: window 0 fails
  auto r = SelectPrediction(cfg, 0, StatsFromTable(cfg, 0, table));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->HasPrediction());
  // But a qualifying window 0 is found and kept while improving.
  table[0] = {4, Minutes(1), Minutes(2)};
  auto r2 = SelectPrediction(cfg, 0, StatsFromTable(cfg, 0, table));
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->HasPrediction());
  EXPECT_DOUBLE_EQ(r2->confidence, 0.4);
}

TEST(WindowSelectionTest, ZeroConfidenceWindowsNeverSelectedEvenAtCZero) {
  PredictionConfig cfg = SmallConfig();
  cfg.confidence_threshold = 0.0;
  auto r = SelectPrediction(cfg, 0, StatsFromTable(cfg, 0, {}));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->HasPrediction());  // degenerate c=0 guard
}

/// Offers `counts` in order until the selector stops; returns how many
/// windows it read.
int64_t OfferAll(WindowSelector& selector, std::vector<int64_t> counts) {
  int64_t read = 0;
  for (int64_t c : counts) {
    ++read;
    if (!selector.Offer(c)) break;
  }
  return read;
}

TEST(WindowSelectionTest, LiteralBreakChosenWindow) {
  PredictionConfig cfg = SmallConfig();  // 10 seasons, c = 0.3
  cfg.literal_break = true;
  // Improving windows are taken; the first window that does not improve
  // ends the scan, whether it qualifies (a plateau) or not.
  WindowSelector plateau(cfg);
  EXPECT_EQ(OfferAll(plateau, {4, 6, 6, 9}), 3);
  EXPECT_EQ(plateau.chosen(), 1);
  EXPECT_DOUBLE_EQ(plateau.confidence(), 0.6);
  WindowSelector drop(cfg);
  EXPECT_EQ(OfferAll(drop, {5, 2, 9}), 2);
  EXPECT_EQ(drop.chosen(), 0);
  // The chosen window's offsets, not the last window read, make the
  // prediction: window 1 opens at now + 1 h.
  WindowStats stats{6, Minutes(10), Minutes(40)};
  ActivityPrediction p = plateau.Prediction(Hours(1), stats);
  EXPECT_EQ(p.start, Hours(1) + Minutes(10));
  EXPECT_EQ(p.end, Hours(1) + Minutes(40));
  EXPECT_DOUBLE_EQ(p.confidence, 0.6);
  // Through SelectPrediction, the same counts choose the same window.
  std::map<int64_t, WindowStats> table;
  table[0] = {4, Minutes(1), Minutes(2)};
  table[1] = stats;
  table[2] = {6, Minutes(3), Minutes(4)};
  auto r = SelectPrediction(cfg, 0, StatsFromTable(cfg, 0, table));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, p);
}

TEST(WindowSelectionTest, CZeroChosenWindow) {
  PredictionConfig cfg = SmallConfig();
  cfg.confidence_threshold = 0.0;
  // Empty windows are passed over; the first window with any activity
  // is taken and kept until confidence stops rising.
  WindowSelector selector(cfg);
  EXPECT_EQ(OfferAll(selector, {0, 0, 1, 3, 3, 8}), 5);
  EXPECT_EQ(selector.chosen(), 3);
  EXPECT_DOUBLE_EQ(selector.confidence(), 0.3);
  // With literal_break, c = 0 still skips nothing: the empty window 0
  // is not a candidate, so the printed ELSE BREAK fires there.
  cfg.literal_break = true;
  WindowSelector literal(cfg);
  EXPECT_EQ(OfferAll(literal, {0, 1}), 1);
  EXPECT_EQ(literal.chosen(), -1);
  EXPECT_FALSE(literal.Prediction(0, WindowStats{}).HasPrediction());
}

TEST(WindowSelectionTest, SelectionAtThresholdBoundary) {
  // The selector compares integer counts against the least count whose
  // probability clears c.  At c = k / n exactly, k seasons qualify; one
  // ulp above, only k + 1 do; one ulp below, k still does.
  PredictionConfig cfg = SmallConfig();  // 10 seasons
  cfg.confidence_threshold = 0.3;
  WindowSelector at(cfg);
  EXPECT_EQ(OfferAll(at, {2, 3, 3}), 3);
  EXPECT_EQ(at.chosen(), 1);
  EXPECT_DOUBLE_EQ(at.confidence(), 0.3);
  cfg.confidence_threshold = std::nextafter(0.3, 1.0);
  WindowSelector above(cfg);
  EXPECT_EQ(OfferAll(above, {3, 3, 4, 4}), 4);
  EXPECT_EQ(above.chosen(), 2);
  EXPECT_DOUBLE_EQ(above.confidence(), 0.4);
  cfg.confidence_threshold = std::nextafter(0.3, 0.0);
  WindowSelector below(cfg);
  EXPECT_EQ(OfferAll(below, {2, 3, 2}), 3);
  EXPECT_EQ(below.chosen(), 1);
  // Against the printed expression itself, for every season count up to
  // 60 and thresholds on, just above and just below every k / n.
  for (int64_t n = 1; n <= 60; ++n) {
    const double seasons = static_cast<double>(n);
    for (int64_t k = 0; k <= n; ++k) {
      const double at_k = static_cast<double>(k) / seasons;
      for (double c : {at_k, std::nextafter(at_k, 2.0),
                       std::nextafter(at_k, -1.0)}) {
        if (c < 0.0 || c > 1.0) continue;
        int64_t least = n + 1;
        for (int64_t j = n; j >= 1; --j) {
          if (c <= static_cast<double>(j) / seasons) least = j;
        }
        EXPECT_EQ(WindowSelector::MinQualifyingCount(c, n), least)
            << "n=" << n << " c=" << c;
      }
    }
  }
}

TEST(WindowSelectionTest, StatsErrorPropagates) {
  PredictionConfig cfg = SmallConfig();
  auto r = SelectPrediction(cfg, 0, [](EpochSeconds) -> Result<WindowStats> {
    return Status::Unavailable("store down");
  });
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());
}

TEST(WindowSelectionTest, InvalidConfigRejected) {
  PredictionConfig cfg = SmallConfig();
  cfg.window_slide = 0;
  auto r = SelectPrediction(cfg, 0, StatsFromTable(cfg, 0, {}));
  EXPECT_FALSE(r.ok());
}

TEST(WindowSelectionTest, PredictionToString) {
  ActivityPrediction none;
  EXPECT_EQ(none.ToString(), "no activity predicted");
  ActivityPrediction p;
  p.start = Days(1005) + Hours(9);
  p.end = p.start + Hours(1);
  p.confidence = 0.75;
  EXPECT_NE(p.ToString().find("conf=0.75"), std::string::npos);
}

}  // namespace
}  // namespace prorp::forecast
