#include <algorithm>
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "common/random.h"
#include "forecast/baseline_predictors.h"
#include "forecast/fast_predictor.h"
#include "forecast/sliding_window_predictor.h"
#include "history/mem_history_store.h"
#include "history/sql_history_store.h"

namespace prorp::forecast {
namespace {

using history::kEventLogin;
using history::kEventLogout;
using history::MemHistoryStore;

// A Monday 00:00 UTC anchor well in the future of epoch 0 so that 28 days
// of history fit comfortably.
constexpr EpochSeconds kAnchor = Days(1000) + Days(4);  // day 1004: Monday

/// Fills `store` with one activity session per day at the given offsets
/// for `days` days ending the day before `now`'s day.
void AddDailySessions(MemHistoryStore& store, EpochSeconds now, int days,
                      DurationSeconds login_offset,
                      DurationSeconds logout_offset) {
  EpochSeconds today = StartOfDay(now);
  for (int d = 1; d <= days; ++d) {
    EpochSeconds day = today - Days(d);
    ASSERT_TRUE(store.InsertHistory(day + login_offset, kEventLogin).ok());
    ASSERT_TRUE(store.InsertHistory(day + logout_offset, kEventLogout).ok());
  }
}

PredictionConfig DefaultConfig() { return PredictionConfig{}; }

TEST(SlidingWindowPredictorTest, DetectsPerfectDailyPattern) {
  MemHistoryStore store;
  EpochSeconds now = kAnchor;  // midnight
  AddDailySessions(store, now, 28, Hours(9), Hours(17));
  SlidingWindowPredictor predictor(DefaultConfig());
  auto pred = predictor.PredictNextActivity(store, now);
  ASSERT_TRUE(pred.ok()) << pred.status().ToString();
  ASSERT_TRUE(pred->HasPrediction());
  // The 9:00 login must fall inside the predicted interval; prediction
  // starts at (or just before) the historical login hour.
  EpochSeconds expected_login = now + Hours(9);
  EXPECT_LE(pred->start, expected_login);
  EXPECT_GE(pred->end, expected_login);
  EXPECT_GT(pred->confidence, 0.9);
}

TEST(SlidingWindowPredictorTest, NoHistoryNoPrediction) {
  MemHistoryStore store;
  SlidingWindowPredictor predictor(DefaultConfig());
  auto pred = predictor.PredictNextActivity(store, kAnchor);
  ASSERT_TRUE(pred.ok());
  EXPECT_FALSE(pred->HasPrediction());
  EXPECT_EQ(pred->start, 0);  // Algorithm 1 checks start = 0
}

TEST(SlidingWindowPredictorTest, SparsePatternBelowConfidenceThreshold) {
  MemHistoryStore store;
  EpochSeconds now = kAnchor;
  // Activity on only 2 of 28 days => probability 2/28 ~ 0.07 < 0.1.
  EpochSeconds today = StartOfDay(now);
  for (int d : {3, 17}) {
    ASSERT_TRUE(
        store.InsertHistory(today - Days(d) + Hours(9), kEventLogin).ok());
  }
  SlidingWindowPredictor predictor(DefaultConfig());
  auto pred = predictor.PredictNextActivity(store, now);
  ASSERT_TRUE(pred.ok());
  EXPECT_FALSE(pred->HasPrediction());
  // Lowering the threshold makes the same pattern predictable.
  PredictionConfig loose = DefaultConfig();
  loose.confidence_threshold = 0.05;
  SlidingWindowPredictor loose_predictor(loose);
  auto pred2 = loose_predictor.PredictNextActivity(store, now);
  ASSERT_TRUE(pred2.ok());
  EXPECT_TRUE(pred2->HasPrediction());
}

TEST(SlidingWindowPredictorTest, LiteralBreakMissesLaterActivity) {
  // With activity at 9:00 and "now" at midnight, the first window
  // [00:00, 07:00] has zero confidence; the printed ELSE BREAK aborts
  // immediately and predicts nothing, while the corrected scan finds it.
  MemHistoryStore store;
  EpochSeconds now = kAnchor;
  AddDailySessions(store, now, 28, Hours(9), Hours(10));
  PredictionConfig literal = DefaultConfig();
  literal.literal_break = true;
  SlidingWindowPredictor literal_predictor(literal);
  auto p1 = literal_predictor.PredictNextActivity(store, now);
  ASSERT_TRUE(p1.ok());
  EXPECT_FALSE(p1->HasPrediction());

  SlidingWindowPredictor corrected(DefaultConfig());
  auto p2 = corrected.PredictNextActivity(store, now);
  ASSERT_TRUE(p2.ok());
  EXPECT_TRUE(p2->HasPrediction());
}

TEST(SlidingWindowPredictorTest, WeeklySeasonalityFindsWeeklyPattern) {
  MemHistoryStore store;
  EpochSeconds now = kAnchor;  // Monday 00:00
  // Logins only on Mondays at 8:00 for 8 weeks.
  for (int wk = 1; wk <= 8; ++wk) {
    ASSERT_TRUE(store
                    .InsertHistory(StartOfDay(now) - Weeks(wk) + Hours(8),
                                   kEventLogin)
                    .ok());
  }
  // Daily seasonality sees activity on only 8 of 56 days spread across
  // weekdays => the Monday pattern is invisible at c = 0.5.
  PredictionConfig daily = DefaultConfig();
  daily.history_length = Weeks(8);
  daily.confidence_threshold = 0.5;
  SlidingWindowPredictor daily_pred(daily);
  auto p_daily = daily_pred.PredictNextActivity(store, now);
  ASSERT_TRUE(p_daily.ok());
  EXPECT_FALSE(p_daily->HasPrediction());

  // Weekly seasonality looks back Monday-to-Monday: confidence 1.0.
  PredictionConfig weekly = DefaultConfig();
  weekly.history_length = Weeks(8);
  weekly.seasonality = Weeks(1);
  weekly.confidence_threshold = 0.5;
  SlidingWindowPredictor weekly_pred(weekly);
  auto p_weekly = weekly_pred.PredictNextActivity(store, now);
  ASSERT_TRUE(p_weekly.ok());
  ASSERT_TRUE(p_weekly->HasPrediction());
  EXPECT_LE(p_weekly->start, now + Hours(8));
  EXPECT_GE(p_weekly->end, now + Hours(8));
  EXPECT_DOUBLE_EQ(p_weekly->confidence, 1.0);
}

TEST(SlidingWindowPredictorTest, PredictionNeverStartsInThePast) {
  MemHistoryStore store;
  EpochSeconds now = kAnchor + Hours(11);  // mid-day
  AddDailySessions(store, now, 28, Hours(9), Hours(17));
  SlidingWindowPredictor predictor(DefaultConfig());
  auto pred = predictor.PredictNextActivity(store, now);
  ASSERT_TRUE(pred.ok());
  if (pred->HasPrediction()) {
    EXPECT_GE(pred->start, now);
    EXPECT_GE(pred->end, pred->start);
  }
}

// Figure 5 of the paper: 5 days of history, a window with confidence 4/5
// and a window with confidence 5/5; the prediction takes the
// higher-confidence window's extremes.
TEST(SlidingWindowPredictorTest, Figure5Example) {
  MemHistoryStore store;
  EpochSeconds now = kAnchor;
  EpochSeconds today = StartOfDay(now);
  // Days 1-5 (1 = yesterday ... 5): logins around 10:00; day 3 has two
  // separate logins inside the window (as in the figure); day 2 has none
  // early but one at 11:15 (so narrow early windows have confidence 4/5).
  struct DayLogins {
    int day;
    std::vector<DurationSeconds> logins;
  };
  std::vector<DayLogins> days = {
      {1, {Hours(10)}},
      {2, {Hours(11) + Minutes(15)}},
      {3, {Hours(9) + Minutes(30), Hours(12)}},
      {4, {Hours(10) + Minutes(15)}},
      {5, {Hours(10) + Minutes(45)}},
  };
  for (const auto& d : days) {
    for (DurationSeconds offset : d.logins) {
      ASSERT_TRUE(
          store.InsertHistory(today - Days(d.day) + offset, kEventLogin)
              .ok());
    }
  }
  PredictionConfig cfg;
  cfg.history_length = Days(5);
  cfg.window_size = Hours(3);
  cfg.window_slide = Minutes(30);
  cfg.confidence_threshold = 0.8;
  SlidingWindowPredictor predictor(cfg);
  auto pred = predictor.PredictNextActivity(store, now);
  ASSERT_TRUE(pred.ok());
  ASSERT_TRUE(pred->HasPrediction());
  // The selected window covers all five days' logins => confidence 1.
  EXPECT_DOUBLE_EQ(pred->confidence, 1.0);
  // Predicted interval spans the earliest and latest observed login
  // offsets of the winning window.
  EXPECT_LE(pred->start, now + Hours(9) + Minutes(30) + Hours(1));
  EXPECT_GE(pred->end, now + Hours(11) + Minutes(15));
}

TEST(SlidingWindowPredictorTest, BoundaryLoginNotDoubleCounted) {
  // Regression for the inclusive season-window bound: a login exactly at
  // prev_start + window_size used to be counted in two adjacent sliding
  // windows, inflating seasons_with_activity past the confidence
  // threshold.
  MemHistoryStore store;
  EpochSeconds now = kAnchor;
  EpochSeconds today = StartOfDay(now);
  // Three logins exactly window_size (2 h) apart: no half-open 2 h window
  // can contain more than one of them.
  ASSERT_TRUE(
      store.InsertHistory(today - Days(1) + Hours(8), kEventLogin).ok());
  ASSERT_TRUE(
      store.InsertHistory(today - Days(2) + Hours(10), kEventLogin).ok());
  ASSERT_TRUE(
      store.InsertHistory(today - Days(3) + Hours(12), kEventLogin).ok());
  PredictionConfig cfg;
  cfg.history_length = Days(5);
  cfg.window_size = Hours(2);
  cfg.window_slide = Minutes(30);
  cfg.confidence_threshold = 0.4;  // 2 of 5 seasons
  SlidingWindowPredictor faithful(cfg);
  FastPredictor fast(cfg);
  auto a = faithful.PredictNextActivity(store, now);
  auto b = fast.PredictNextActivity(store, now);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // With the inclusive bound, window [8:00, 10:00] counted both the 8:00
  // and the boundary 10:00 login (2 of 5 seasons) and emitted a spurious
  // prediction; with half-open windows every window sees at most one
  // active season, below the threshold.
  EXPECT_FALSE(a->HasPrediction());
  EXPECT_EQ(*a, *b);
}

TEST(FastPredictorTest, MatchesFaithfulOnDailyPattern) {
  MemHistoryStore store;
  EpochSeconds now = kAnchor + Hours(3);
  AddDailySessions(store, now, 28, Hours(8) + Minutes(17),
                   Hours(16) + Minutes(42));
  SlidingWindowPredictor slow(DefaultConfig());
  FastPredictor fast(DefaultConfig());
  auto a = slow.PredictNextActivity(store, now);
  auto b = fast.PredictNextActivity(store, now);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_TRUE(a->HasPrediction());
}

/// A random valid configuration: any c, window and slide, with daily or
/// (one time in four) weekly seasonality.
PredictionConfig RandomConfig(Rng& rng) {
  PredictionConfig cfg;
  cfg.history_length = Days(rng.NextInt(7, 28));
  cfg.window_size = Hours(rng.NextInt(1, 8));
  cfg.window_slide = Minutes(rng.NextInt(1, 12) * 5);
  cfg.confidence_threshold = rng.NextDouble();
  cfg.literal_break = rng.NextBool(0.3);
  if (rng.NextBool(0.25)) {
    cfg.seasonality = Weeks(1);
    cfg.prediction_horizon = Days(rng.NextInt(1, 7));
    cfg.history_length = Weeks(rng.NextInt(1, 4));
  }
  return cfg;
}

/// Adds `sessions_per_day` random sessions on each of `days` days before
/// `now`'s day, skipping each day with probability 1 - `day_coverage`.
void AddRandomSessions(Rng& rng, history::HistoryStore& store,
                       EpochSeconds now, int days, int sessions_per_day,
                       double day_coverage) {
  for (int d = 1; d <= days; ++d) {
    if (!rng.NextBool(day_coverage)) continue;
    for (int s = 0; s < sessions_per_day; ++s) {
      EpochSeconds login = StartOfDay(now) - Days(d) +
                           rng.NextInt(0, Days(1) - Hours(1));
      ASSERT_TRUE(store.InsertHistory(login, kEventLogin).ok());
      ASSERT_TRUE(
          store.InsertHistory(login + rng.NextInt(60, Hours(3)),
                              kEventLogout)
              .ok());
    }
  }
}

/// The faithful predictor over `faithful_store` and the vectorized one
/// over `fast_store` agree on `cfg` and on `cfg` with literal_break
/// flipped.
void ExpectFastEqualsFaithful(const history::HistoryStore& faithful_store,
                              const history::HistoryStore& fast_store,
                              PredictionConfig cfg, EpochSeconds now) {
  for (int flip = 0; flip < 2; ++flip) {
    SlidingWindowPredictor slow(cfg);
    FastPredictor fast(cfg);
    auto a = slow.PredictNextActivity(faithful_store, now);
    auto b = fast.PredictNextActivity(fast_store, now);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(*a, *b) << "cfg h=" << cfg.history_length
                      << " p=" << cfg.prediction_horizon
                      << " w=" << cfg.window_size
                      << " s=" << cfg.window_slide
                      << " season=" << cfg.seasonality
                      << " c=" << cfg.confidence_threshold
                      << " literal_break=" << cfg.literal_break
                      << " now=" << now << ": " << a->ToString() << " vs "
                      << b->ToString();
    cfg.literal_break = !cfg.literal_break;
  }
}

void ExpectFastEqualsFaithful(const history::HistoryStore& store,
                              const PredictionConfig& cfg,
                              EpochSeconds now) {
  ExpectFastEqualsFaithful(store, store, cfg, now);
}

/// Forwards to a MemHistoryStore and counts the predictors' reads.
class CountingHistoryStore : public history::HistoryStore {
 public:
  Status InsertHistory(EpochSeconds time, int event_type) override {
    return inner.InsertHistory(time, event_type);
  }
  Result<bool> DeleteOldHistory(DurationSeconds h,
                                EpochSeconds now) override {
    return inner.DeleteOldHistory(h, now);
  }
  Result<history::LoginRangeAgg> LoginMinMax(
      EpochSeconds lo, EpochSeconds hi) const override {
    ++login_min_max_calls;
    return inner.LoginMinMax(lo, hi);
  }
  Result<std::vector<EpochSeconds>> CollectLogins(
      EpochSeconds lo, EpochSeconds hi) const override {
    ++collect_calls;
    return inner.CollectLogins(lo, hi);
  }
  Result<std::vector<history::HistoryTuple>> ReadAll() const override {
    return inner.ReadAll();
  }
  Result<EpochSeconds> MinTimestamp() const override {
    return inner.MinTimestamp();
  }
  uint64_t NumTuples() const override { return inner.NumTuples(); }

  MemHistoryStore inner;
  mutable int collect_calls = 0;
  mutable int login_min_max_calls = 0;
};

// Property sweep: on random histories and random configurations the
// faithful and vectorized predictors are bit-identical.
class PredictorEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(PredictorEquivalenceTest, FastEqualsFaithful) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE(trial);
    MemHistoryStore store;
    EpochSeconds now = kAnchor + rng.NextInt(0, Days(1) - 1);
    AddRandomSessions(rng, store, now, static_cast<int>(rng.NextInt(0, 35)),
                      static_cast<int>(rng.NextInt(1, 3)), 0.7);
    ExpectFastEqualsFaithful(store, RandomConfig(rng), now);
  }
}

TEST_P(PredictorEquivalenceTest, DenseHistories) {
  // 32 sessions a day: every window holds logins from many seasons, and
  // the logins of one season overlap in most windows.
  Rng rng(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    SCOPED_TRACE(trial);
    MemHistoryStore store;
    EpochSeconds now = kAnchor + rng.NextInt(0, Days(1) - 1);
    AddRandomSessions(rng, store, now, 35, 32, rng.NextDouble());
    ExpectFastEqualsFaithful(store, RandomConfig(rng), now);
  }
}

TEST_P(PredictorEquivalenceTest, LoginsOnWindowAndSpanBoundaries) {
  // Logins exactly on slide multiples, on window ends and on both ends
  // of a season's span (and one second outside it), where an off-by-one
  // in the half-open windows or in the one-read range would show.
  Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(trial);
    PredictionConfig cfg = RandomConfig(rng);
    // Half the time `now` is itself on a slide multiple of midnight.
    EpochSeconds now = kAnchor + (rng.NextBool(0.5)
                                      ? rng.NextInt(0, 24) * cfg.window_slide
                                      : rng.NextInt(0, Days(1) - 1));
    const DurationSeconds span =
        (cfg.NumWindows() - 1) * cfg.window_slide + cfg.window_size;
    // Thresholds of a few seasons let logins on one shared window index
    // decide between neighbouring windows.
    if (rng.NextBool(0.5)) {
      const int64_t needed =
          rng.NextInt(1, std::min<int64_t>(3, cfg.NumSeasons()));
      cfg.confidence_threshold = static_cast<double>(needed) /
                                 static_cast<double>(cfg.NumSeasons());
    }
    const int64_t shared = rng.NextInt(0, cfg.NumWindows() - 1);
    const double density = rng.NextDouble();
    MemHistoryStore store;
    const int64_t seasons = cfg.NumSeasons() + 1;  // one season too old
    for (int64_t k = 1; k <= seasons; ++k) {
      if (!rng.NextBool(density)) continue;
      const EpochSeconds base = now - k * cfg.seasonality;
      const int64_t i = rng.NextBool(0.5)
                            ? shared
                            : rng.NextInt(0, cfg.NumWindows() - 1);
      for (EpochSeconds t :
           {base + i * cfg.window_slide, base + i * cfg.window_slide - 1,
            base + i * cfg.window_slide + cfg.window_size,
            base + i * cfg.window_slide + cfg.window_size - 1, base,
            base - 1, base + span - 1, base + span}) {
        if (rng.NextBool(density)) {
          ASSERT_TRUE(store.InsertHistory(t, kEventLogin).ok());
        }
      }
    }
    ExpectFastEqualsFaithful(store, cfg, now);
  }
}

TEST_P(PredictorEquivalenceTest, ConfidenceThresholdExtremes) {
  // c = 0 takes the first window with any activity; c = 1 needs a login
  // in every season.
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE(trial);
    MemHistoryStore store;
    EpochSeconds now = kAnchor + rng.NextInt(0, Days(1) - 1);
    AddRandomSessions(rng, store, now, 35, static_cast<int>(rng.NextInt(1, 4)),
                      rng.NextBool(0.5) ? 1.0 : 0.9);
    PredictionConfig cfg = RandomConfig(rng);
    for (double c : {0.0, 1.0}) {
      cfg.confidence_threshold = c;
      ExpectFastEqualsFaithful(store, cfg, now);
    }
  }
}

TEST_P(PredictorEquivalenceTest, WeeklySeasonality) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 15; ++trial) {
    SCOPED_TRACE(trial);
    MemHistoryStore store;
    EpochSeconds now = kAnchor + rng.NextInt(0, Weeks(1) - 1);
    AddRandomSessions(rng, store, now, 35, static_cast<int>(rng.NextInt(1, 8)),
                      rng.NextDouble());
    PredictionConfig cfg = RandomConfig(rng);
    cfg.seasonality = Weeks(1);
    cfg.history_length = Weeks(rng.NextInt(1, 5));
    cfg.prediction_horizon = Days(rng.NextInt(1, 7));
    ExpectFastEqualsFaithful(store, cfg, now);
  }
}

TEST_P(PredictorEquivalenceTest, SqlFaithfulEqualsMemFastOnRandomConfigs) {
  // The faithful predictor's literal SQL queries against the fast
  // predictor's one in-memory read, on the same random history.
  Rng rng(GetParam());
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE(trial);
    auto sql_store = history::SqlHistoryStore::Open();
    ASSERT_TRUE(sql_store.ok());
    MemHistoryStore mem_store;
    EpochSeconds now = kAnchor + rng.NextInt(0, Days(1) - 1);
    AddRandomSessions(rng, mem_store, now, 35,
                      static_cast<int>(rng.NextInt(1, 4)), rng.NextDouble());
    auto tuples = mem_store.ReadAll();
    ASSERT_TRUE(tuples.ok());
    for (const history::HistoryTuple& t : *tuples) {
      ASSERT_TRUE(
          (*sql_store)->InsertHistory(t.time_snapshot, t.event_type).ok());
    }
    ExpectFastEqualsFaithful(**sql_store, mem_store, RandomConfig(rng), now);
  }
}

/// FastPredictor over `store`'s in-place read equals FastPredictor over
/// the CollectLogins copy of the same history (a store without its own
/// ReadLogins), with and without literal_break, and both equal the
/// faithful predictor.
void ExpectInPlaceEqualsCopy(const MemHistoryStore& store,
                             const PredictionConfig& cfg, EpochSeconds now) {
  CountingHistoryStore copying;
  copying.inner = store;
  for (bool literal_break : {false, true}) {
    PredictionConfig flipped = cfg;
    flipped.literal_break = literal_break;
    FastPredictor fast(flipped);
    auto in_place = fast.PredictNextActivity(store, now);
    auto copied = fast.PredictNextActivity(copying, now);
    ASSERT_TRUE(in_place.ok()) << in_place.status().ToString();
    ASSERT_TRUE(copied.ok()) << copied.status().ToString();
    EXPECT_EQ(*in_place, *copied)
        << "literal_break=" << literal_break << ": " << in_place->ToString()
        << " vs " << copied->ToString();
  }
  EXPECT_EQ(copying.collect_calls, 2);
  ExpectFastEqualsFaithful(store, cfg, now);
}

TEST_P(PredictorEquivalenceTest, InPlaceReadEqualsCollectLoginsCopy) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE(trial);
    MemHistoryStore store;
    EpochSeconds now = kAnchor + rng.NextInt(0, Days(1) - 1);
    AddRandomSessions(rng, store, now, static_cast<int>(rng.NextInt(0, 35)),
                      static_cast<int>(rng.NextInt(1, 32)), rng.NextDouble());
    ExpectInPlaceEqualsCopy(store, RandomConfig(rng), now);
  }
}

TEST_P(PredictorEquivalenceTest, MoreThan1024Windows) {
  // s = 1 min: over a thousand windows a day (ten thousand a week), more
  // than any smaller config before it on this thread sized the buffers
  // for; a default config after it reuses them.
  Rng rng(GetParam());
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE(trial);
    MemHistoryStore store;
    EpochSeconds now = kAnchor + rng.NextInt(0, Weeks(1) - 1);
    AddRandomSessions(rng, store, now, 35, static_cast<int>(rng.NextInt(1, 6)),
                      rng.NextDouble());
    PredictionConfig cfg = RandomConfig(rng);
    cfg.window_size = Hours(rng.NextInt(1, 6));
    cfg.window_slide = Minutes(1);
    ASSERT_GT(cfg.NumWindows(), 1024);
    ExpectInPlaceEqualsCopy(store, DefaultConfig(), now);
    ExpectInPlaceEqualsCopy(store, cfg, now);
    ExpectInPlaceEqualsCopy(store, DefaultConfig(), now);
  }
}

TEST_P(PredictorEquivalenceTest, LiteralBreakInPlace) {
  // Daily 9:00 logins seen from midnight: window 0 is empty, so the
  // printed ELSE BREAK predicts nothing where the corrected reading
  // predicts 9:00; random histories follow.
  Rng rng(GetParam());
  MemHistoryStore daily;
  AddDailySessions(daily, kAnchor, 28, Hours(9), Hours(10));
  PredictionConfig cfg = DefaultConfig();
  cfg.literal_break = true;
  auto literal = FastPredictor(cfg).PredictNextActivity(daily, kAnchor);
  ASSERT_TRUE(literal.ok());
  EXPECT_FALSE(literal->HasPrediction());
  ExpectInPlaceEqualsCopy(daily, cfg, kAnchor);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE(trial);
    MemHistoryStore store;
    EpochSeconds now = kAnchor + rng.NextInt(0, Days(1) - 1);
    AddRandomSessions(rng, store, now, 35, static_cast<int>(rng.NextInt(1, 4)),
                      rng.NextDouble());
    cfg = RandomConfig(rng);
    cfg.literal_break = true;
    ExpectInPlaceEqualsCopy(store, cfg, now);
  }
}

TEST_P(PredictorEquivalenceTest, ConfidenceExtremesAndCountBoundariesInPlace) {
  // c = 0, c = 1, and c exactly at k / n or one ulp above it, where the
  // integer count comparison must agree with the printed division.
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    SCOPED_TRACE(trial);
    MemHistoryStore store;
    EpochSeconds now = kAnchor + rng.NextInt(0, Days(1) - 1);
    AddRandomSessions(rng, store, now, 35, static_cast<int>(rng.NextInt(1, 4)),
                      rng.NextBool(0.5) ? 1.0 : 0.8);
    PredictionConfig cfg = RandomConfig(rng);
    const double n = static_cast<double>(cfg.NumSeasons());
    const double at_k = static_cast<double>(rng.NextInt(1, cfg.NumSeasons())) / n;
    for (double c : {0.0, 1.0, at_k, std::nextafter(at_k, 2.0),
                     std::nextafter(at_k, 0.0)}) {
      cfg.confidence_threshold = std::min(c, 1.0);
      ExpectInPlaceEqualsCopy(store, cfg, now);
    }
  }
}

TEST_P(PredictorEquivalenceTest, WeeklySeasonalityInPlace) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    SCOPED_TRACE(trial);
    MemHistoryStore store;
    EpochSeconds now = kAnchor + rng.NextInt(0, Weeks(1) - 1);
    AddRandomSessions(rng, store, now, 35, static_cast<int>(rng.NextInt(1, 8)),
                      rng.NextDouble());
    PredictionConfig cfg = RandomConfig(rng);
    cfg.seasonality = Weeks(1);
    cfg.history_length = Weeks(rng.NextInt(1, 5));
    cfg.prediction_horizon = Days(rng.NextInt(1, 7));
    ExpectInPlaceEqualsCopy(store, cfg, now);
  }
}

TEST_P(PredictorEquivalenceTest, LifespanWitnessInsideReadRange) {
  // A retention cut with a shorter h, taken days before `now`, leaves the
  // lifespan witness (login or logout) in the slot just before the first
  // kept tuple, inside the range the next 28-day prediction reads.  The
  // SQL store, which really deletes, must predict the same.
  Rng rng(GetParam());
  for (int trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE(trial);
    auto sql_store = history::SqlHistoryStore::Open();
    ASSERT_TRUE(sql_store.ok());
    MemHistoryStore store;
    const EpochSeconds now = kAnchor + rng.NextInt(0, Days(1) - 1);
    const bool logout_witness = rng.NextBool(0.5);
    const EpochSeconds witness =
        StartOfDay(now) - Days(26) + rng.NextInt(0, Hours(20));
    for (history::HistoryStore* s :
         {static_cast<history::HistoryStore*>(&store),
          static_cast<history::HistoryStore*>(sql_store->get())}) {
      ASSERT_TRUE(
          s->InsertHistory(witness, logout_witness ? kEventLogout : kEventLogin)
              .ok());
    }
    AddRandomSessions(rng, store, now, 25, static_cast<int>(rng.NextInt(1, 4)),
                      0.9);
    auto tuples = store.ReadAll();
    ASSERT_TRUE(tuples.ok());
    for (const history::HistoryTuple& t : *tuples) {
      ASSERT_TRUE(
          (*sql_store)->InsertHistory(t.time_snapshot, t.event_type).ok());
    }
    for (DurationSeconds cut : {Days(20), Days(14), Days(9)}) {
      auto a = store.DeleteOldHistory(cut, now - Days(3));
      auto b = (*sql_store)->DeleteOldHistory(cut, now - Days(3));
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(*a, *b);
    }
    EXPECT_EQ(*store.MinTimestamp(), witness);
    EXPECT_EQ(*store.ReadAll(), *(*sql_store)->ReadAll());
    PredictionConfig cfg = DefaultConfig();
    cfg.confidence_threshold = rng.NextDouble() * 0.3;
    ASSERT_GE(witness, now - cfg.NumSeasons() * cfg.seasonality);
    ExpectInPlaceEqualsCopy(store, cfg, now);
    ExpectFastEqualsFaithful(**sql_store, store, cfg, now);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredictorEquivalenceTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

TEST(PredictorEquivalenceTest, SqlStoreMatchesMemStore) {
  // End-to-end: the faithful predictor over the real SQL store equals the
  // fast predictor over the in-memory store for the same history.
  auto sql_store = history::SqlHistoryStore::Open();
  ASSERT_TRUE(sql_store.ok());
  MemHistoryStore mem_store;
  Rng rng(99);
  EpochSeconds now = kAnchor;
  for (int d = 1; d <= 28; ++d) {
    if (!rng.NextBool(0.8)) continue;
    EpochSeconds login =
        StartOfDay(now) - Days(d) + Hours(9) + rng.NextInt(0, Minutes(40));
    ASSERT_TRUE((*sql_store)->InsertHistory(login, kEventLogin).ok());
    ASSERT_TRUE(mem_store.InsertHistory(login, kEventLogin).ok());
    ASSERT_TRUE(
        (*sql_store)->InsertHistory(login + Hours(8), kEventLogout).ok());
    ASSERT_TRUE(mem_store.InsertHistory(login + Hours(8), kEventLogout).ok());
  }
  SlidingWindowPredictor slow(DefaultConfig());
  FastPredictor fast(DefaultConfig());
  auto a = slow.PredictNextActivity(**sql_store, now);
  auto b = fast.PredictNextActivity(mem_store, now);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_TRUE(a->HasPrediction());
}

TEST(FastPredictorTest, OneHistoryReadPerPrediction) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE(trial);
    CountingHistoryStore store;
    EpochSeconds now = kAnchor + rng.NextInt(0, Days(1) - 1);
    AddRandomSessions(rng, store, now, 35,
                      static_cast<int>(rng.NextInt(0, 8)), rng.NextDouble());
    FastPredictor fast(RandomConfig(rng));
    ASSERT_TRUE(fast.PredictNextActivity(store, now).ok());
    EXPECT_EQ(store.collect_calls, 1);
    EXPECT_EQ(store.login_min_max_calls, 0);
  }
}

TEST(SlidingWindowPredictorTest, QueriesStopWhereSelectionStops) {
  // Daily 9:00 logins, now at midnight, w = 7 h, s = 5 min: window 25,
  // [2:05, 9:05), is the first to hold 9:00 (in all 28 seasons), window
  // 26 does not improve on it, and the scan stops there after
  // 27 windows x 28 seasons = 756 range queries.
  CountingHistoryStore store;
  AddDailySessions(store.inner, kAnchor, 28, Hours(9), Hours(10));
  SlidingWindowPredictor faithful(DefaultConfig());
  auto pred = faithful.PredictNextActivity(store, kAnchor);
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ(pred->start, kAnchor + Hours(9));
  EXPECT_EQ(pred->end, kAnchor + Hours(9));
  EXPECT_DOUBLE_EQ(pred->confidence, 1.0);
  EXPECT_EQ(store.login_min_max_calls, 27 * 28);
  EXPECT_EQ(store.collect_calls, 0);
}

TEST(BaselinePredictorsTest, NeverPredictsNothing) {
  MemHistoryStore store;
  NeverPredictor never;
  auto p = never.PredictNextActivity(store, kAnchor);
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->HasPrediction());
}

TEST(BaselinePredictorsTest, FailingIsUnavailable) {
  MemHistoryStore store;
  FailingPredictor failing;
  auto p = failing.PredictNextActivity(store, kAnchor);
  EXPECT_FALSE(p.ok());
  EXPECT_TRUE(p.status().IsUnavailable());
}

TEST(BaselinePredictorsTest, FixedDelayIsControllable) {
  MemHistoryStore store;
  FixedDelayPredictor fixed(Hours(2), Hours(1));
  auto p = fixed.PredictNextActivity(store, 1000);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->start, 1000 + Hours(2));
  EXPECT_EQ(p->end, 1000 + Hours(3));
}

TEST(PredictionConfigValidationTest, InvalidConfigSurfacesAsError) {
  MemHistoryStore store;
  PredictionConfig bad;
  bad.window_slide = 0;
  SlidingWindowPredictor p1(bad);
  EXPECT_TRUE(
      p1.PredictNextActivity(store, kAnchor).status().IsInvalidArgument());
  FastPredictor p2(bad);
  EXPECT_TRUE(
      p2.PredictNextActivity(store, kAnchor).status().IsInvalidArgument());
}

}  // namespace
}  // namespace prorp::forecast
