#include <gtest/gtest.h>

#include "workload/region.h"
#include "workload/trace.h"
#include "workload/trace_source.h"

namespace prorp::workload {
namespace {

constexpr EpochSeconds kFrom = Days(1000);
constexpr EpochSeconds kTo = Days(1035);

/// Runs raw sessions (ascending starts) through NormalizingCursor.
std::vector<Session> Normalize(std::vector<Session> raw, EpochSeconds from,
                               EpochSeconds to, DurationSeconds min_gap) {
  std::vector<DbTrace> traces(1);
  traces[0].sessions = std::move(raw);
  MaterializedTraceSource source(traces);
  NormalizingCursor cursor(source.Open(0), from, to, min_gap);
  std::vector<Session> out;
  Session s;
  while (cursor.Next(&s)) out.push_back(s);
  return out;
}

TEST(NormalizeSessionsTest, ClipsAndMerges) {
  std::vector<Session> sessions = Normalize(
      {
          {-50, 20},                // clipped to [0, ...)
          {100, 130},
          {200, 300}, {290, 400},   // {290,400} overlaps {200,300}
          {500, 520}, {525, 560},   // closer than min_gap=60
          {900, 905},
      },
      0, 1000, 60);
  ASSERT_EQ(sessions.size(), 5u);
  EXPECT_EQ(sessions[0], (Session{0, 20}));
  EXPECT_EQ(sessions[1], (Session{100, 130}));
  EXPECT_EQ(sessions[2], (Session{200, 400}));
  EXPECT_EQ(sessions[3], (Session{500, 560}));
  EXPECT_EQ(sessions[4], (Session{900, 905}));
}

TEST(NormalizeSessionsTest, DropsDegenerate) {
  EXPECT_TRUE(Normalize({{100, 100}, {2000, 2100}}, 0, 1500, 60).empty());
}

// Structural invariants that every generator must uphold.
class PatternInvariantTest
    : public ::testing::TestWithParam<PatternType> {};

TEST_P(PatternInvariantTest, SessionsAreSortedDisjointAndInWindow) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    Rng rng(seed);
    DbTrace trace = GenerateTrace(GetParam(), 0, kFrom, kTo, rng);
    for (size_t i = 0; i < trace.sessions.size(); ++i) {
      const Session& s = trace.sessions[i];
      EXPECT_GE(s.start, kFrom);
      EXPECT_LE(s.end, kTo);
      EXPECT_GT(s.end, s.start);
      if (i > 0) {
        EXPECT_GE(s.start - trace.sessions[i - 1].end, kSecondsPerMinute);
      }
    }
    if (!trace.sessions.empty()) {
      EXPECT_EQ(trace.created_at, trace.sessions.front().start);
    }
  }
}

TEST_P(PatternInvariantTest, DeterministicInSeed) {
  Rng rng_a(123), rng_b(123);
  DbTrace a = GenerateTrace(GetParam(), 0, kFrom, kTo, rng_a);
  DbTrace b = GenerateTrace(GetParam(), 0, kFrom, kTo, rng_b);
  EXPECT_EQ(a.sessions, b.sessions);
}

/// Test-name suffix of each pattern, in PatternType order.
std::string PatternName(PatternType type) {
  static constexpr const char* kNames[] = {
      "daily_business", "daily",  "weekly",  "always_busy",
      "sporadic",       "bursty", "dev_test"};
  return kNames[static_cast<int>(type)];
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, PatternInvariantTest,
    ::testing::Values(PatternType::kDailyBusiness, PatternType::kDaily,
                      PatternType::kWeekly, PatternType::kAlwaysBusy,
                      PatternType::kSporadic, PatternType::kBursty,
                      PatternType::kDevTest),
    [](const auto& info) { return PatternName(info.param); });

TEST(PatternShapeTest, DailyBusinessSkipsWeekends) {
  Rng rng(5);
  DbTrace trace =
      GenerateTrace(PatternType::kDailyBusiness, 0, kFrom, kTo, rng);
  int weekend_sessions = 0;
  for (const Session& s : trace.sessions) {
    if (IsWeekend(s.start)) ++weekend_sessions;
  }
  EXPECT_LT(weekend_sessions, static_cast<int>(trace.sessions.size()) / 5);
}

TEST(PatternShapeTest, WeeklyUsesAtMostTwoWeekdays) {
  Rng rng(11);
  DbTrace trace = GenerateTrace(PatternType::kWeekly, 0, kFrom, kTo, rng);
  std::set<int> weekdays;
  for (const Session& s : trace.sessions) {
    weekdays.insert(WeekdayIndex(s.start));
  }
  EXPECT_LE(weekdays.size(), 2u);
  EXPECT_GE(trace.sessions.size(), 3u);
}

TEST(PatternShapeTest, AlwaysBusyHasManyShortGaps) {
  Rng rng(13);
  DbTrace trace =
      GenerateTrace(PatternType::kAlwaysBusy, 0, kFrom, kTo, rng);
  GapStats stats = ComputeGapStats({trace});
  EXPECT_GT(stats.gap_count, 50u);
  EXPECT_GT(stats.short_gap_count_fraction, 0.5);
}

TEST(PatternShapeTest, SporadicHasLongGaps) {
  Rng rng(17);
  DbTrace trace = GenerateTrace(PatternType::kSporadic, 0, kFrom, kTo, rng);
  GapStats stats = ComputeGapStats({trace});
  EXPECT_LT(stats.within_l_count_fraction, 0.3);
}

TEST(PatternShapeTest, BurstyProducesLargeHistories) {
  // Worst-case Figure 10(a): thousands of tuples per 28 days.
  Rng rng(19);
  DbTrace trace = GenerateTrace(PatternType::kBursty, 0, kFrom,
                                kFrom + Days(28), rng);
  // Each session contributes 2 history tuples.
  EXPECT_GT(trace.sessions.size() * 2, 500u);
}

TEST(GapStatsTest, CountsAndFractions) {
  DbTrace trace;
  trace.sessions = {{0, 100},
                    {100 + Minutes(30), 200 + Minutes(30)},   // 30 min gap
                    {Hours(10), Hours(11)},                   // long gap
                    {Hours(30), Hours(31)}};                  // 19h gap
  GapStats stats = ComputeGapStats({trace});
  EXPECT_EQ(stats.gap_count, 3u);
  EXPECT_NEAR(stats.short_gap_count_fraction, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(stats.within_l_count_fraction, 1.0 / 3.0, 1e-9);
  EXPECT_LT(stats.short_gap_duration_fraction, 0.05);
}

TEST(RegionTest, FleetGenerationDeterministicAndComplete) {
  RegionProfile profile = RegionEU1();
  auto fleet_a = GenerateFleet(profile, 200, kFrom, kTo, 42);
  auto fleet_b = GenerateFleet(profile, 200, kFrom, kTo, 42);
  ASSERT_EQ(fleet_a.size(), 200u);
  for (size_t i = 0; i < fleet_a.size(); ++i) {
    EXPECT_EQ(fleet_a[i].db_id, i);
    EXPECT_EQ(fleet_a[i].sessions, fleet_b[i].sessions);
    EXPECT_EQ(fleet_a[i].pattern, fleet_b[i].pattern);
  }
  auto fleet_c = GenerateFleet(profile, 200, kFrom, kTo, 43);
  bool any_diff = false;
  for (size_t i = 0; i < fleet_a.size(); ++i) {
    if (fleet_a[i].sessions != fleet_c[i].sessions) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RegionTest, MixCoversMultiplePatterns) {
  auto fleet = GenerateFleet(RegionEU1(), 500, kFrom, kTo, 1);
  std::set<PatternType> seen;
  for (const DbTrace& t : fleet) seen.insert(t.pattern);
  EXPECT_GE(seen.size(), 5u);
}

TEST(RegionTest, NewDatabasesCreatedInsideWindow) {
  RegionProfile profile = RegionEU1();
  profile.new_db_fraction = 0.5;
  EpochSeconds new_from = kFrom + Days(28);
  auto fleet = GenerateFleet(profile, 300, kFrom, kTo, 7, new_from);
  int new_dbs = 0;
  for (const DbTrace& t : fleet) {
    if (!t.sessions.empty() && t.created_at >= new_from) ++new_dbs;
  }
  EXPECT_GT(new_dbs, 60);
  EXPECT_LT(new_dbs, 240);
}

TEST(RegionTest, AllRegionProfilesAreDistinctAndNamed) {
  auto regions = AllRegions();
  ASSERT_EQ(regions.size(), 4u);
  EXPECT_EQ(regions[0].name, "EU1");
  EXPECT_EQ(regions[1].name, "EU2");
  EXPECT_EQ(regions[2].name, "US1");
  EXPECT_EQ(regions[3].name, "US2");
}

// The headline calibration property behind Figure 3: across a large EU1
// fleet, most idle intervals are short but contribute little idle time.
TEST(RegionTest, Figure3FragmentationShape) {
  auto fleet = GenerateFleet(RegionEU1(), 2000, kFrom, kFrom + Days(60), 99);
  GapStats stats = ComputeGapStats(fleet);
  // Shape targets (paper: 72% / 5%); allow generous bands here, the bench
  // prints exact numbers.
  EXPECT_GT(stats.short_gap_count_fraction, 0.55);
  EXPECT_LT(stats.short_gap_duration_fraction, 0.15);
  EXPECT_GT(stats.gap_count, 10000u);
}

}  // namespace
}  // namespace prorp::workload
