#include "workload/trace_source.h"

#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "workload/region.h"
#include "workload/trace.h"

namespace prorp::workload {
namespace {

constexpr EpochSeconds kFrom = Days(1004);  // a Monday
constexpr EpochSeconds kTo = kFrom + Days(35);

/// Drains database `db_id`'s cursor into its full session list.
std::vector<Session> CollectSessions(const TraceSource& source,
                                     uint32_t db_id) {
  std::vector<Session> sessions;
  std::unique_ptr<SessionCursor> cursor = source.Open(db_id);
  Session s;
  while (cursor->Next(&s)) sessions.push_back(s);
  return sessions;
}

StreamingFleetSource MakeSource(uint64_t seed = 2024) {
  return StreamingFleetSource(RegionEU1(), /*num_dbs=*/64, kFrom, kTo, seed);
}

TEST(StreamingFleetSourceTest, OpenIsPure) {
  // Repeated runs over one source rely on Open(db) being a pure function:
  // the same database must yield the identical session list on every open,
  // within one source and across source instances with the same seed.
  StreamingFleetSource a = MakeSource();
  StreamingFleetSource b = MakeSource();
  for (uint32_t db = 0; db < a.num_dbs(); ++db) {
    std::vector<Session> first = CollectSessions(a, db);
    std::vector<Session> again = CollectSessions(a, db);
    std::vector<Session> other = CollectSessions(b, db);
    ASSERT_EQ(first.size(), again.size()) << "db " << db;
    ASSERT_EQ(first.size(), other.size()) << "db " << db;
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i].start, again[i].start) << "db " << db;
      EXPECT_EQ(first[i].end, again[i].end) << "db " << db;
      EXPECT_EQ(first[i].start, other[i].start) << "db " << db;
      EXPECT_EQ(first[i].end, other[i].end) << "db " << db;
    }
  }
}

TEST(StreamingFleetSourceTest, SessionsComeOutNormalized) {
  // Streamed sessions must satisfy the normalization invariants: clipped
  // to the window, positive length, ascending, non-overlapping with the
  // minimum gap.
  StreamingFleetSource source = MakeSource();
  size_t sessions_total = 0;
  for (uint32_t db = 0; db < source.num_dbs(); ++db) {
    std::vector<Session> sessions = CollectSessions(source, db);
    sessions_total += sessions.size();
    for (size_t i = 0; i < sessions.size(); ++i) {
      EXPECT_GE(sessions[i].start, kFrom) << "db " << db;
      EXPECT_LE(sessions[i].end, kTo) << "db " << db;
      EXPECT_LT(sessions[i].start, sessions[i].end) << "db " << db;
      if (i > 0) {
        EXPECT_GE(sessions[i].start, sessions[i - 1].end + kSecondsPerMinute)
            << "db " << db << " session " << i;
      }
    }
  }
  // A 64-database EU fleet over 5 weeks is not quiet.
  EXPECT_GT(sessions_total, 500u);
}

TEST(StreamingFleetSourceTest, PatternAssignmentIsStableAndMixed) {
  StreamingFleetSource a = MakeSource();
  StreamingFleetSource b = MakeSource();
  std::map<PatternType, size_t> histogram;
  for (uint32_t db = 0; db < a.num_dbs(); ++db) {
    EXPECT_EQ(a.PatternOf(db), b.PatternOf(db)) << "db " << db;
    ++histogram[a.PatternOf(db)];
  }
  // The region mixes archetypes; 64 draws should hit more than one.
  EXPECT_GT(histogram.size(), 1u);
}

TEST(StreamingFleetSourceTest, DifferentSeedsGiveDifferentFleets) {
  StreamingFleetSource a = MakeSource(1);
  StreamingFleetSource c = MakeSource(2);
  size_t differing = 0;
  for (uint32_t db = 0; db < a.num_dbs(); ++db) {
    std::vector<Session> x = CollectSessions(a, db);
    std::vector<Session> y = CollectSessions(c, db);
    if (x.size() != y.size()) {
      ++differing;
      continue;
    }
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i].start != y[i].start || x[i].end != y[i].end) {
        ++differing;
        break;
      }
    }
  }
  EXPECT_GT(differing, a.num_dbs() / 2);
}

TEST(StreamingFleetSourceTest, CursorMatchesCollectedSessions) {
  // Pulling one at a time through the cursor is the simulator's access
  // path; it must agree with the collected vector and terminate cleanly.
  StreamingFleetSource source = MakeSource();
  std::vector<Session> collected = CollectSessions(source, 3);
  std::unique_ptr<SessionCursor> cursor = source.Open(3);
  Session s;
  size_t i = 0;
  while (cursor->Next(&s)) {
    ASSERT_LT(i, collected.size());
    EXPECT_EQ(s.start, collected[i].start);
    EXPECT_EQ(s.end, collected[i].end);
    ++i;
  }
  EXPECT_EQ(i, collected.size());
  EXPECT_FALSE(cursor->Next(&s));  // stays exhausted
}

TEST(MaterializedTraceSourceTest, AdaptsAVectorFleet) {
  std::vector<DbTrace> traces(2);
  traces[0].db_id = 0;
  traces[0].sessions = {{kFrom + Hours(1), kFrom + Hours(2)},
                        {kFrom + Hours(5), kFrom + Hours(6)}};
  traces[1].db_id = 1;
  traces[1].sessions = {{kFrom + Hours(3), kFrom + Hours(4)}};
  MaterializedTraceSource source(traces);
  EXPECT_EQ(source.num_dbs(), 2u);
  std::vector<Session> s0 = CollectSessions(source, 0);
  std::vector<Session> s1 = CollectSessions(source, 1);
  ASSERT_EQ(s0.size(), 2u);
  ASSERT_EQ(s1.size(), 1u);
  EXPECT_EQ(s0[0].start, kFrom + Hours(1));
  EXPECT_EQ(s1[0].end, kFrom + Hours(4));
}

}  // namespace
}  // namespace prorp::workload
