// Golden digests of the synthetic fleet.  Every figure bench and the fleet
// benchmark read their sessions from these generators, so any change to
// an archetype, the clip/merge/min-gap rule, the archetype pick or the
// new-database draw shows up here as a changed constant.  Changing a
// constant must be a deliberate, reviewed edit.

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "golden_digest.h"
#include "workload/region.h"
#include "workload/trace.h"
#include "workload/trace_source.h"

namespace prorp::workload {
namespace {

/// Monday 00:00 UTC, the anchor of the fleet benchmark.
constexpr EpochSeconds kT0 = Days(1005);
constexpr EpochSeconds kNewFrom = kT0 + Days(28);
constexpr EpochSeconds kEnd = kT0 + Days(60);

/// Drains database `db_id`'s cursor into its full session list.
std::vector<Session> CollectSessions(const TraceSource& source,
                                     uint32_t db_id) {
  std::vector<Session> sessions;
  std::unique_ptr<SessionCursor> cursor = source.Open(db_id);
  Session s;
  while (cursor->Next(&s)) sessions.push_back(s);
  return sessions;
}

/// A trace's identity, pattern, creation time and every session bound.
void AddTrace(golden::Fnv1a& h, const DbTrace& trace) {
  h.Add(static_cast<uint64_t>(trace.db_id));
  h.Add(static_cast<uint64_t>(trace.pattern));
  h.Add(static_cast<uint64_t>(trace.created_at));
  for (const Session& s : trace.sessions) {
    h.Add(static_cast<uint64_t>(s.start));
    h.Add(static_cast<uint64_t>(s.end));
  }
}

TEST(TraceDigestTest, GenerateFleetAllRegions) {
  golden::Fnv1a digest;
  uint64_t sessions = 0;
  for (const RegionProfile& profile : AllRegions()) {
    for (uint64_t seed : {7u, 2024u}) {
      for (const DbTrace& trace :
           GenerateFleet(profile, 500, kT0, kEnd, seed, kNewFrom)) {
        AddTrace(digest, trace);
        sessions += trace.sessions.size();
      }
    }
  }
  EXPECT_EQ(sessions, 475803u);
  EXPECT_EQ(digest.value(), 5138230806277658436ull);
}

TEST(TraceDigestTest, StreamingFleetSourcePerfbenchShape) {
  StreamingFleetSource source(RegionEU1(), 700, kT0, kEnd, 2024, kNewFrom);
  golden::Fnv1a digest;
  uint64_t sessions = 0;
  for (uint32_t db = 0; db < source.num_dbs(); ++db) {
    DbTrace trace;
    trace.db_id = db;
    trace.pattern = source.PatternOf(db);
    trace.sessions = CollectSessions(source, db);
    trace.created_at =
        trace.sessions.empty() ? kT0 : trace.sessions.front().start;
    AddTrace(digest, trace);
    sessions += trace.sessions.size();
  }
  EXPECT_EQ(sessions, 101428u);
  EXPECT_EQ(digest.value(), 2459711567227432887ull);
}

}  // namespace
}  // namespace prorp::workload
