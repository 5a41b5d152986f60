#ifndef PRORP_WORKLOAD_TRACE_SOURCE_H_
#define PRORP_WORKLOAD_TRACE_SOURCE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "workload/region.h"
#include "workload/trace.h"

namespace prorp::workload {

/// Pull iterator over a sequence of sessions.  The cursors a TraceSource
/// opens yield a normalized trace: non-overlapping, ascending, clipped to
/// the generation window, with the minimum inter-session gap enforced
/// (see NormalizingCursor).
class SessionCursor {
 public:
  virtual ~SessionCursor() = default;

  /// Writes the next session and returns true; false at end of trace.
  virtual bool Next(Session* out) = 0;
};

/// Normalizes a raw cursor whose sessions come in ascending start order:
/// clips each session to [from, to), drops those shorter than a second,
/// and merges sessions that overlap or sit closer than `min_gap` (logins
/// one second apart would collide in the history's unique-timestamp
/// column).  Holds one pending session, so it runs in O(1) memory.
class NormalizingCursor final : public SessionCursor {
 public:
  NormalizingCursor(std::unique_ptr<SessionCursor> raw, EpochSeconds from,
                    EpochSeconds to,
                    DurationSeconds min_gap = kSecondsPerMinute);

  bool Next(Session* out) override;

 private:
  std::unique_ptr<SessionCursor> raw_;
  EpochSeconds from_;
  EpochSeconds to_;
  DurationSeconds min_gap_;
  Session pending_;
  bool have_pending_ = false;
};

/// A fleet of activity traces accessed database-by-database.  The fleet
/// simulator consumes sessions strictly in order per database, so a
/// cursor is all it needs — which is what lets a million-database fleet
/// run without ever materializing millions of session vectors.
///
/// Open must be pure: the same db yields the same sessions every time.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  virtual size_t num_dbs() const = 0;

  virtual std::unique_ptr<SessionCursor> Open(uint32_t db_id) const = 0;
};

/// Adapter over a pre-generated fleet (GenerateFleet, tests, trace
/// files).  Borrows the vector; the caller keeps it alive.
class MaterializedTraceSource final : public TraceSource {
 public:
  explicit MaterializedTraceSource(const std::vector<DbTrace>& traces)
      : traces_(&traces) {}

  size_t num_dbs() const override { return traces_->size(); }

  std::unique_ptr<SessionCursor> Open(uint32_t db_id) const override;

 private:
  const std::vector<DbTrace>* traces_;
};

/// Generates a region's fleet on the fly: O(1) state per open cursor
/// (the per-pattern generator buffers at most one day of sessions)
/// instead of O(sessions) per database materialized up front.
///
/// Database k's trace is a pure function of (seed, k): the per-database
/// stream is derived with Rng::ForkStream, so a cursor needs no state
/// from the databases before it.  Note this derivation differs from
/// GenerateFleet's sequential Fork, so the two produce statistically
/// equivalent but not identical fleets.
class StreamingFleetSource final : public TraceSource {
 public:
  StreamingFleetSource(RegionProfile profile, size_t num_dbs,
                       EpochSeconds from, EpochSeconds to, uint64_t seed,
                       EpochSeconds new_from = 0);

  size_t num_dbs() const override { return num_dbs_; }

  std::unique_ptr<SessionCursor> Open(uint32_t db_id) const override;

  /// The archetype database `db_id` was assigned (test introspection).
  PatternType PatternOf(uint32_t db_id) const;

 private:
  RegionProfile profile_;
  size_t num_dbs_;
  EpochSeconds from_;
  EpochSeconds to_;
  EpochSeconds new_from_;
  uint64_t seed_;
};

/// Generates the activity trace of one database of the given pattern over
/// [from, to) by draining the same normalized cursor StreamingFleetSource
/// opens.  `rng` is the database's private stream; the same seed
/// reproduces the same trace.  The trace's created_at is the first
/// session start (>= from), or `from` when the trace is empty.
DbTrace GenerateTrace(PatternType pattern, uint32_t db_id, EpochSeconds from,
                      EpochSeconds to, Rng rng);

}  // namespace prorp::workload

#endif  // PRORP_WORKLOAD_TRACE_SOURCE_H_
