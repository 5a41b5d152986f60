#include "workload/trace_source.h"

#include <algorithm>
#include <utility>

namespace prorp::workload {
namespace {

// ---------------------------------------------------------------------
// Archetype generators.  Each is a cursor over unclipped, unmerged
// sessions in ascending start order, which NormalizingCursor relies on.
// Day-batch archetypes buffer one day of sessions at a time; cursor
// archetypes carry a single running timestamp.
// ---------------------------------------------------------------------

/// Archetypes generated a day at a time (DailyBusiness, Daily, Weekly,
/// Bursty, DevTest): advances the day cursor until a day yields sessions,
/// buffering at most one day (<= ~130 sessions for a bursty day).
class DayBatchGen : public SessionCursor {
 public:
  DayBatchGen(EpochSeconds from, EpochSeconds to)
      : day_(StartOfDay(from)), to_(to) {}

  bool Next(Session* out) override {
    while (idx_ >= buf_.size()) {
      if (day_ >= to_) return false;
      buf_.clear();
      idx_ = 0;
      GenerateDay(day_);
      day_ += Days(1);
    }
    *out = buf_[idx_++];
    return true;
  }

 protected:
  virtual void GenerateDay(EpochSeconds day) = 0;

  std::vector<Session> buf_;

 private:
  EpochSeconds day_;
  EpochSeconds to_;
  size_t idx_ = 0;
};

/// Weekday business usage with LOOSE within-day timing: the first login
/// of a day lands anywhere inside a per-database window of several hours
/// (different teams, time zones, automation schedules), which is what
/// makes the prediction window size matter (Figure 8): narrow windows
/// catch too few historical logins to clear the confidence threshold.
/// Intraday breaks create the short idle gaps of Figure 3(a).
class DailyBusinessGen final : public DayBatchGen {
 public:
  DailyBusinessGen(EpochSeconds from, EpochSeconds to, Rng rng)
      : DayBatchGen(from, to), rng_(rng) {
    base_ = Hours(5) + rng_.NextInt(0, Hours(4));  // 5:00-9:00
    // Half the population keeps a tight habitual login hour (predictable
    // at any window size); the other half logs in anywhere within a wide
    // span (predictable only once the window is wide enough) — the blend
    // that produces Figure 8's window-size sensitivity.
    spread_ = rng_.NextBool(0.5)
                  ? Minutes(40) + rng_.NextInt(0, Minutes(80))
                  : Hours(9) + rng_.NextInt(0, Hours(4));
  }

 protected:
  void GenerateDay(EpochSeconds day) override {
    if (IsWeekend(day)) {
      if (rng_.NextBool(0.05)) {  // rare weekend check-in
        EpochSeconds s = day + Hours(10) + rng_.NextInt(0, Hours(6));
        buf_.push_back({s, s + rng_.NextInt(Minutes(10), Hours(1))});
      }
      return;
    }
    if (rng_.NextBool(0.12)) return;  // day off
    EpochSeconds start = day + base_ + rng_.NextInt(0, spread_);
    DurationSeconds work_span = Hours(3) + rng_.NextInt(0, Hours(5));
    EpochSeconds end = start + work_span;
    // Intraday breaks split the day into 1-3 sessions.
    EpochSeconds cuts[2];
    size_t num_cuts = 0;
    if (rng_.NextBool(0.75)) {
      cuts[num_cuts++] =
          start + work_span / 2 + rng_.NextInt(-Hours(1), Hours(1));
    }
    if (rng_.NextBool(0.35)) {
      cuts[num_cuts++] =
          start + work_span / 4 + rng_.NextInt(-Minutes(30), Minutes(30));
    }
    std::sort(cuts, cuts + num_cuts);
    EpochSeconds cursor = start;
    for (size_t i = 0; i < num_cuts; ++i) {
      EpochSeconds cut = cuts[i];
      if (cut <= cursor + Minutes(30) || cut >= end - Minutes(30)) continue;
      buf_.push_back({cursor, cut});
      cursor = cut + rng_.NextInt(Minutes(10), Minutes(90));  // the break
    }
    if (cursor < end) buf_.push_back({cursor, end});
  }

 private:
  Rng rng_;
  DurationSeconds base_;
  DurationSeconds spread_;
};

/// Daily usage, seven days a week, with the same loose within-day timing
/// (e.g. a dashboard refreshed "sometime during the day").
class DailyGen final : public DayBatchGen {
 public:
  DailyGen(EpochSeconds from, EpochSeconds to, Rng rng)
      : DayBatchGen(from, to), rng_(rng) {
    base_ = rng_.NextInt(0, Hours(14));
    spread_ = rng_.NextBool(0.5) ? Minutes(30) + rng_.NextInt(0, Minutes(90))
                                 : Hours(8) + rng_.NextInt(0, Hours(4));
  }

 protected:
  void GenerateDay(EpochSeconds day) override {
    if (rng_.NextBool(0.08)) return;
    EpochSeconds start = day + base_ + rng_.NextInt(0, spread_);
    DurationSeconds window_len = Hours(1) + rng_.NextInt(0, Hours(5));
    EpochSeconds end = start + window_len;
    if (rng_.NextBool(0.5)) {
      EpochSeconds cut = start + window_len / 2;
      buf_.push_back({start, cut});
      buf_.push_back({cut + rng_.NextInt(Minutes(5), Minutes(45)), end});
    } else {
      buf_.push_back({start, end});
    }
  }

 private:
  Rng rng_;
  DurationSeconds base_;
  DurationSeconds spread_;
};

/// One or two fixed weekdays (weekly reporting jobs).
class WeeklyGen final : public DayBatchGen {
 public:
  WeeklyGen(EpochSeconds from, EpochSeconds to, Rng rng)
      : DayBatchGen(from, to), rng_(rng) {
    day_a_ = static_cast<int>(rng_.NextInt(0, 6));
    day_b_ = rng_.NextBool(0.4) ? static_cast<int>(rng_.NextInt(0, 6)) : -1;
    hour_ = Hours(6) + rng_.NextInt(0, Hours(8));
  }

 protected:
  void GenerateDay(EpochSeconds day) override {
    int wd = WeekdayIndex(day);
    if (wd != day_a_ && wd != day_b_) return;
    if (rng_.NextBool(0.08)) return;
    EpochSeconds start = day + hour_ + rng_.NextInt(0, Hours(4));
    buf_.push_back({start, start + rng_.NextInt(Hours(1), Hours(5))});
  }

 private:
  Rng rng_;
  int day_a_;
  int day_b_;
  DurationSeconds hour_;
};

/// Rare days packed with dozens of short sessions (automated test suites,
/// agent retries).  Produces the worst-case history sizes of Figure 10(a).
class BurstyGen final : public DayBatchGen {
 public:
  BurstyGen(EpochSeconds from, EpochSeconds to, Rng rng)
      : DayBatchGen(from, to), rng_(rng) {}

 protected:
  void GenerateDay(EpochSeconds day) override {
    if (!rng_.NextBool(0.45)) return;
    EpochSeconds cursor = day + rng_.NextInt(0, Hours(6));
    int sessions = static_cast<int>(rng_.NextInt(40, 130));
    for (int i = 0; i < sessions && cursor < day + Days(1); ++i) {
      DurationSeconds session = rng_.NextInt(Minutes(2), Minutes(10));
      buf_.push_back({cursor, cursor + session});
      cursor += session + rng_.NextInt(Minutes(2), Minutes(12));
    }
  }

 private:
  Rng rng_;
};

/// Occasional short sessions on workdays.
class DevTestGen final : public DayBatchGen {
 public:
  DevTestGen(EpochSeconds from, EpochSeconds to, Rng rng)
      : DayBatchGen(from, to), rng_(rng) {}

 protected:
  void GenerateDay(EpochSeconds day) override {
    if (IsWeekend(day) || !rng_.NextBool(0.35)) return;
    int sessions = static_cast<int>(rng_.NextInt(1, 3));
    EpochSeconds cursor = day + Hours(8) + rng_.NextInt(0, Hours(6));
    for (int i = 0; i < sessions; ++i) {
      DurationSeconds session = rng_.NextInt(Minutes(15), Minutes(90));
      buf_.push_back({cursor, cursor + session});
      cursor += session + rng_.NextInt(Minutes(30), Hours(3));
    }
  }

 private:
  Rng rng_;
};

/// Near-continuous usage: long sessions separated by short gaps.  The
/// dominant source of sub-hour idle intervals.
class AlwaysBusyGen final : public SessionCursor {
 public:
  AlwaysBusyGen(EpochSeconds from, EpochSeconds to, Rng rng)
      : to_(to), rng_(rng) {
    cursor_ = from + rng_.NextInt(0, Hours(2));
  }

  bool Next(Session* out) override {
    if (cursor_ >= to_) return false;
    DurationSeconds session =
        static_cast<DurationSeconds>(rng_.NextExponential(Hours(3)));
    session = std::clamp(session, Minutes(10), Hours(12));
    *out = {cursor_, cursor_ + session};
    DurationSeconds gap =
        static_cast<DurationSeconds>(rng_.NextExponential(Minutes(25)));
    gap = std::clamp(gap, Minutes(2), Hours(4));
    cursor_ += session + gap;
    return true;
  }

 private:
  EpochSeconds cursor_;
  EpochSeconds to_;
  Rng rng_;
};

/// Poisson sessions days apart: the unpredictable tail of the fleet.
class SporadicGen final : public SessionCursor {
 public:
  SporadicGen(EpochSeconds from, EpochSeconds to, Rng rng)
      : to_(to), rng_(rng) {
    cursor_ = from + rng_.NextInt(0, Days(3));
  }

  bool Next(Session* out) override {
    if (cursor_ >= to_) return false;
    DurationSeconds session =
        static_cast<DurationSeconds>(rng_.NextExponential(Hours(1)));
    session = std::clamp(session, Minutes(5), Hours(8));
    *out = {cursor_, cursor_ + session};
    DurationSeconds gap =
        static_cast<DurationSeconds>(rng_.NextExponential(Days(5)));
    gap = std::clamp(gap, Hours(8), Days(24));
    cursor_ += session + gap;
    return true;
  }

 private:
  EpochSeconds cursor_;
  EpochSeconds to_;
  Rng rng_;
};

std::unique_ptr<SessionCursor> MakeGenerator(PatternType pattern,
                                             EpochSeconds from,
                                             EpochSeconds to, Rng rng) {
  switch (pattern) {
    case PatternType::kDailyBusiness:
      return std::make_unique<DailyBusinessGen>(from, to, rng);
    case PatternType::kDaily:
      return std::make_unique<DailyGen>(from, to, rng);
    case PatternType::kWeekly:
      return std::make_unique<WeeklyGen>(from, to, rng);
    case PatternType::kAlwaysBusy:
      return std::make_unique<AlwaysBusyGen>(from, to, rng);
    case PatternType::kSporadic:
      return std::make_unique<SporadicGen>(from, to, rng);
    case PatternType::kBursty:
      return std::make_unique<BurstyGen>(from, to, rng);
    case PatternType::kDevTest:
      return std::make_unique<DevTestGen>(from, to, rng);
  }
  return std::make_unique<SporadicGen>(from, to, rng);
}

/// The normalized trace of one database of `pattern` over [from, to).
std::unique_ptr<SessionCursor> OpenTrace(PatternType pattern,
                                         EpochSeconds from, EpochSeconds to,
                                         Rng rng) {
  return std::make_unique<NormalizingCursor>(
      MakeGenerator(pattern, from, to, rng), from, to);
}

class VectorCursor final : public SessionCursor {
 public:
  explicit VectorCursor(const std::vector<Session>* sessions)
      : sessions_(sessions) {}

  bool Next(Session* out) override {
    if (idx_ >= sessions_->size()) return false;
    *out = (*sessions_)[idx_++];
    return true;
  }

 private:
  const std::vector<Session>* sessions_;
  size_t idx_ = 0;
};

}  // namespace

NormalizingCursor::NormalizingCursor(std::unique_ptr<SessionCursor> raw,
                                     EpochSeconds from, EpochSeconds to,
                                     DurationSeconds min_gap)
    : raw_(std::move(raw)), from_(from), to_(to), min_gap_(min_gap) {}

bool NormalizingCursor::Next(Session* out) {
  for (;;) {
    Session raw;
    if (!raw_ || !raw_->Next(&raw)) {
      raw_.reset();
      if (!have_pending_) return false;
      have_pending_ = false;
      *out = pending_;
      return true;
    }
    raw.start = std::max(raw.start, from_);
    raw.end = std::min(raw.end, to_);
    if (raw.end - raw.start < 1) continue;
    if (!have_pending_) {
      pending_ = raw;
      have_pending_ = true;
      continue;
    }
    if (raw.start - pending_.end < min_gap_) {
      pending_.end = std::max(pending_.end, raw.end);
      continue;
    }
    *out = pending_;
    pending_ = raw;
    return true;
  }
}

std::unique_ptr<SessionCursor> MaterializedTraceSource::Open(
    uint32_t db_id) const {
  return std::make_unique<VectorCursor>(&(*traces_)[db_id].sessions);
}

StreamingFleetSource::StreamingFleetSource(RegionProfile profile,
                                           size_t num_dbs, EpochSeconds from,
                                           EpochSeconds to, uint64_t seed,
                                           EpochSeconds new_from)
    : profile_(std::move(profile)),
      num_dbs_(num_dbs),
      from_(from),
      to_(to),
      new_from_(new_from <= 0 ? from : new_from),
      seed_(seed) {}

std::unique_ptr<SessionCursor> StreamingFleetSource::Open(
    uint32_t db_id) const {
  // Addresses database k's stream purely, so it is reconstructible in
  // O(1) without opening the databases before it.
  Rng db_rng = Rng(seed_).ForkStream(db_id);
  DbPlacement placement =
      DrawPlacement(profile_, from_, to_, new_from_, db_rng);
  return OpenTrace(placement.pattern, placement.start, to_, db_rng);
}

PatternType StreamingFleetSource::PatternOf(uint32_t db_id) const {
  Rng db_rng = Rng(seed_).ForkStream(db_id);
  return DrawPlacement(profile_, from_, to_, new_from_, db_rng).pattern;
}

DbTrace GenerateTrace(PatternType pattern, uint32_t db_id, EpochSeconds from,
                      EpochSeconds to, Rng rng) {
  DbTrace trace;
  trace.db_id = db_id;
  trace.pattern = pattern;
  std::unique_ptr<SessionCursor> cursor = OpenTrace(pattern, from, to, rng);
  Session s;
  while (cursor->Next(&s)) trace.sessions.push_back(s);
  trace.created_at =
      trace.sessions.empty() ? from : trace.sessions.front().start;
  return trace;
}

}  // namespace prorp::workload
