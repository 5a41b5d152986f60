// Lockstep differential test of the idle-iteration skip
// (ManagementService::IdleAt).  Two control planes see the same metadata
// upserts, logins, maintenance touches, failovers, acks and node verdicts.
// The reference plane calls RunOnce on every tick.  The skipping plane
// calls it only when IdleAt is false, and hands the count of the ticks it
// skipped to that call, as the fleet simulator does.
//
// On every tick the skipping plane skips, the reference's RunOnce must
// have succeeded and resumed nothing.  After every RunOnce of the
// skipping plane both planes must write byte-identical checkpoints, and
// after every tick their observable state must agree once the held count
// is added back.  The scenarios exercise storm control, deadline hedging,
// dispatches answered later over a wire, breaker-opening failures,
// reactive arrivals, maintenance and failover work; the journaled one
// also crashes both planes between skipped ticks, and fences both, and
// recovers them from their journals.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "controlplane/checkpoint.h"
#include "controlplane/durable_control_plane.h"
#include "controlplane/management_service.h"
#include "faults/crash_points.h"
#include "golden_digest.h"

namespace prorp::controlplane {
namespace {

namespace fs = std::filesystem;
using policy::DbState;

constexpr EpochSeconds kT0 = 3'000'000;
constexpr DurationSeconds kPeriod = 60;
constexpr DbId kNumDbs = 40;

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

struct Scenario {
  std::string name;
  ControlPlaneConfig config;
  int max_attempts = 3;
  /// Per-mille chances of each event at each of the two points between
  /// consecutive ticks.
  int p_pause = 40;
  int p_resumed = 10;
  int p_login = 15;
  int p_login_unpumped = 5;
  int p_maintenance = 0;
  int p_failover = 0;
  int p_remove = 0;
  /// Per-mille chance, once per tick, of a burst: four databases paused
  /// with a predicted start the coming tick selects.  A failover event
  /// then re-places every database of the last burst.
  int p_burst = 0;
  /// Percent of gated dispatches whose verdict arrives later on the wire.
  int pending_pct = 0;
  /// Every gated dispatch fails inside [outage_from, outage_to).
  EpochSeconds outage_from = 0;
  EpochSeconds outage_to = 0;
  int ticks = 2000;
  uint64_t seed = 1;
  /// Journaled planes (buffered, manual checkpoints); only then do the
  /// crash and fence events below apply.
  bool journaled = false;
  /// Crash both planes at the first point between ticks at which the
  /// skipping plane holds skipped ticks, once every this many ticks.
  int crash_every = 0;
  /// Fence both planes before a tick the skipping plane would skip, once
  /// every this many ticks.
  int fence_every = 0;
};

/// One answer on the wire: an ack with `verdict` or, when `timeout`, the
/// dispatcher giving up on it.
struct WireEntry {
  EpochSeconds at = 0;
  uint64_t seq = 0;
  DbId db = 0;
  uint64_t request_id = 0;
  bool timeout = false;
  Status verdict = Status::OK();
};

/// A resource arrival that completes an asynchronous reactive resume.
struct Completion {
  EpochSeconds at = 0;
  DbId db = 0;
};

/// One plane of the pair with its node side.  Verdicts are a pure
/// function of the attempt and the time, so two planes that send the same
/// attempts get the same answers.
class Side {
 public:
  /// `dir` holds the plane's journal (empty: no journal); `compare` is
  /// the scratch file its comparison checkpoints go to.
  Side(const Scenario& s, std::string dir, std::string compare)
      : s_(s), dir_(std::move(dir)), compare_(std::move(compare)) {}

  Status Open(EpochSeconds now) {
    plane_.reset();
    DurableControlPlane::Options options;
    options.dir = dir_;
    options.config = s_.config;
    options.max_attempts = s_.max_attempts;
    options.sync_mode = ControlPlaneJournal::SyncMode::kBuffered;
    options.checkpoint_every = 0;
    PRORP_ASSIGN_OR_RETURN(
        plane_, DurableControlPlane::Open(
                    options,
                    [this](const ResumeAttempt& a, EpochSeconds t) {
                      return Resume(a, t);
                    },
                    [this](DbId db) { return resumed_.count(db) != 0; },
                    now));
    return Status::OK();
  }

  /// The transport died with the plane: answers in transit are lost.
  void LoseWire() { wire_.clear(); }

  ManagementService& svc() { return plane_->service(); }
  MetadataStore& meta() { return plane_->metadata(); }

  /// Delivers every answer and completion due at or before `at`.
  void Deliver(EpochSeconds at) {
    std::stable_sort(wire_.begin(), wire_.end(),
                     [](const WireEntry& a, const WireEntry& b) {
                       return a.at != b.at ? a.at < b.at : a.seq < b.seq;
                     });
    size_t n = 0;
    while (n < wire_.size() && wire_[n].at <= at) ++n;
    std::vector<WireEntry> due(wire_.begin(), wire_.begin() + n);
    wire_.erase(wire_.begin(), wire_.begin() + n);
    for (const WireEntry& w : due) {
      if (w.timeout) {
        svc().OnDispatchTimeout(w.db, w.request_id, w.at);
      } else {
        svc().OnDispatchAck(w.db, w.request_id, w.verdict, w.at);
      }
    }
    std::vector<Completion> keep;
    for (const Completion& c : completions_) {
      if (c.at <= at) {
        svc().CompleteWorkflow(c.db, c.at);
      } else {
        keep.push_back(c);
      }
    }
    completions_ = std::move(keep);
  }

  /// The checkpoint this plane's state writes (fixed epoch and sequence,
  /// so two journals of different lengths compare equal).
  std::string CheckpointBytes() {
    EXPECT_TRUE(SaveCheckpoint(compare_, meta(), svc(), 1, 1, false).ok());
    return ReadFileBytes(compare_);
  }

 private:
  Status Resume(const ResumeAttempt& a, EpochSeconds now) {
    const uint64_t h =
        Mix(s_.seed ^ Mix(a.db) ^ Mix(static_cast<uint64_t>(a.attempt) << 8) ^
            Mix(static_cast<uint64_t>(now) << 1) ^ (a.hedge ? 0x5555 : 0));
    const bool reactive = a.cls == ResumeClass::kReactiveLogin;
    Status verdict = Status::OK();
    const uint64_t r = h % 100;
    if (!reactive && now >= s_.outage_from && now < s_.outage_to) {
      verdict = Status::Unavailable("outage");
    } else if (!reactive && r < 6) {
      verdict = Status::Unavailable("transient");
    } else if (!reactive && r < 12) {
      verdict = Status::FailedPrecondition("already resumed");
    }
    if (!reactive && verdict.ok() &&
        r < 12 + static_cast<uint64_t>(s_.pending_pct)) {
      WireEntry w;
      w.at = now + 20 + static_cast<EpochSeconds>((h >> 8) % 400);
      w.seq = ++seq_;
      w.db = a.db;
      w.request_id = a.request_id;
      const uint64_t v = (h >> 20) % 20;
      if (v < 2) {
        w.timeout = true;
      } else if (v < 5) {
        w.verdict = Status::Unavailable("nack");
      } else if (v < 6) {
        w.verdict = Status::FailedPrecondition("already resumed");
      } else {
        resumed_.insert(a.db);
      }
      wire_.push_back(w);
      return Status::Pending("on the wire");
    }
    if (verdict.ok()) {
      resumed_.insert(a.db);
      if (reactive && s_.config.deadline_hedging_enabled) {
        // Resources arrive later; some arrive past the deadline, so the
        // watchdog hedges them.
        completions_.push_back(
            {now + 10 + static_cast<EpochSeconds>((h >> 12) % 300), a.db});
      }
    }
    return verdict;
  }

  const Scenario& s_;
  std::string dir_;
  std::string compare_;
  std::unique_ptr<DurableControlPlane> plane_;
  std::vector<WireEntry> wire_;
  std::vector<Completion> completions_;
  std::set<DbId> resumed_;
  uint64_t seq_ = 0;
};

/// Observable state of `svc` with `held` more idle iterations counted.
uint64_t ObservableDigest(const ManagementService& svc, uint64_t held) {
  golden::Fnv1a h;
  DiagnosticsReport d = svc.diagnostics();
  d.observed_iterations += held;
  golden::AddDiagnostics(h, d);
  h.Add(static_cast<uint64_t>(svc.resumed_per_iteration().count() + held));
  h.Add(svc.total_resumed());
  h.Add(static_cast<uint64_t>(svc.breaker_state()));
  h.Add(static_cast<uint64_t>(svc.storm_active()));
  h.Add(svc.current_quota());
  h.Add(static_cast<uint64_t>(svc.brownout_level()));
  h.Add(static_cast<uint64_t>(svc.pending_workflows()));
  h.Add(static_cast<uint64_t>(svc.in_flight()));
  h.Add(static_cast<uint64_t>(svc.unacked()));
  h.Add(static_cast<uint64_t>(svc.pending_failed()));
  h.Add(static_cast<uint64_t>(svc.fenced()));
  return h.value();
}

struct LockstepStats {
  uint64_t skipped = 0;
  uint64_t runs = 0;
  uint64_t crashes = 0;
  uint64_t fences = 0;
  DiagnosticsReport diagnostics;  // the skipping plane's, at the end
};

LockstepStats RunLockstep(const Scenario& s) {
  LockstepStats stats;
  const std::string dir = FreshDir("idle_lockstep_" + s.name);
  Side every(s, s.journaled ? dir + "/every" : "", dir + "/every.ckpt");
  Side skipping(s, s.journaled ? dir + "/skipping" : "",
                dir + "/skipping.ckpt");
  Side* sides[] = {&every, &skipping};
  auto open_both = [&](EpochSeconds now) {
    for (Side* side : sides) {
      Status st = side->Open(now);
      EXPECT_TRUE(st.ok()) << s.name << ": " << st.ToString();
    }
  };
  open_both(kT0 - kPeriod);
  if (::testing::Test::HasFailure()) return stats;
  // Every database exists from the start; reactive logins then reach the
  // node instead of retiring as deleted.
  for (Side* side : sides) {
    for (DbId db = 1; db <= kNumDbs; ++db) {
      EXPECT_TRUE(side->meta().UpsertState(db, DbState::kResumed, 0).ok());
    }
  }

  std::mt19937_64 rng(s.seed);
  auto chance = [&](int per_mille) {
    return static_cast<int>(rng() % 1000) < per_mille;
  };
  uint64_t held = 0;
  std::vector<DbId> burst;
  bool fence_pending = false;
  bool crash_pending = false;
  for (int i = 0; i < s.ticks && !::testing::Test::HasFailure(); ++i) {
    const EpochSeconds tick = kT0 + i * kPeriod;
    if (s.crash_every > 0 && i > 0 && i % s.crash_every == 0) {
      crash_pending = true;
    }
    if (s.fence_every > 0 && i > 0 && i % s.fence_every == 0) {
      fence_pending = true;
    }
    if (chance(s.p_burst)) {
      burst.clear();
      for (int b = 0; b < 4; ++b) {
        burst.push_back(static_cast<DbId>(1 + rng() % kNumDbs));
      }
      for (Side* side : sides) {
        for (DbId db : burst) {
          EXPECT_TRUE(side->meta()
                          .UpsertState(db, DbState::kPhysicallyPaused,
                                       tick + s.config.prewarm_interval)
                          .ok());
        }
      }
    }
    for (EpochSeconds at : {tick - 45, tick - 15}) {
      for (Side* side : sides) side->Deliver(at);
      const DbId db = static_cast<DbId>(1 + rng() % kNumDbs);
      std::vector<DbId> failover_dbs = burst;
      if (failover_dbs.empty()) failover_dbs.push_back(db);
      const EpochSeconds start =
          at + s.config.prewarm_interval +
          static_cast<EpochSeconds>(rng() % (2 * 3600));
      const bool pause = chance(s.p_pause);
      const bool resumed = chance(s.p_resumed);
      const bool login = chance(s.p_login);
      const bool unpumped = chance(s.p_login_unpumped);
      const bool maintenance = chance(s.p_maintenance);
      const bool failover = chance(s.p_failover);
      const bool remove = chance(s.p_remove);
      for (Side* side : sides) {
        if (pause) {
          EXPECT_TRUE(
              side->meta().UpsertState(db, DbState::kPhysicallyPaused, start)
                  .ok());
        }
        if (resumed) {
          EXPECT_TRUE(side->meta().UpsertState(db, DbState::kResumed, 0).ok());
        }
        if (login) {
          EXPECT_TRUE(side->svc().EnqueueReactive(db, at).ok());
          side->svc().Pump(at);
        }
        if (unpumped) {
          EXPECT_TRUE(side->svc().EnqueueReactive(db % 7 + 1, at).ok());
        }
        if (maintenance) {
          EXPECT_TRUE(side->svc().EnqueueMaintenance(db, at).ok());
        }
        if (failover) {
          for (DbId f : failover_dbs) {
            EXPECT_TRUE(side->svc().EnqueueFailover(f, at).ok());
          }
          side->svc().Pump(at);
        }
        if (remove) {
          EXPECT_TRUE(side->meta().Remove(db).ok());
        }
      }
      if (crash_pending && held > 0) {
        // Both planes die between ticks the skipping plane skipped; the
        // held count survives in the caller.
        crash_pending = false;
        ++stats.crashes;
        for (Side* side : sides) side->LoseWire();
        open_both(at + 1);
      }
    }
    if (fence_pending && skipping.svc().IdleAt(tick)) {
      // Fence both planes on an otherwise idle tick: an injected crash
      // after a journaled node-death declaration.  The skipping plane
      // must then run the tick, and fail it, like the reference.
      fence_pending = false;
      ++stats.fences;
      for (Side* side : sides) {
        faults::CrashPointRegistry::Global().Arm(
            faults::kCpPostJournalPreApply, 1);
        EXPECT_FALSE(side->svc().NoteNodeDead(3, tick - 5).ok());
        faults::CrashPointRegistry::Global().Reset();
        EXPECT_TRUE(side->svc().fenced());
      }
    }

    const bool skip = skipping.svc().IdleAt(tick);
    Result<uint64_t> ra = every.svc().RunOnce(tick);
    if (skip) {
      EXPECT_TRUE(ra.ok()) << s.name << " tick " << i << ": "
                           << ra.status().ToString();
      EXPECT_EQ(ra.ok() ? *ra : 1, 0u)
          << s.name << " tick " << i << ": skipped a resuming iteration";
      ++held;
      ++stats.skipped;
    } else {
      Result<uint64_t> rb = skipping.svc().RunOnce(tick, held);
      ++stats.runs;
      EXPECT_EQ(ra.status().code(), rb.status().code())
          << s.name << " tick " << i;
      if (ra.ok() && rb.ok()) {
        EXPECT_EQ(*ra, *rb) << s.name << " tick " << i;
        held = 0;
        EXPECT_EQ(every.CheckpointBytes(), skipping.CheckpointBytes())
            << s.name << " tick " << i;
      } else if (!ra.ok() && !rb.ok()) {
        // Both fenced: recover both from their journals.
        for (Side* side : sides) side->LoseWire();
        open_both(tick + 5);
      }
    }
    EXPECT_EQ(ObservableDigest(every.svc(), 0),
              ObservableDigest(skipping.svc(), held))
        << s.name << " tick " << i;
  }
  // The last tick always runs, so the final states match byte for byte.
  const EpochSeconds last = kT0 + s.ticks * kPeriod;
  Result<uint64_t> ra = every.svc().RunOnce(last);
  Result<uint64_t> rb = skipping.svc().RunOnce(last, held);
  EXPECT_TRUE(ra.ok() && rb.ok()) << s.name;
  EXPECT_EQ(every.CheckpointBytes(), skipping.CheckpointBytes()) << s.name;
  EXPECT_TRUE(skipping.svc().AccountingReconciles()) << s.name;
  stats.diagnostics = skipping.svc().diagnostics();
  fs::remove_all(dir);
  return stats;
}

ControlPlaneConfig BaseConfig() {
  ControlPlaneConfig config;
  config.prewarm_interval = Minutes(5);
  config.resume_operation_period = kPeriod;
  config.retry_backoff_cap = 480;
  return config;
}

Scenario Plain() {
  Scenario s;
  s.name = "plain";
  s.config = BaseConfig();
  s.seed = 11;
  return s;
}

Scenario HedgingWire() {
  Scenario s;
  s.name = "hedging_wire";
  s.config = BaseConfig();
  s.config.deadline_hedging_enabled = true;
  s.config.deadline_imminent = Minutes(4);
  s.pending_pct = 30;
  s.seed = 12;
  return s;
}

Scenario Storm() {
  Scenario s;
  s.name = "storm";
  s.config = BaseConfig();
  s.config.queue_capacity = 8;
  s.config.admission_control_enabled = true;
  s.config.storm_due_burst_threshold = 2;
  s.config.storm_login_spike_threshold = 2;
  s.config.storm_recovery_backlog = 2;
  s.config.storm_cooldown = Minutes(10);
  s.pending_pct = 20;
  s.p_pause = 80;
  s.p_login = 40;
  s.p_maintenance = 10;
  // Failover work promotes queued pre-warms without counting a login, so
  // a storm can outlive its last queued item.
  s.config.slow_start_initial_quota = 1;
  s.p_failover = 100;
  s.p_burst = 40;
  s.seed = 13;
  return s;
}

Scenario Breaker() {
  Scenario s;
  s.name = "breaker";
  s.config = BaseConfig();
  s.config.breaker_window = 4;
  s.config.breaker_open_duration = Minutes(5);
  s.config.breaker_half_open_probes = 1;
  s.max_attempts = 1;
  s.p_pause = 80;
  s.p_maintenance = 15;
  s.outage_from = kT0 + Hours(4);
  s.outage_to = kT0 + Hours(9);
  s.seed = 14;
  return s;
}

/// Every mechanism at once, journaled.
Scenario Mixed(const std::string& name) {
  Scenario s;
  s.name = name;
  s.config = BaseConfig();
  s.config.deadline_hedging_enabled = true;
  s.config.deadline_imminent = Minutes(4);
  s.config.queue_capacity = 8;
  s.config.admission_control_enabled = true;
  s.config.catch_up_enabled = true;
  s.config.storm_due_burst_threshold = 3;
  s.config.storm_login_spike_threshold = 2;
  s.config.storm_recovery_backlog = 2;
  s.config.storm_cooldown = Minutes(10);
  s.config.breaker_window = 4;
  s.config.breaker_half_open_probes = 1;
  s.max_attempts = 2;
  s.pending_pct = 25;
  s.p_pause = 70;
  s.p_login = 40;
  s.p_maintenance = 10;
  s.p_failover = 5;
  s.p_remove = 5;
  s.outage_from = kT0 + Hours(10);
  s.outage_to = kT0 + Hours(13);
  s.seed = 15;
  s.journaled = true;
  return s;
}

TEST(IdleIterationTest, SkippingIdleTicksMatchesRunningEveryTick) {
  for (const Scenario& s : {Plain(), HedgingWire(), Storm(), Breaker(),
                            Mixed("mixed_journaled")}) {
    const LockstepStats stats = RunLockstep(s);
    ASSERT_FALSE(HasFailure()) << s.name;
    // Both kinds of tick occur, and so does every mechanism the scenario
    // turns on, so the comparison is not vacuous.
    EXPECT_GT(stats.skipped, 0u) << s.name;
    EXPECT_GT(stats.runs, 0u) << s.name;
    const DiagnosticsReport& d = stats.diagnostics;
    if (s.config.deadline_hedging_enabled) {
      EXPECT_GT(d.cls(ResumeClass::kReactiveLogin).hedged, 0u) << s.name;
    }
    if (s.pending_pct > 0) {
      EXPECT_GT(d.unacked_dispatches, 0u) << s.name;
      EXPECT_GT(d.dispatch_timeouts, 0u) << s.name;
    }
    if (s.config.StormControlEnabled()) {
      EXPECT_GT(d.storms_detected, 0u) << s.name;
      EXPECT_GT(d.slow_start_ticks, 0u) << s.name;
    }
    if (s.outage_to > 0) {
      EXPECT_GT(d.breaker_opens, 0u) << s.name;
    }
    if (s.p_maintenance > 0) {
      EXPECT_GT(d.cls(ResumeClass::kMaintenance).enqueued, 0u) << s.name;
    }
    if (s.p_failover > 0) {
      EXPECT_GT(d.failover_requeues, 0u) << s.name;
    }
    if (s.p_remove > 0) {
      EXPECT_GT(d.deleted_while_queued, 0u) << s.name;
    }
  }
}

TEST(IdleIterationTest, CrashAndFenceBetweenSkippedTicksKeepTheCount) {
  Scenario s = Mixed("crash_fence");
  s.crash_every = 150;
  s.fence_every = 230;
  s.seed = 16;
  const LockstepStats stats = RunLockstep(s);
  ASSERT_FALSE(HasFailure());
  EXPECT_GT(stats.skipped, 0u);
  EXPECT_GE(stats.crashes, 5u);
  EXPECT_GE(stats.fences, 5u);
}

}  // namespace
}  // namespace prorp::controlplane
