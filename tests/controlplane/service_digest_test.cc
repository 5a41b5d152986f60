// Golden digests of the management service, two per scripted run, each
// an FNV-1a 64-bit hash.  The behaviour digest covers every journal
// record the service appends (read back through journal replay), every
// DiagnosticsReport field, the resumed_per_iteration sample as a
// multiset (its count, then its values in ascending order) and the
// service counters.  The checkpoint digest covers the bytes of the
// checkpoints written of the same states.  The scripted runs drive every
// workflow transition — inline verdicts, verdicts that arrive on the
// wire, hedges, timeouts, late and stale acks, and a crash whose recovery
// reconciles unacked dispatches and lost in-flight resumes.  A refactor
// of the service must leave every constant unchanged, and a change of the
// checkpoint format may move only the checkpoint digests.  Changing a
// constant is a deliberate, reviewed edit.

#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "controlplane/checkpoint.h"
#include "controlplane/durable_control_plane.h"
#include "controlplane/journal.h"
#include "controlplane/management_service.h"
#include "faults/crash_points.h"
#include "golden_digest.h"

namespace prorp::controlplane {
namespace {

namespace fs = std::filesystem;
using golden::AddDiagnostics;
using golden::Fnv1a;
using policy::DbState;

constexpr EpochSeconds kT0 = 2'000'000;
constexpr size_t kNumJournalEvents = 19;

/// The two digests of one scripted run.
struct Digests {
  uint64_t behaviour = 0;
  uint64_t checkpoint = 0;
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// The node side of the script: each dispatch of a database takes the
/// next verdict planned for it (OK when none is left).  kPending parks
/// the attempt on the "wire" for the script to ack, time out or lose;
/// kPendingApplied also applies the resume on the node (its ack is the
/// one a crash loses).  kNackPrimary, for a hedge, first delivers a
/// transient nack of the primary dispatch still on the wire (an ack the
/// transport hands over while the hedge is being sent), then fails the
/// hedge too.
enum class Verdict {
  kOk,
  kGone,
  kTransient,
  kPending,
  kPendingApplied,
  kNackPrimary,
};

struct ScriptedNode {
  std::map<DbId, std::deque<Verdict>> plan;
  std::vector<ResumeAttempt> wire;
  std::set<DbId> resumed;
  Fnv1a* hash = nullptr;
  ManagementService* svc = nullptr;

  Status Resume(const ResumeAttempt& a) {
    hash->Add(static_cast<uint64_t>(a.db));
    hash->Add(static_cast<uint64_t>(a.cls));
    hash->Add(static_cast<uint64_t>(a.attempt));
    hash->Add(static_cast<uint64_t>(a.hedge));
    hash->Add(static_cast<uint64_t>(a.node_offset));
    hash->Add(static_cast<uint64_t>(a.enqueued_at));
    hash->Add(a.request_id);
    Verdict v = Verdict::kOk;
    if (auto& q = plan[a.db]; !q.empty()) {
      v = q.front();
      q.pop_front();
    }
    switch (v) {
      case Verdict::kOk:
        resumed.insert(a.db);
        return Status::OK();
      case Verdict::kGone:
        return Status::FailedPrecondition("already resumed");
      case Verdict::kTransient:
        return Status::Unavailable("transient");
      case Verdict::kPendingApplied:
        resumed.insert(a.db);
        [[fallthrough]];
      case Verdict::kPending:
        wire.push_back(a);
        return Status::Pending("on the wire");
      case Verdict::kNackPrimary: {
        ResumeAttempt primary = Take(a.db);
        svc->OnDispatchAck(primary.db, primary.request_id,
                           Status::Unavailable("primary nack"), 0);
        return Status::Unavailable("transient");
      }
    }
    return Status::OK();
  }

  /// Removes and returns the wire entry of `db` (the newest one, or the
  /// hedge when `hedge` is set).
  ResumeAttempt Take(DbId db, bool hedge = false) {
    for (auto it = wire.end(); it != wire.begin();) {
      --it;
      if (it->db == db && it->hedge == hedge) {
        ResumeAttempt a = *it;
        wire.erase(it);
        return a;
      }
    }
    ADD_FAILURE() << "no wire entry for db " << db << " hedge " << hedge;
    return ResumeAttempt{};
  }
};

/// One scripted control plane: a DurableControlPlane over a fresh
/// directory, the scripted node, and the running digest.
class Harness {
 public:
  Harness(const std::string& name, ControlPlaneConfig config,
          int max_attempts)
      : dir_(testing::TempDir() + "/service_digest_" + name) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    options_.dir = dir_;
    options_.config = config;
    options_.max_attempts = max_attempts;
    options_.checkpoint_every = 0;
    node_.hash = &hash_;
    Open(kT0);
  }

  ~Harness() { fs::remove_all(dir_); }

  ManagementService& svc() { return plane_->service(); }
  MetadataStore& meta() { return plane_->metadata(); }
  ScriptedNode& node() { return node_; }

  void Paused(DbId db, EpochSeconds predicted_start) {
    ASSERT_TRUE(
        meta().UpsertState(db, DbState::kPhysicallyPaused, predicted_start)
            .ok());
  }

  void Plan(DbId db, std::initializer_list<Verdict> verdicts) {
    auto& q = node_.plan[db];
    q.insert(q.end(), verdicts.begin(), verdicts.end());
  }

  void Run(EpochSeconds now) {
    auto r = svc().RunOnce(now);
    ASSERT_TRUE(r.ok() || svc().fenced()) << r.status().ToString();
    hash_.Add(r.ok() ? *r : 1000 + static_cast<uint64_t>(r.status().code()));
  }

  void Pump(EpochSeconds now) { hash_.Add(svc().Pump(now)); }

  void Ack(const ResumeAttempt& a, const Status& verdict, EpochSeconds now) {
    svc().OnDispatchAck(a.db, a.request_id, verdict, now);
  }

  /// Simulated control-plane death: the plane is dropped without a
  /// checkpoint and recovered from the journal.  `lost` databases no
  /// longer show their resume on the node.
  void Crash(EpochSeconds now, std::initializer_list<DbId> lost = {}) {
    for (DbId db : lost) node_.resumed.erase(db);
    plane_.reset();
    node_.wire.clear();
    Open(now);
  }

  /// Folds the end state into the digests: every journal record (read
  /// back through replay), the diagnostics, the iteration samples and a
  /// checkpoint's bytes, then the same again for a plane recovered from
  /// this one's journal.  Returns the digests.
  Digests Finish(EpochSeconds now, std::set<JournalEvent>* seen) {
    EXPECT_TRUE(svc().AccountingReconciles());
    AddState(seen);
    Crash(now);
    EXPECT_TRUE(svc().AccountingReconciles());
    AddState(nullptr);
    return {hash_.value(), checkpoint_hash_.value()};
  }

  /// Folds the journal and the service's in-memory state into the
  /// behaviour digest and a checkpoint of it into the checkpoint digest.
  /// `seen` collects the journaled event kinds.
  void AddState(std::set<JournalEvent>* seen) {
    auto replayed = ControlPlaneJournal::Replay(
        plane_->journal_path(),
        [&](uint64_t seq, const JournalRecord& rec) -> Status {
          if (seen != nullptr) seen->insert(rec.event);
          hash_.Add(seq);
          hash_.Add(static_cast<uint64_t>(rec.event));
          hash_.Add(rec.epoch);
          hash_.Add(static_cast<uint64_t>(rec.db));
          hash_.Add(static_cast<uint64_t>(rec.cls));
          hash_.Add(static_cast<uint64_t>(rec.flags));
          hash_.Add(static_cast<uint64_t>(rec.attempt));
          hash_.Add(static_cast<uint64_t>(rec.time));
          hash_.Add(static_cast<uint64_t>(rec.enqueued_at));
          hash_.Add(static_cast<uint64_t>(rec.not_before));
          hash_.Add(static_cast<uint64_t>(rec.deadline));
          hash_.Add(static_cast<uint64_t>(rec.predicted_start));
          for (uint64_t s : rec.stats) hash_.Add(s);
          return Status::OK();
        });
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    hash_.Add(*replayed);
    AddDiagnostics(hash_, svc().diagnostics());
    const Summary& per_iteration = svc().resumed_per_iteration();
    hash_.Add(static_cast<uint64_t>(per_iteration.count()));
    for (double v : per_iteration.Sorted()) hash_.Add(v);
    hash_.Add(svc().total_resumed());
    hash_.Add(static_cast<uint64_t>(svc().pending_workflows()));
    hash_.Add(static_cast<uint64_t>(svc().in_flight()));
    hash_.Add(static_cast<uint64_t>(svc().unacked()));
    std::string path = dir_ + "/digest.ckpt";
    ASSERT_TRUE(SaveCheckpoint(path, meta(), svc(),
                               plane_->recovery_stats().epoch,
                               plane_->journal().next_seq() - 1)
                    .ok());
    checkpoint_hash_.AddBytes(ReadFileBytes(path));
  }

 private:
  void Open(EpochSeconds now) {
    auto plane = DurableControlPlane::Open(
        options_,
        [this](const ResumeAttempt& a, EpochSeconds) {
          return node_.Resume(a);
        },
        [this](DbId db) { return node_.resumed.count(db) != 0; }, now);
    ASSERT_TRUE(plane.ok()) << plane.status().ToString();
    plane_ = std::move(*plane);
    node_.svc = &plane_->service();
    const auto& rs = plane_->recovery_stats();
    for (uint64_t v : {rs.epoch, static_cast<uint64_t>(rs.checkpoint_loaded),
                       rs.replayed, rs.skipped, rs.reconcile.completed,
                       rs.reconcile.requeued,
                       rs.reconcile.in_flight_requeued}) {
      hash_.Add(v);
    }
  }

  std::string dir_;
  DurableControlPlane::Options options_;
  ScriptedNode node_;
  Fnv1a hash_;
  Fnv1a checkpoint_hash_;
  std::unique_ptr<DurableControlPlane> plane_;
};

ControlPlaneConfig BaseConfig() {
  ControlPlaneConfig config;
  config.prewarm_interval = 300;
  config.resume_operation_period = 60;
  config.retry_backoff_cap = 240;
  config.deadline_hedging_enabled = true;
  return config;
}

/// Mostly inline verdicts: success, state-changed, transient retries up
/// to an incident, a breaker that opens, sheds, and half-opens twice
/// (failed probes inline and on the wire) before it closes, a
/// storm with catch-up and slow start, brownout shedding and eviction,
/// promotion, deletion while queued, queue and in-flight hedges, and a
/// node-death failover.
Digests InlineScenario(std::set<JournalEvent>* seen) {
  ControlPlaneConfig config = BaseConfig();
  config.queue_capacity = 8;
  config.admission_control_enabled = true;
  config.catch_up_enabled = true;
  config.breaker_window = 4;
  config.breaker_open_duration = 180;
  config.breaker_half_open_probes = 2;
  config.storm_due_burst_threshold = 5;
  config.storm_login_spike_threshold = 3;
  config.storm_recovery_backlog = 2;
  config.storm_cooldown = 600;
  Harness h("inline", config, /*max_attempts=*/3);

  // Ten databases whose predicted starts fall one a minute from k on,
  // five of them due together (the burst), and three missed pre-warms
  // the catch-up sweep finds.
  for (DbId db = 1; db <= 10; ++db) h.Paused(db, kT0 + 300 + (db / 2) * 60);
  for (DbId db = 11; db <= 15; ++db) h.Paused(db, kT0 + 420);
  for (DbId db = 16; db <= 18; ++db) h.Paused(db, kT0 - 600 + db);
  h.Plan(2, {Verdict::kGone});
  h.Plan(3, {Verdict::kTransient, Verdict::kOk});
  h.Plan(4, {Verdict::kTransient, Verdict::kTransient, Verdict::kTransient});
  h.Plan(12, {Verdict::kTransient, Verdict::kTransient});
  h.Plan(13, {Verdict::kTransient});
  h.Plan(14, {Verdict::kTransient});
  h.Plan(15, {Verdict::kTransient});
  // Maintenance touches fill the bounded queue: brownout sheds some and
  // higher-class arrivals evict others.
  for (DbId db = 30; db <= 37; ++db) {
    h.Paused(db, 0);
    EXPECT_TRUE(h.svc().EnqueueMaintenance(db, kT0).ok());
  }
  // A reactive login outruns a queued maintenance touch (promotion).
  EXPECT_TRUE(h.svc().EnqueueReactive(31, kT0).ok());
  // A queued maintenance touch whose database is dropped.
  EXPECT_TRUE(h.meta().Remove(32).ok());
  // Pre-warms that come due while the breaker is open (shed) and while it
  // probes: db 72's probe fails on the wire and db 76's inline, each
  // re-opening it; then db 76's retry succeeds inline and db 73 on the
  // wire, closing it, while dbs 74 and 75 wait out the probe budget.
  for (DbId db : {DbId{70}, DbId{71}}) h.Paused(db, kT0 + 840);
  h.Paused(72, kT0 + 960);
  h.Paused(76, kT0 + 1200);
  for (DbId db : {DbId{73}, DbId{74}, DbId{75}}) h.Paused(db, kT0 + 1380);
  h.Plan(72, {Verdict::kPending});
  h.Plan(73, {Verdict::kPending});
  h.Plan(76, {Verdict::kTransient});

  for (int step = 0; step < 40; ++step) {
    EpochSeconds now = kT0 + step * 60;
    if (step == 2) {
      for (DbId db = 40; db <= 43; ++db) {
        h.Paused(db, 0);
        EXPECT_TRUE(h.svc().EnqueueReactive(db, now).ok());
      }
    }
    if (step == 4) {
      EXPECT_TRUE(h.svc().NoteNodeDead(/*node=*/2, now).ok());
      for (DbId db : {DbId{50}, DbId{51}, DbId{40}}) {
        h.Paused(db, 0);
        EXPECT_TRUE(h.svc().EnqueueFailover(db, now).ok());
      }
    }
    if (step == 6) h.svc().CompleteWorkflow(41, now);
    if (step == 12) {
      // A reactive resume that fails until its queued deadline passes:
      // the drain hedges it.
      h.Paused(60, 0);
      h.Plan(60, {Verdict::kTransient, Verdict::kTransient, Verdict::kOk});
      EXPECT_TRUE(h.svc().EnqueueReactive(60, now).ok());
    }
    h.Run(now);
    h.Pump(now + 30);
    std::vector<ResumeAttempt> wire;
    wire.swap(h.node().wire);
    for (const ResumeAttempt& a : wire) {
      h.Ack(a, a.db == 72 ? Status::Unavailable("probe") : Status::OK(),
            now + 10);
    }
    // Reactive resumes complete within a minute except 42 and 43, whose
    // in-flight deadline the watchdog rescues with a hedge.
    for (DbId db : {DbId{40}, DbId{50}, DbId{51}, DbId{60}}) {
      h.svc().CompleteWorkflow(db, now + 45);
    }
  }
  return h.Finish(kT0 + 41 * 60, seen);
}

/// Verdicts on the wire: acks of every kind, a transient nack from one
/// half of a hedged pair, inline hedge verdicts, a timeout, a late and a
/// stale-epoch ack, and reactive logins absorbed while unacked.  The
/// bounded queue (no brownout) evicts maintenance touches for due
/// pre-warms.
Digests WireScenario(std::set<JournalEvent>* seen) {
  ControlPlaneConfig config = BaseConfig();
  config.deadline_imminent = 240;
  config.queue_capacity = 13;
  Harness h("wire", config, /*max_attempts=*/2);
  ScriptedNode& node = h.node();

  for (DbId db = 30; db <= 31; ++db) {
    h.Paused(db, 0);
    EXPECT_TRUE(h.svc().EnqueueMaintenance(db, kT0).ok());
  }
  for (DbId db = 1; db <= 13; ++db) {
    h.Paused(db, kT0 + 300 + 30 * (db % 2));
    h.Plan(db, {Verdict::kPending});
  }
  EpochSeconds now = kT0;
  h.Run(now);  // every due database goes on the wire
  now += 20;
  h.Ack(node.Take(1), Status::OK(), now);
  h.Ack(node.Take(2), Status::FailedPrecondition("gone"), now);
  ResumeAttempt three = node.Take(3);
  h.Ack(three, Status::Unavailable("transient"), now);
  h.Ack(three, Status::OK(), now);  // duplicate: a late ack
  h.svc().NoteStaleEpochAck(3);
  // A reactive login absorbed while unacked, then each verdict.
  for (DbId db : {DbId{4}, DbId{5}, DbId{6}}) {
    EXPECT_TRUE(h.svc().EnqueueReactive(db, now).ok());
  }
  h.Ack(node.Take(4), Status::OK(), now);
  h.Ack(node.Take(5), Status::Unavailable("transient"), now);
  h.Ack(node.Take(6), Status::FailedPrecondition("gone"), now);
  // A timeout requeues the dispatch with its attempt count unchanged
  // (and promotes it: a login was absorbed while it was on the wire).
  EXPECT_TRUE(h.svc().EnqueueReactive(7, now).ok());
  ResumeAttempt seven = node.Take(7);
  h.svc().OnDispatchTimeout(7, seven.request_id, now);
  h.Ack(seven, Status::OK(), now + 5);  // after the timeout: late

  // Items 8..13 stay unacked past their deadline; the watchdog hedges
  // them, each hedge with its own verdict.
  h.Plan(8, {Verdict::kPending});     // hedged pair, hedge nacks first
  h.Plan(9, {Verdict::kOk});          // inline hedge win
  h.Plan(10, {Verdict::kTransient});  // inline hedge nack, primary live
  h.Plan(11, {Verdict::kGone});       // inline hedge state-changed
  h.Plan(12, {Verdict::kPending});    // hedged pair, primary wins
  h.Plan(13, {Verdict::kNackPrimary});  // both halves fail
  // Db 20 fails inline, then its retry goes on the wire, absorbs a login
  // and fails again: an incident with the login still to serve.
  h.Plan(20, {Verdict::kTransient, Verdict::kPending});
  for (int step = 1; step <= 12; ++step) {
    now = kT0 + step * 60;
    h.Run(now);
    h.Pump(now + 30);
    if (step == 6) {
      h.Ack(node.Take(8, /*hedge=*/true), Status::Unavailable("nack"), now);
      h.Ack(node.Take(8), Status::OK(), now + 1);
      h.Ack(node.Take(10), Status::OK(), now);
      h.Ack(node.Take(12), Status::OK(), now);
      h.Ack(node.Take(12, /*hedge=*/true), Status::OK(), now);  // late
      h.Paused(20, now + 360);
    }
    // Everything else on the wire is acked OK a little later.
    std::vector<ResumeAttempt> rest;
    rest.swap(node.wire);
    for (const ResumeAttempt& a : rest) {
      if (a.db == 20) {
        EXPECT_TRUE(h.svc().EnqueueReactive(20, now).ok());
        h.Ack(a, Status::Unavailable("transient"), now + 10);
      } else if (step < 6 && a.db >= 8 && a.db <= 13) {
        node.wire.push_back(a);
      } else {
        h.Ack(a, Status::OK(), now + 40);
      }
    }
    for (DbId db = 1; db <= 20; ++db) h.svc().CompleteWorkflow(db, now + 50);
  }
  const DiagnosticsReport& d = h.svc().diagnostics();
  EXPECT_GT(d.late_acks, 0u);
  EXPECT_GT(d.stale_epoch_acks, 0u);
  EXPECT_GT(d.dispatch_timeouts, 0u);
  EXPECT_GT(d.incidents, 0u);
  return h.Finish(kT0 + 14 * 60, seen);
}

/// A crash with dispatches on the wire and reactive resumes in flight:
/// recovery reconciles one unacked dispatch the node applied (complete),
/// one it never saw (requeue) and one in-flight resume the node lost.
Digests CrashScenario(std::set<JournalEvent>* seen) {
  ControlPlaneConfig config = BaseConfig();
  Harness h("crash", config, /*max_attempts=*/3);

  for (DbId db = 1; db <= 6; ++db) h.Paused(db, kT0 + 300 + 30 * (db % 2));
  h.Plan(1, {Verdict::kPendingApplied});
  h.Plan(2, {Verdict::kPending});
  h.Plan(3, {Verdict::kTransient});
  for (DbId db = 7; db <= 9; ++db) h.Paused(db, 0);
  EpochSeconds now = kT0;
  for (DbId db = 7; db <= 9; ++db) {
    EXPECT_TRUE(h.svc().EnqueueReactive(db, now).ok());
  }
  h.Run(now);
  h.Pump(now + 30);
  h.svc().CompleteWorkflow(9, now + 40);
  EXPECT_GT(h.svc().unacked(), 0u);
  EXPECT_GT(h.svc().in_flight(), 0u);
  // Crash: db 1's resume is on the node, db 2's never arrived, and the
  // node lost db 8's in-flight resume.
  h.Crash(now + 50, {DbId{8}});
  for (int step = 1; step <= 8; ++step) {
    now = kT0 + step * 60;
    h.Run(now);
    h.Pump(now + 30);
    for (DbId db = 1; db <= 9; ++db) h.svc().CompleteWorkflow(db, now + 40);
  }
  return h.Finish(kT0 + 10 * 60, seen);
}

/// A fence at every journaled transition and at every dispatch of a
/// short mixed workload: the fenced service's in-memory state (what it
/// applied, and where it put back the item it held) and the plane
/// recovered from its journal.
Digests FenceScenario(std::set<JournalEvent>* seen) {
  faults::CrashPointRegistry& crashes = faults::CrashPointRegistry::Global();
  Fnv1a behaviour;
  Fnv1a checkpoint;
  for (std::string_view point :
       {faults::kCpPostJournalPreApply, faults::kCpDispatchPreAck}) {
    for (uint64_t nth = 1;; ++nth) {
      Harness h("fence", BaseConfig(), /*max_attempts=*/2);
      for (DbId db = 1; db <= 6; ++db) h.Paused(db, kT0 + 300 + 60 * (db % 2));
      h.Plan(2, {Verdict::kTransient});
      h.Plan(3, {Verdict::kPending});
      h.Plan(4, {Verdict::kGone});
      h.Plan(5, {Verdict::kPending, Verdict::kPending});
      for (DbId db = 7; db <= 8; ++db) h.Paused(db, 0);
      crashes.Arm(point, nth);
      for (int step = 0; step < 6 && !h.svc().fenced(); ++step) {
        EpochSeconds now = kT0 + step * 60;
        if (step == 1) {
          for (DbId db = 7; db <= 8; ++db) {
            Status accepted = h.svc().EnqueueReactive(db, now);
            EXPECT_EQ(accepted.ok(), !h.svc().fenced());
          }
        }
        h.Run(now);
        h.Pump(now + 30);
        std::vector<ResumeAttempt> wire;
        wire.swap(h.node().wire);
        for (const ResumeAttempt& a : wire) {
          h.Ack(a, a.db == 5 ? Status::Unavailable("nack") : Status::OK(),
                now + 10);
        }
        for (DbId db = 7; db <= 8; ++db) {
          h.svc().CompleteWorkflow(db, now + 40);
        }
      }
      const bool fired = crashes.fired();
      crashes.Reset();
      if (!fired) break;  // every hit of `point` has had its turn
      h.AddState(seen);
      h.Crash(kT0 + 400);
      for (int step = 7; step < 10; ++step) {
        h.Run(kT0 + step * 60);
        h.Pump(kT0 + step * 60 + 30);
      }
      const Digests d = h.Finish(kT0 + 11 * 60, nullptr);
      behaviour.Add(d.behaviour);
      checkpoint.Add(d.checkpoint);
    }
  }
  return {behaviour.value(), checkpoint.value()};
}

TEST(ServiceDigestTest, ScriptedRunsAreBitIdentical) {
  std::set<JournalEvent> seen;
  const struct {
    const char* name;
    Digests (*run)(std::set<JournalEvent>*);
    uint64_t behaviour;
    uint64_t checkpoint;
  } cells[] = {
      {"inline", InlineScenario, 0x7377d7ef4b20b297ULL, 0xed257f82f6a5494bULL},
      {"wire", WireScenario, 0x7038f6b16e655f38ULL, 0x2425e1a6f54488c8ULL},
      {"crash", CrashScenario, 0x70337f286e46aabfULL, 0x3aff39d3dbee189bULL},
      {"fence", FenceScenario, 0xeae7213a1f806760ULL, 0x69b9ba37f570636bULL},
  };
  for (const auto& cell : cells) {
    const Digests d = cell.run(&seen);
    EXPECT_EQ(d.behaviour, cell.behaviour)
        << cell.name << ": behaviour digest 0x" << std::hex << d.behaviour;
    EXPECT_EQ(d.checkpoint, cell.checkpoint)
        << cell.name << ": checkpoint digest 0x" << std::hex << d.checkpoint;
  }
  // The scripts together journal every event kind.
  EXPECT_EQ(seen.size(), kNumJournalEvents);
  for (uint8_t e = 1; e <= kNumJournalEvents; ++e) {
    EXPECT_EQ(seen.count(static_cast<JournalEvent>(e)), 1u)
        << "journal event " << static_cast<int>(e);
  }
}

}  // namespace
}  // namespace prorp::controlplane
