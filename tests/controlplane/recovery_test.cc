#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "controlplane/checkpoint.h"
#include "controlplane/durable_control_plane.h"
#include "controlplane/journal.h"
#include "controlplane/management_service.h"
#include "controlplane/metadata_store.h"
#include "faults/crash_points.h"
#include "faults/fault_plan.h"
#include "storage/crc32.h"

namespace prorp::controlplane {
namespace {

namespace fs = std::filesystem;
using policy::DbState;

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

ControlPlaneConfig SmallConfig() {
  ControlPlaneConfig config;
  config.prewarm_interval = 300;
  config.resume_operation_period = 60;
  config.retry_backoff_base = 60;
  config.retry_backoff_cap = 240;
  config.queue_capacity = 16;
  config.admission_control_enabled = true;
  config.deadline_hedging_enabled = true;
  return config;
}

constexpr EpochSeconds kT0 = 1'000'000;

/// Drives a deterministic mixed workload against a bare (journal-less)
/// metadata store + service pair: proactive selections, failures with
/// backoff, reactive logins, an in-flight asynchronous resume.
void DriveWorkload(MetadataStore* meta, ManagementService* svc) {
  for (DbId db = 1; db <= 12; ++db) {
    ASSERT_TRUE(meta->UpsertState(db, DbState::kPhysicallyPaused,
                                  kT0 + 400 + db * 60)
                    .ok());
  }
  ASSERT_TRUE(meta->UpsertState(20, DbState::kResumed, 0).ok());
  for (int step = 0; step < 8; ++step) {
    EpochSeconds now = kT0 + step * 60;
    if (step == 3) {
      ASSERT_TRUE(svc->EnqueueReactive(2, now).ok());
    }
    if (step == 5) {
      ASSERT_TRUE(svc->EnqueueReactive(9, now).ok());
    }
    ASSERT_TRUE(svc->RunOnce(now).ok());
    svc->Pump(now + 30);
  }
  ASSERT_TRUE(svc->AccountingReconciles());
}

/// A service over an empty metadata store that accepts every resume.
struct BarePlane {
  explicit BarePlane(const ControlPlaneConfig& config = SmallConfig()) {
    auto opened = MetadataStore::Open();
    EXPECT_TRUE(opened.ok());
    meta = std::move(*opened);
    svc = std::make_unique<ManagementService>(
        meta.get(), config,
        [](const ResumeAttempt&, EpochSeconds) { return Status::OK(); });
  }
  std::unique_ptr<MetadataStore> meta;
  std::unique_ptr<ManagementService> svc;
};

/// Runs one iteration per value of `resumed`, each with exactly that many
/// databases newly due, and checks that it resumes them all.
void DriveIterations(BarePlane* plane,
                     std::initializer_list<uint64_t> resumed) {
  const ControlPlaneConfig& config = plane->svc->config();
  DbId next = 1;
  EpochSeconds now = kT0;
  for (uint64_t n : resumed) {
    for (uint64_t i = 0; i < n; ++i) {
      ASSERT_TRUE(plane->meta
                      ->UpsertState(next++, DbState::kPhysicallyPaused,
                                    now + config.prewarm_interval)
                      .ok());
    }
    auto r = plane->svc->RunOnce(now);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(*r, n);
    now += config.prewarm_interval + config.resume_operation_period;
  }
}

// Satellite: checkpoint round-trip.  Save -> load into a fresh pair ->
// save again must be byte-identical, i.e. the codec loses nothing it
// writes.
TEST(CheckpointTest, SaveLoadSaveIsByteIdentical) {
  std::string dir = FreshDir("ckpt_roundtrip");
  auto meta = MetadataStore::Open();
  ASSERT_TRUE(meta.ok());
  int odd_fail = 0;
  ManagementService svc(
      meta->get(), SmallConfig(),
      [&](const ResumeAttempt& a, EpochSeconds) -> Status {
        if (a.db % 2 == 1 && odd_fail++ < 4) {
          return Status::Unavailable("transient");
        }
        return Status::OK();
      },
      /*max_attempts=*/4);
  DriveWorkload(meta->get(), &svc);

  std::string p1 = dir + "/c1.bin";
  ASSERT_TRUE(
      SaveCheckpoint(p1, **meta, svc, /*epoch=*/5, /*last_seq=*/42).ok());

  auto meta2 = MetadataStore::Open();
  ASSERT_TRUE(meta2.ok());
  ManagementService svc2(
      meta2->get(), SmallConfig(),
      [](const ResumeAttempt&, EpochSeconds) { return Status::OK(); },
      /*max_attempts=*/4);
  auto loaded = LoadCheckpoint(p1, meta2->get(), &svc2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->epoch, 5u);
  EXPECT_EQ(loaded->last_seq, 42u);

  // Observable state matches...
  EXPECT_EQ((*meta2)->size(), (*meta)->size());
  auto e1 = (*meta)->Export();
  auto e2 = (*meta2)->Export();
  ASSERT_EQ(e1.size(), e2.size());
  for (size_t i = 0; i < e1.size(); ++i) {
    EXPECT_EQ(e1[i].db, e2[i].db);
    EXPECT_EQ(e1[i].state_code, e2[i].state_code);
    EXPECT_EQ(e1[i].predicted_start, e2[i].predicted_start);
  }
  EXPECT_EQ(svc2.pending_workflows(), svc.pending_workflows());
  EXPECT_EQ(svc2.in_flight(), svc.in_flight());
  EXPECT_EQ(svc2.total_resumed(), svc.total_resumed());
  EXPECT_EQ(svc2.diagnostics().stuck_workflows,
            svc.diagnostics().stuck_workflows);
  EXPECT_TRUE(svc2.AccountingReconciles());

  // ...and so do the bytes of a re-serialization.
  std::string p2 = dir + "/c2.bin";
  ASSERT_TRUE(SaveCheckpoint(p2, **meta2, svc2, 5, 42).ok());
  EXPECT_EQ(ReadFileBytes(p1), ReadFileBytes(p2));

  // Iterations that resumed none, one, a few and a thousand databases (an
  // unbounded queue, so the thousand go in one iteration) round-trip to
  // the same sample and the same bytes.
  BarePlane wide{ControlPlaneConfig()};
  DriveIterations(&wide, {0, 1, 7, 1000, 7, 0});
  std::string p3 = dir + "/c3.bin";
  ASSERT_TRUE(SaveCheckpoint(p3, *wide.meta, *wide.svc, 5, 42).ok());
  BarePlane wide2{ControlPlaneConfig()};
  ASSERT_TRUE(LoadCheckpoint(p3, wide2.meta.get(), wide2.svc.get()).ok());
  const Summary per_iteration = wide.svc->resumed_per_iteration();
  const Summary per_iteration2 = wide2.svc->resumed_per_iteration();
  EXPECT_EQ(per_iteration.Max(), 1000.0);
  EXPECT_EQ(per_iteration2.count(), per_iteration.count());
  EXPECT_EQ(per_iteration2.Sum(), per_iteration.Sum());
  EXPECT_EQ(per_iteration2.ToBoxPlot().ToString(),
            per_iteration.ToBoxPlot().ToString());
  EXPECT_EQ(per_iteration2.Sorted(), per_iteration.Sorted());
  std::string p4 = dir + "/c4.bin";
  ASSERT_TRUE(SaveCheckpoint(p4, *wide2.meta, *wide2.svc, 5, 42).ok());
  EXPECT_EQ(ReadFileBytes(p3), ReadFileBytes(p4));

  // Every section populated: all four class queues, an in-flight resume,
  // an unacked dispatch and both histograms.
  ControlPlaneConfig full = SmallConfig();
  full.catch_up_enabled = true;
  full.storm_due_burst_threshold = 1;
  BarePlane busy{full};
  busy.svc = std::make_unique<ManagementService>(
      busy.meta.get(), full,
      [](const ResumeAttempt& a, EpochSeconds) -> Status {
        if (a.db == 42) return Status::Pending("on the wire");
        if (a.db == 40 || a.db == 43) return Status::OK();
        return Status::Unavailable("transient");
      });
  ASSERT_TRUE(busy.meta->UpsertState(1, DbState::kPhysicallyPaused, kT0 + 310)
                  .ok());  // due: imminent, and trips the storm
  ASSERT_TRUE(busy.meta->UpsertState(2, DbState::kPhysicallyPaused, kT0 - 100)
                  .ok());  // missed: the catch-up sweep makes it speculative
  ASSERT_TRUE(
      busy.meta->UpsertState(3, DbState::kPhysicallyPaused, kT0 + 86'400)
          .ok());
  ASSERT_TRUE(busy.svc->EnqueueMaintenance(3, kT0).ok());
  for (DbId db : {40, 41, 42, 43}) {
    ASSERT_TRUE(busy.meta->UpsertState(db, DbState::kResumed, 0).ok());
    ASSERT_TRUE(busy.svc->EnqueueReactive(db, kT0).ok());
  }
  ASSERT_TRUE(busy.svc->RunOnce(kT0).ok());
  busy.svc->CompleteWorkflow(40, kT0 + 30);
  for (ResumeClass cls :
       {ResumeClass::kReactiveLogin, ResumeClass::kImminentProactive,
        ResumeClass::kSpeculativeProactive, ResumeClass::kMaintenance}) {
    ASSERT_EQ(busy.svc->queued(cls), 1u) << static_cast<int>(cls);
  }
  ASSERT_EQ(busy.svc->in_flight(), 1u);
  ASSERT_EQ(busy.svc->unacked(), 1u);
  ASSERT_GT(busy.svc->diagnostics().queue_wait.count(), 0u);
  ASSERT_EQ(busy.svc->diagnostics().in_flight_duration.count(), 1u);
  std::string p5 = dir + "/c5.bin";
  ASSERT_TRUE(SaveCheckpoint(p5, *busy.meta, *busy.svc, 5, 42).ok());
  // A restored unacked dispatch re-enters its queue pending
  // reconciliation, so the first re-save moves it from the unacked
  // section to the queue section (same size); from there the bytes are
  // fixed.
  BarePlane busy2{full};
  ASSERT_TRUE(LoadCheckpoint(p5, busy2.meta.get(), busy2.svc.get()).ok());
  EXPECT_EQ(busy2.svc->queued(ResumeClass::kReactiveLogin), 2u);
  EXPECT_EQ(busy2.svc->unacked(), 0u);
  EXPECT_EQ(busy2.svc->in_flight(), 1u);
  for (auto hist : {&DiagnosticsReport::queue_wait,
                    &DiagnosticsReport::in_flight_duration}) {
    const telemetry::Histogram& h = busy.svc->diagnostics().*hist;
    const telemetry::Histogram& h2 = busy2.svc->diagnostics().*hist;
    EXPECT_EQ(h2.buckets(), h.buckets());
    EXPECT_EQ(h2.count(), h.count());
    EXPECT_EQ(h2.max(), h.max());
    EXPECT_EQ(h2.sum(), h.sum());
  }
  std::string p6 = dir + "/c6.bin";
  ASSERT_TRUE(SaveCheckpoint(p6, *busy2.meta, *busy2.svc, 5, 42).ok());
  EXPECT_EQ(ReadFileBytes(p5).size(), ReadFileBytes(p6).size());
  BarePlane busy3{full};
  ASSERT_TRUE(LoadCheckpoint(p6, busy3.meta.get(), busy3.svc.get()).ok());
  std::string p7 = dir + "/c7.bin";
  ASSERT_TRUE(SaveCheckpoint(p7, *busy3.meta, *busy3.svc, 5, 42).ok());
  EXPECT_EQ(ReadFileBytes(p6), ReadFileBytes(p7));
}

// A checkpoint holds the live state, not the run's history: the same
// metadata rows checkpoint to the same size after 100 idle iterations as
// after 20,000.
TEST(CheckpointTest, SizeIndependentOfRunLength) {
  std::string dir = FreshDir("ckpt_run_length");
  uintmax_t sizes[2] = {0, 0};
  const int iterations[2] = {100, 20'000};
  for (int run = 0; run < 2; ++run) {
    BarePlane plane;
    for (DbId db = 1; db <= 20; ++db) {
      // Paused with no pre-warm due during the run, or resumed.
      ASSERT_TRUE(plane.meta
                      ->UpsertState(db,
                                    db % 2 == 0 ? DbState::kPhysicallyPaused
                                                : DbState::kResumed,
                                    db % 2 == 0 ? kT0 + 100'000'000 : 0)
                      .ok());
    }
    for (int i = 0; i < iterations[run]; ++i) {
      auto resumed = plane.svc->RunOnce(kT0 + i * 60);
      ASSERT_TRUE(resumed.ok());
      ASSERT_EQ(*resumed, 0u);
    }
    ASSERT_EQ(plane.svc->diagnostics().observed_iterations,
              static_cast<uint64_t>(iterations[run]));
    std::string path = dir + "/c" + std::to_string(run) + ".bin";
    ASSERT_TRUE(SaveCheckpoint(path, *plane.meta, *plane.svc, 1, 1).ok());
    sizes[run] = fs::file_size(path);
  }
  EXPECT_EQ(sizes[1], sizes[0]);
}

// A CRC-valid checkpoint whose iteration-count section claims more
// entries than its bytes hold, or counts its counters contradict, is
// Corruption; the loader neither allocates nor loops per claimed entry.
// So is a journaled iteration that claims more resumes than ever resumed.
TEST(CheckpointTest, ImplausibleIterationCountsAreCorruption) {
  std::string dir = FreshDir("ckpt_bad_counts");
  std::string path = dir + "/c.bin";
  {
    BarePlane plane{ControlPlaneConfig()};
    DriveIterations(&plane, {3, 3});  // counts {0, 0, 0, 2}
    // Checkpointed without its rows, so the sample section sits at a
    // fixed offset.
    for (DbId db = 1; db <= 6; ++db) ASSERT_TRUE(plane.meta->Remove(db).ok());
    ASSERT_TRUE(SaveCheckpoint(path, *plane.meta, *plane.svc, 1, 1).ok());
  }
  const std::string good = ReadFileBytes(path);
  // Magic and version; epoch, last_seq and an empty row section; one
  // empty queue per class and no in-flight work.
  const size_t section = 8 + 3 * 8 + kNumResumeClasses * 8 + 8;
  auto word = [&](const std::string& bytes, size_t at) {
    uint64_t v;
    std::memcpy(&v, bytes.data() + at, sizeof(v));
    return v;
  };
  ASSERT_EQ(word(good, section), 4u);
  ASSERT_EQ(word(good, section + 4 * 8), 2u);

  const struct {
    const char* what;
    size_t at;
    uint64_t value;
  } forgeries[] = {
      {"2^40 values", section, uint64_t{1} << 40},
      {"one value more than the body holds", section,
       (good.size() - 4 - section - 8) / 8 + 1},
      {"a count of 2^62", section + 4 * 8, uint64_t{1} << 62},
      {"a count of 2^62 for no resumes", section + 1 * 8, uint64_t{1} << 62},
      {"one iteration too many", section + 1 * 8, 1},
  };
  for (const auto& forgery : forgeries) {
    std::string bytes = good;
    std::memcpy(bytes.data() + forgery.at, &forgery.value,
                sizeof(forgery.value));
    const uint32_t crc = storage::Crc32(
        reinterpret_cast<const uint8_t*>(bytes.data()) + 8,
        bytes.size() - 12);
    std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

    BarePlane plane;
    auto loaded = LoadCheckpoint(path, plane.meta.get(), plane.svc.get());
    ASSERT_FALSE(loaded.ok()) << forgery.what;
    EXPECT_TRUE(loaded.status().IsCorruption())
        << forgery.what << ": " << loaded.status().ToString();
  }

  BarePlane plane;
  JournalRecord iteration;
  iteration.event = JournalEvent::kIteration;
  iteration.stats[0] = uint64_t{1} << 40;
  EXPECT_TRUE(plane.svc->ApplyForRecovery(iteration).IsCorruption());
  EXPECT_EQ(plane.svc->diagnostics().observed_iterations, 0u);
  EXPECT_EQ(plane.svc->resumed_per_iteration().count(), 0u);
}

// Idle iterations counted by a skipping caller travel in the next
// kIteration frame and replay by addition: recovery counts them exactly,
// with or without a checkpoint, and a count that would overflow
// observed_iterations or the zero entry of the per-count sample is
// Corruption.  A forged count near the bound applies in one step.
TEST(DurableControlPlaneTest, IdleIterationCountReplaysByAddition) {
  const std::string dir = FreshDir("dcp_idle_count");
  DurableControlPlane::Options opt;
  opt.dir = dir;
  opt.config = SmallConfig();
  opt.checkpoint_every = 0;
  auto ok_cb = [](const ResumeAttempt&, EpochSeconds) { return Status::OK(); };
  auto not_resumed = [](DbId) { return false; };
  {
    auto plane = DurableControlPlane::Open(opt, ok_cb, not_resumed, kT0);
    ASSERT_TRUE(plane.ok()) << plane.status().ToString();
    ManagementService& svc = (*plane)->service();
    ASSERT_TRUE((*plane)
                    ->metadata()
                    .UpsertState(7, DbState::kPhysicallyPaused, kT0 + 960)
                    .ok());
    ASSERT_TRUE(svc.RunOnce(kT0 + 60, false, 0).ok());
    ASSERT_TRUE((*plane)->Checkpoint().ok());
    // Ten idle ticks, then the tick that selects database 7.
    auto r = svc.RunOnce(kT0 + 660, false, 10);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(*r, 1u);
    ASSERT_TRUE(svc.RunOnce(kT0 + 900, false, 3).ok());
    EXPECT_EQ(svc.diagnostics().observed_iterations, 16u);
    ASSERT_TRUE(SaveCheckpoint(dir + "/live.bin", (*plane)->metadata(), svc,
                               1, 1)
                    .ok());
  }  // dies: the last two frames live only in the journal
  auto plane = DurableControlPlane::Open(opt, ok_cb, not_resumed, kT0 + 960);
  ASSERT_TRUE(plane.ok()) << plane.status().ToString();
  const ManagementService& svc = (*plane)->service();
  EXPECT_EQ(svc.diagnostics().observed_iterations, 16u);
  const Summary sample = svc.resumed_per_iteration();
  EXPECT_EQ(sample.count(), 16u);
  EXPECT_EQ(sample.Percentile(0.9), 0.0);
  EXPECT_EQ(sample.Percentile(1.0), 1.0);
  ASSERT_TRUE(SaveCheckpoint(dir + "/recovered.bin", (*plane)->metadata(),
                             svc, 1, 1)
                  .ok());
  EXPECT_EQ(ReadFileBytes(dir + "/recovered.bin"),
            ReadFileBytes(dir + "/live.bin"));

  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  JournalRecord iteration;
  iteration.event = JournalEvent::kIteration;
  for (uint64_t forged : {kMax, kMax - 1}) {
    BarePlane bare;
    DriveIterations(&bare, {0});
    iteration.idle_before = forged;
    EXPECT_TRUE(bare.svc->ApplyForRecovery(iteration).IsCorruption())
        << forged;
    EXPECT_EQ(bare.svc->diagnostics().observed_iterations, 1u);
  }
  BarePlane bare;
  iteration.idle_before = kMax - 1;  // reaches the bound, in one step
  ASSERT_TRUE(bare.svc->ApplyForRecovery(iteration).ok());
  EXPECT_EQ(bare.svc->diagnostics().observed_iterations, kMax);
  iteration.idle_before = 0;  // one more iteration would wrap
  EXPECT_TRUE(bare.svc->ApplyForRecovery(iteration).IsCorruption());
  EXPECT_EQ(bare.svc->diagnostics().observed_iterations, kMax);
}

// A CRC-valid checkpoint or journal whose class byte (or breaker code)
// is out of range is Corruption: restore never indexes per-class state
// with it.  So is a queued item filed under another class's queue.
TEST(CheckpointTest, OutOfRangeClassBytesAreCorruption) {
  std::string dir = FreshDir("ckpt_bad_class");
  std::string path = dir + "/c.bin";
  {
    BarePlane plane;
    ASSERT_TRUE(plane.svc->EnqueueReactive(7, kT0).ok());
    ASSERT_TRUE(SaveCheckpoint(path, *plane.meta, *plane.svc, 1, 1).ok());
  }
  const std::string good = ReadFileBytes(path);
  // Magic and version; epoch, last_seq and an empty row section; the
  // reactive queue's length and its one item's db.  From the end: the
  // CRC; the unacked count and the two failover counters; reactive
  // arrivals, storm end and quota; ramp step (i32), storm seq, storm flag
  // (u8) and breaker open time; then the breaker byte.
  const size_t item_class = 8 + 3 * 8 + 8 + 4;
  const size_t breaker =
      good.size() - 4 - 3 * 8 - 3 * 8 - 4 - 8 - 1 - 8 - 1;
  ASSERT_EQ(good[item_class], 0);
  ASSERT_EQ(good[breaker], 0);
  const struct {
    const char* what;
    size_t at;
    uint8_t value;
  } forgeries[] = {
      {"class 1 in the reactive queue", item_class, 1},
      {"class 4", item_class, 4},
      {"class 255", item_class, 255},
      {"breaker 3", breaker, 3},
  };
  for (const auto& forgery : forgeries) {
    std::string bytes = good;
    bytes[forgery.at] = static_cast<char>(forgery.value);
    const uint32_t crc = storage::Crc32(
        reinterpret_cast<const uint8_t*>(bytes.data()) + 8,
        bytes.size() - 12);
    std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

    BarePlane plane;
    auto loaded = LoadCheckpoint(path, plane.meta.get(), plane.svc.get());
    ASSERT_FALSE(loaded.ok()) << forgery.what;
    EXPECT_TRUE(loaded.status().IsCorruption())
        << forgery.what << ": " << loaded.status().ToString();
  }

  // The journal: a CRC-valid record with a class past the last class, or
  // a breaker code past kHalfOpen, fails the reopen.
  JournalRecord shed;
  shed.event = JournalEvent::kAdmissionShed;
  shed.db = 3;
  shed.cls = 9;
  JournalRecord breaker_rec;
  breaker_rec.event = JournalEvent::kBreaker;
  breaker_rec.cls = 3;
  for (const JournalRecord& rec : {shed, breaker_rec}) {
    const std::string plane_dir = FreshDir("journal_bad_class");
    {
      auto journal = ControlPlaneJournal::Open(
          DurableControlPlane::JournalPathFor(plane_dir),
          ControlPlaneJournal::SyncMode::kDurable);
      ASSERT_TRUE(journal.ok());
      ASSERT_TRUE((*journal)->Append(rec).ok());
    }
    DurableControlPlane::Options opt;
    opt.dir = plane_dir;
    opt.config = SmallConfig();
    auto plane = DurableControlPlane::Open(
        opt, [](const ResumeAttempt&, EpochSeconds) { return Status::OK(); },
        [](DbId) { return false; }, kT0);
    ASSERT_FALSE(plane.ok()) << static_cast<int>(rec.event);
    EXPECT_TRUE(plane.status().IsCorruption()) << plane.status().ToString();
    BarePlane bare;
    EXPECT_TRUE(bare.svc->ApplyForRecovery(rec).IsCorruption());
  }
}

// Satellite: a crash mid-checkpoint-write must leave the previous
// checkpoint untouched (atomic tmp -> rename publication), under both the
// generic snapshot_mid_copy point and the control-plane-specific one.
TEST(CheckpointTest, CrashMidWriteKeepsPreviousCheckpoint) {
  for (std::string_view point :
       {faults::kSnapshotMidCopy, faults::kCpCheckpointMidWrite}) {
    std::string dir =
        FreshDir(std::string("ckpt_midwrite_") + std::string(point));
    std::string path = dir + "/c.bin";
    auto meta = MetadataStore::Open();
    ASSERT_TRUE(meta.ok());
    ManagementService svc(
        meta->get(), SmallConfig(),
        [](const ResumeAttempt&, EpochSeconds) { return Status::OK(); });
    ASSERT_TRUE((*meta)->UpsertState(1, DbState::kPhysicallyPaused, 99).ok());
    ASSERT_TRUE(SaveCheckpoint(path, **meta, svc, 1, 10).ok());
    std::string before = ReadFileBytes(path);

    ASSERT_TRUE((*meta)->UpsertState(2, DbState::kResumed, 0).ok());
    auto& registry = faults::CrashPointRegistry::Global();
    registry.Reset();
    registry.Arm(point, 1, 0);
    EXPECT_FALSE(SaveCheckpoint(path, **meta, svc, 1, 20).ok());
    registry.Reset();

    EXPECT_EQ(ReadFileBytes(path), before);
    auto meta2 = MetadataStore::Open();
    ASSERT_TRUE(meta2.ok());
    ManagementService svc2(
        meta2->get(), SmallConfig(),
        [](const ResumeAttempt&, EpochSeconds) { return Status::OK(); });
    auto loaded = LoadCheckpoint(path, meta2->get(), &svc2);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded->last_seq, 10u);
    EXPECT_EQ((*meta2)->size(), 1u);
  }
}

// A publish exchanges the new checkpoint with the previous one and then
// unlinks the previous one: two saves over one path, synced or not, leave
// one file, and it is the second save.
TEST(CheckpointTest, SecondSaveReplacesFirstAndLeavesNoTemp) {
  for (bool sync : {true, false}) {
    std::string dir = FreshDir(std::string("ckpt_replace_") +
                               (sync ? "sync" : "nosync"));
    std::string path = dir + "/c.bin";
    auto meta = MetadataStore::Open();
    ASSERT_TRUE(meta.ok());
    ManagementService svc(
        meta->get(), SmallConfig(),
        [](const ResumeAttempt&, EpochSeconds) { return Status::OK(); });
    ASSERT_TRUE((*meta)->UpsertState(1, DbState::kPhysicallyPaused, 99).ok());
    ASSERT_TRUE(SaveCheckpoint(path, **meta, svc, 1, 10, sync).ok());
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    ASSERT_TRUE((*meta)->UpsertState(2, DbState::kResumed, 0).ok());
    ASSERT_TRUE(SaveCheckpoint(path, **meta, svc, 1, 20, sync).ok());
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    EXPECT_EQ(std::distance(fs::directory_iterator(dir),
                            fs::directory_iterator()),
              1);

    auto meta2 = MetadataStore::Open();
    ASSERT_TRUE(meta2.ok());
    ManagementService svc2(
        meta2->get(), SmallConfig(),
        [](const ResumeAttempt&, EpochSeconds) { return Status::OK(); });
    auto loaded = LoadCheckpoint(path, meta2->get(), &svc2);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->last_seq, 20u);
    EXPECT_EQ((*meta2)->size(), 2u);
  }
}

TEST(DurableControlPlaneTest, ColdStartThenEpochsClimbAcrossRestarts) {
  std::string dir = FreshDir("dcp_epochs");
  DurableControlPlane::Options opt;
  opt.dir = dir;
  opt.config = SmallConfig();
  auto ok_cb = [](const ResumeAttempt&, EpochSeconds) { return Status::OK(); };
  auto not_resumed = [](DbId) { return false; };
  for (uint64_t expect_epoch = 1; expect_epoch <= 3; ++expect_epoch) {
    auto plane = DurableControlPlane::Open(opt, ok_cb, not_resumed,
                                           kT0 + expect_epoch);
    ASSERT_TRUE(plane.ok()) << plane.status().ToString();
    EXPECT_EQ((*plane)->recovery_stats().epoch, expect_epoch);
    EXPECT_TRUE((*plane)->healthy());
  }
}

// A durable plane opened with default options keeps no SQL mirror of
// sys.databases: the literal scan is refused.
// An empty directory opens the same plane with no journal: nothing
// touches the file system, the epoch stays 0 (so request ids are the
// bare dispatch sequence), nothing is recovered, Checkpoint is refused
// and MaybeCheckpoint does nothing.
TEST(DurableControlPlaneTest, EmptyDirOpensJournalLessPlane) {
  const std::string dir = FreshDir("journal_less");
  const fs::path cwd = fs::current_path();
  fs::current_path(dir);  // a relative path opened by mistake lands here
  DurableControlPlane::Options opt;
  opt.config = SmallConfig();
  opt.checkpoint_every = 1;
  std::vector<uint64_t> request_ids;
  auto plane = DurableControlPlane::Open(
      opt,
      [&](const ResumeAttempt& a, EpochSeconds) {
        request_ids.push_back(a.request_id);
        return Status::OK();
      },
      [](DbId) { return false; }, kT0);
  ASSERT_TRUE(plane.ok()) << plane.status().ToString();
  DurableControlPlane& p = **plane;
  const DurableControlPlane::RecoveryStats& stats = p.recovery_stats();
  EXPECT_EQ(stats.epoch, 0u);
  EXPECT_FALSE(stats.checkpoint_loaded);
  EXPECT_EQ(stats.replayed, 0u);
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_EQ(stats.reconcile.completed + stats.reconcile.requeued +
                stats.reconcile.in_flight_requeued,
            0u);
  EXPECT_EQ(p.service().epoch(), 0u);
  EXPECT_TRUE(p.healthy());

  for (DbId db = 1; db <= 3; ++db) {
    ASSERT_TRUE(p.metadata()
                    .UpsertState(db, DbState::kPhysicallyPaused, kT0 + 310)
                    .ok());
  }
  auto resumed = p.service().RunOnce(kT0);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(*resumed, 3u);
  EXPECT_EQ(request_ids, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_TRUE(p.MaybeCheckpoint().ok());
  EXPECT_EQ(p.Checkpoint().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(p.healthy());
  fs::current_path(cwd);
  EXPECT_TRUE(fs::is_empty(dir));
}

TEST(DurableControlPlaneTest, DefaultOptionsKeepNoSqlMirror) {
  DurableControlPlane::Options opt;
  opt.dir = FreshDir("dcp_default_backing");
  opt.config = SmallConfig();
  auto ok_cb = [](const ResumeAttempt&, EpochSeconds) { return Status::OK(); };
  auto plane =
      DurableControlPlane::Open(opt, ok_cb, [](DbId) { return false; }, kT0);
  ASSERT_TRUE(plane.ok()) << plane.status().ToString();
  ASSERT_TRUE((*plane)
                  ->metadata()
                  .UpsertState(1, DbState::kPhysicallyPaused, kT0 + 600)
                  .ok());
  EXPECT_EQ(
      (*plane)->metadata().SelectDueForResumeSql(kT0, 0, 3600).status().code(),
      StatusCode::kFailedPrecondition);
}

/// Runs the mixed workload on a durable plane with the given metadata
/// backing, checkpoints halfway, dies, recovers, and returns the
/// recovered plane's checkpoint bytes.  `sql_mirrored` receives whether
/// the recovered store still answers the literal SQL scan.
std::string DurableRunCheckpointBytes(MetadataStore::Backing backing,
                                      const std::string& dir,
                                      bool* sql_mirrored) {
  DurableControlPlane::Options opt;
  opt.dir = dir;
  opt.config = SmallConfig();
  opt.sync_mode = ControlPlaneJournal::SyncMode::kBuffered;
  opt.metadata_backing = backing;
  auto ok_cb = [](const ResumeAttempt&, EpochSeconds) { return Status::OK(); };
  auto not_resumed = [](DbId) { return false; };
  {
    auto plane = DurableControlPlane::Open(opt, ok_cb, not_resumed, kT0);
    EXPECT_TRUE(plane.ok()) << plane.status().ToString();
    if (!plane.ok()) return "";
    for (DbId db = 1; db <= 12; ++db) {
      EXPECT_TRUE((*plane)->metadata()
                      .UpsertState(db, DbState::kPhysicallyPaused,
                                   kT0 + 400 + db * 60)
                      .ok());
    }
    EXPECT_TRUE((*plane)->Checkpoint().ok());
    for (int step = 0; step < 8; ++step) {
      EXPECT_TRUE((*plane)->service().RunOnce(kT0 + step * 60).ok());
    }
    EXPECT_TRUE((*plane)->service().EnqueueReactive(3, kT0 + 500).ok());
    // Death: dropped with no orderly shutdown.
  }
  auto plane = DurableControlPlane::Open(opt, ok_cb, not_resumed, kT0 + 600);
  EXPECT_TRUE(plane.ok()) << plane.status().ToString();
  if (!plane.ok()) return "";
  EXPECT_TRUE((*plane)->service().AccountingReconciles());
  *sql_mirrored =
      (*plane)->metadata().SelectDueForResumeSql(kT0, 0, 3600).ok();
  std::string path = dir + "/compare.ckpt";
  EXPECT_TRUE(SaveCheckpoint(path, (*plane)->metadata(), (*plane)->service(),
                             (*plane)->recovery_stats().epoch,
                             (*plane)->journal().next_seq() - 1)
                  .ok());
  return ReadFileBytes(path);
}

// An index-only durable plane keeps no SQL mirror, before and after a
// recovery, and recovers exactly the state the mirrored plane does.
TEST(DurableControlPlaneTest, IndexOnlyBackingHasNoSqlMirror) {
  bool lite_mirrored = true;
  bool full_mirrored = false;
  std::string lite = DurableRunCheckpointBytes(
      MetadataStore::Backing::kIndexOnly, FreshDir("dcp_index_only"),
      &lite_mirrored);
  std::string full = DurableRunCheckpointBytes(
      MetadataStore::Backing::kSqlMirrored, FreshDir("dcp_sql_mirrored"),
      &full_mirrored);
  EXPECT_FALSE(lite_mirrored);
  EXPECT_TRUE(full_mirrored);
  ASSERT_FALSE(lite.empty());
  EXPECT_EQ(lite, full);
}

// Tentpole guarantee 1: an acknowledged reactive login survives an
// abrupt control-plane death (no checkpoint, nothing but the journal).
TEST(DurableControlPlaneTest, AcceptedReactiveSurvivesAbruptDeath) {
  std::string dir = FreshDir("dcp_accept_survives");
  DurableControlPlane::Options opt;
  opt.dir = dir;
  opt.config = SmallConfig();
  int resumes = 0;
  auto count_cb = [&](const ResumeAttempt&, EpochSeconds) {
    ++resumes;
    return Status::OK();
  };
  auto not_resumed = [](DbId) { return false; };
  {
    auto plane = DurableControlPlane::Open(opt, count_cb, not_resumed, kT0);
    ASSERT_TRUE(plane.ok());
    ASSERT_TRUE((*plane)->metadata()
                    .UpsertState(7, DbState::kPhysicallyPaused, 0)
                    .ok());
    ASSERT_TRUE((*plane)->service().EnqueueReactive(7, kT0).ok());
    EXPECT_EQ((*plane)->service().pending_workflows(), 1u);
    // Death: the plane object is dropped without any orderly shutdown.
  }
  auto plane = DurableControlPlane::Open(opt, count_cb, not_resumed, kT0 + 60);
  ASSERT_TRUE(plane.ok());
  EXPECT_EQ((*plane)->service().pending_workflows(), 1u);
  (*plane)->service().Pump(kT0 + 60);
  EXPECT_EQ(resumes, 1);
  EXPECT_TRUE((*plane)->service().AccountingReconciles());
}

// Tentpole guarantee 2: a dispatch whose effect landed on the node but
// whose outcome was never journaled is reconciled as completed — the
// workflow is NOT re-dispatched (no double resume).
TEST(DurableControlPlaneTest, UnackedDispatchReconciledWithoutDoubleResume) {
  std::string dir = FreshDir("dcp_unacked_done");
  DurableControlPlane::Options opt;
  opt.dir = dir;
  opt.config = SmallConfig();
  std::map<DbId, int> resumes;
  bool node_has_it = false;
  auto cb = [&](const ResumeAttempt& a, EpochSeconds) {
    ++resumes[a.db];
    node_has_it = true;  // the node-side effect exists...
    return Status::OK();
  };
  auto node_resumed = [&](DbId) { return node_has_it; };
  {
    auto plane = DurableControlPlane::Open(opt, cb, node_resumed, kT0);
    ASSERT_TRUE(plane.ok());
    ASSERT_TRUE((*plane)->metadata()
                    .UpsertState(7, DbState::kPhysicallyPaused, 0)
                    .ok());
    ASSERT_TRUE((*plane)->service().EnqueueReactive(7, kT0).ok());
    auto& registry = faults::CrashPointRegistry::Global();
    registry.Reset();
    registry.Arm(faults::kCpDispatchPreAck, 1, 0);
    (*plane)->service().Pump(kT0);  // ...but the crash beats the outcome
    registry.Reset();
    EXPECT_FALSE((*plane)->healthy());
    EXPECT_EQ(resumes[7], 1);
  }
  auto plane = DurableControlPlane::Open(opt, cb, node_resumed, kT0 + 60);
  ASSERT_TRUE(plane.ok()) << plane.status().ToString();
  EXPECT_EQ((*plane)->recovery_stats().reconcile.completed, 1u);
  EXPECT_EQ((*plane)->recovery_stats().reconcile.requeued, 0u);
  // The reconciled workflow is accounted as a reactive-class resume.
  EXPECT_EQ(
      (*plane)->service().diagnostics().cls(ResumeClass::kReactiveLogin)
          .resumed,
      1u);
  for (int step = 1; step <= 4; ++step) {
    ASSERT_TRUE((*plane)->service().RunOnce(kT0 + 60 + step * 60).ok());
    (*plane)->service().Pump(kT0 + 90 + step * 60);
  }
  EXPECT_EQ(resumes[7], 1);  // never re-dispatched
  EXPECT_TRUE((*plane)->service().AccountingReconciles());
}

// Tentpole guarantee 2b: a dispatch that did NOT take effect on the node
// before the crash is requeued and eventually resumed exactly once.
TEST(DurableControlPlaneTest, UnackedDispatchRequeuedWhenNodeLostIt) {
  std::string dir = FreshDir("dcp_unacked_lost");
  DurableControlPlane::Options opt;
  opt.dir = dir;
  opt.config = SmallConfig();
  std::map<DbId, int> effects;
  bool fail_next = true;
  auto cb = [&](const ResumeAttempt& a, EpochSeconds) -> Status {
    if (fail_next) return Status::Unavailable("node never saw it");
    if (effects[a.db] > 0) {
      // Node-side idempotence: a hedge or stale attempt against an
      // already-resumed database does not resume it again.
      return Status::FailedPrecondition("already resumed");
    }
    ++effects[a.db];
    return Status::OK();
  };
  auto node_resumed = [&](DbId db) { return effects[db] > 0; };
  {
    auto plane = DurableControlPlane::Open(opt, cb, node_resumed, kT0);
    ASSERT_TRUE(plane.ok());
    ASSERT_TRUE((*plane)->metadata()
                    .UpsertState(7, DbState::kPhysicallyPaused, 0)
                    .ok());
    ASSERT_TRUE((*plane)->service().EnqueueReactive(7, kT0).ok());
    auto& registry = faults::CrashPointRegistry::Global();
    registry.Reset();
    registry.Arm(faults::kCpDispatchPreAck, 1, 0);
    (*plane)->service().Pump(kT0);
    registry.Reset();
    EXPECT_FALSE((*plane)->healthy());
  }
  fail_next = false;
  auto plane = DurableControlPlane::Open(opt, cb, node_resumed, kT0 + 60);
  ASSERT_TRUE(plane.ok());
  EXPECT_EQ((*plane)->recovery_stats().reconcile.requeued, 1u);
  for (int step = 1; step <= 4; ++step) {
    ASSERT_TRUE((*plane)->service().RunOnce(kT0 + 60 + step * 60).ok());
    (*plane)->service().Pump(kT0 + 90 + step * 60);
  }
  EXPECT_EQ(effects[7], 1);  // resumed exactly once, by the requeue
  EXPECT_TRUE((*plane)->service().AccountingReconciles());
}

// Satellite: restart amnesia.  An open breaker must recover open — a
// crash is not a path around the cool-down — and the outcome window
// restarts empty (conservative posture).
TEST(DurableControlPlaneTest, OpenBreakerSurvivesCrashOpen) {
  std::string dir = FreshDir("dcp_breaker");
  DurableControlPlane::Options opt;
  opt.dir = dir;
  opt.config = SmallConfig();
  opt.config.breaker_window = 4;
  opt.config.breaker_failure_ratio = 0.5;
  opt.config.breaker_open_duration = 600;
  opt.max_attempts = 10;
  bool fail_all = true;
  auto cb = [&](const ResumeAttempt&, EpochSeconds) -> Status {
    if (fail_all) return Status::Unavailable("node down");
    return Status::OK();
  };
  auto not_resumed = [](DbId) { return false; };
  EpochSeconds now = kT0;
  {
    auto plane = DurableControlPlane::Open(opt, cb, not_resumed, now);
    ASSERT_TRUE(plane.ok());
    for (DbId db = 1; db <= 6; ++db) {
      ASSERT_TRUE((*plane)->metadata()
                      .UpsertState(db, DbState::kPhysicallyPaused,
                                   kT0 + 360 + db)
                      .ok());
    }
    for (int step = 0; step < 6 &&
                       (*plane)->service().breaker_state() != BreakerState::kOpen;
         ++step) {
      now = kT0 + (step + 1) * 60;
      ASSERT_TRUE((*plane)->service().RunOnce(now).ok());
    }
    ASSERT_EQ((*plane)->service().breaker_state(), BreakerState::kOpen);
  }
  auto plane = DurableControlPlane::Open(opt, cb, not_resumed, now + 30);
  ASSERT_TRUE(plane.ok());
  // Recovered open; stays open until its cool-down elapses even though
  // the post-recovery outcome window is empty.
  EXPECT_EQ((*plane)->service().breaker_state(), BreakerState::kOpen);
  ASSERT_TRUE((*plane)->service().RunOnce(now + 60).ok());
  EXPECT_EQ((*plane)->service().breaker_state(), BreakerState::kOpen);
}

// Checkpoint + journal suffix replay: exactly-once across the
// checkpoint/truncate crash window (records folded into the checkpoint
// are skipped on replay).
TEST(DurableControlPlaneTest, CheckpointPlusSuffixReplaysExactlyOnce) {
  std::string dir = FreshDir("dcp_ckpt_suffix");
  DurableControlPlane::Options opt;
  opt.dir = dir;
  opt.config = SmallConfig();
  opt.checkpoint_every = 0;  // manual
  int resumes = 0;
  auto cb = [&](const ResumeAttempt&, EpochSeconds) {
    ++resumes;
    return Status::OK();
  };
  // Db 1's resume took effect before the crash; its in-flight entry must
  // survive recovery as in-flight, not be requeued.
  auto node_resumed = [](DbId db) { return db == 1; };
  {
    auto plane = DurableControlPlane::Open(opt, cb, node_resumed, kT0);
    ASSERT_TRUE(plane.ok());
    for (DbId db = 1; db <= 4; ++db) {
      ASSERT_TRUE((*plane)->metadata()
                      .UpsertState(db, DbState::kPhysicallyPaused, 0)
                      .ok());
    }
    ASSERT_TRUE((*plane)->service().EnqueueReactive(1, kT0).ok());
    (*plane)->service().Pump(kT0);
    ASSERT_TRUE((*plane)->Checkpoint().ok());
    // Post-checkpoint suffix: one more accepted workflow.
    ASSERT_TRUE((*plane)->service().EnqueueReactive(2, kT0 + 10).ok());
  }
  auto plane = DurableControlPlane::Open(opt, cb, node_resumed, kT0 + 60);
  ASSERT_TRUE(plane.ok());
  EXPECT_TRUE(plane.ok() && (*plane)->recovery_stats().checkpoint_loaded);
  // Db 1's resume came back from the checkpoint, exactly once.
  EXPECT_EQ(
      (*plane)->service().diagnostics().cls(ResumeClass::kReactiveLogin)
          .resumed,
      1u);
  EXPECT_EQ((*plane)->service().in_flight(), 1u);          // db 1, kept
  EXPECT_EQ((*plane)->service().pending_workflows(), 1u);  // from the suffix
  (*plane)->service().Pump(kT0 + 60);
  EXPECT_EQ(resumes, 2);
  EXPECT_TRUE((*plane)->service().AccountingReconciles());
}

// A crash between a publish's exchange and its unlink leaves the previous
// checkpoint, intact, under the temp name.  Recovery reads the published
// checkpoint only.
TEST(DurableControlPlaneTest, IntactOlderCheckpointInTempIsIgnored) {
  std::string dir = FreshDir("dcp_ckpt_old_tmp");
  DurableControlPlane::Options opt;
  opt.dir = dir;
  opt.config = SmallConfig();
  opt.checkpoint_every = 0;  // manual
  auto ok_cb = [](const ResumeAttempt&, EpochSeconds) { return Status::OK(); };
  auto not_resumed = [](DbId) { return false; };
  const std::string tmp = DurableControlPlane::CheckpointPathFor(dir) + ".tmp";
  {
    auto plane = DurableControlPlane::Open(opt, ok_cb, not_resumed, kT0);
    ASSERT_TRUE(plane.ok());
    for (DbId db = 1; db <= 2; ++db) {
      ASSERT_TRUE((*plane)->metadata()
                      .UpsertState(db, DbState::kPhysicallyPaused, 0)
                      .ok());
    }
    ASSERT_TRUE((*plane)->Checkpoint().ok());
    const std::string older = ReadFileBytes((*plane)->checkpoint_path());
    ASSERT_TRUE((*plane)
                    ->metadata()
                    .UpsertState(3, DbState::kPhysicallyPaused, 0)
                    .ok());
    ASSERT_TRUE((*plane)->Checkpoint().ok());
    std::ofstream(tmp, std::ios::binary) << older;
  }
  {
    // The leftover is a whole, loadable checkpoint of the older state.
    auto meta = MetadataStore::Open();
    ASSERT_TRUE(meta.ok());
    ManagementService svc(meta->get(), SmallConfig(), ok_cb);
    ASSERT_TRUE(LoadCheckpoint(tmp, meta->get(), &svc).ok());
    EXPECT_EQ((*meta)->size(), 2u);
  }
  auto plane = DurableControlPlane::Open(opt, ok_cb, not_resumed, kT0 + 60);
  ASSERT_TRUE(plane.ok()) << plane.status().ToString();
  EXPECT_TRUE((*plane)->recovery_stats().checkpoint_loaded);
  EXPECT_EQ((*plane)->recovery_stats().replayed, 0u);
  EXPECT_EQ((*plane)->metadata().size(), 3u);
}

// A journal append failure (ENOSPC) fences the service: nothing is
// acknowledged after the journal stopped recording, and recovery comes
// back exactly to the last acknowledged state.
TEST(DurableControlPlaneTest, JournalDiskFullFencesThenRecovers) {
  std::string dir = FreshDir("dcp_enospc");
  DurableControlPlane::Options opt;
  opt.dir = dir;
  opt.config = SmallConfig();
  faults::FaultPlan plan(11);
  auto cb = [](const ResumeAttempt&, EpochSeconds) { return Status::OK(); };
  auto not_resumed = [](DbId) { return false; };
  {
    auto plane = DurableControlPlane::Open(opt, cb, not_resumed, kT0);
    ASSERT_TRUE(plane.ok());
    ASSERT_TRUE((*plane)->metadata()
                    .UpsertState(7, DbState::kPhysicallyPaused, 0)
                    .ok());
    plan.FailNth(faults::FaultOp::kWalAppend, 1, faults::FaultKind::kDiskFull);
    (*plane)->journal().set_fault_plan(&plan);
    Status s = (*plane)->service().EnqueueReactive(7, kT0);
    EXPECT_FALSE(s.ok());  // the login was NOT acknowledged
    EXPECT_FALSE((*plane)->healthy());
    EXPECT_TRUE((*plane)->service().fenced());
    // Fenced: every later entry point refuses.
    EXPECT_FALSE((*plane)->service().EnqueueReactive(8, kT0).ok());
    EXPECT_EQ((*plane)->service().Pump(kT0), 0u);
  }
  auto plane = DurableControlPlane::Open(opt, cb, not_resumed, kT0 + 60);
  ASSERT_TRUE(plane.ok());
  // The unacknowledged login is (correctly) not there; the metadata
  // mutation that WAS acknowledged is.
  EXPECT_EQ((*plane)->service().pending_workflows(), 0u);
  EXPECT_TRUE((*plane)->metadata().Contains(7));
  EXPECT_TRUE((*plane)->service().AccountingReconciles());
}

}  // namespace
}  // namespace prorp::controlplane
