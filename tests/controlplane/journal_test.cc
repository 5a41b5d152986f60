#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "controlplane/journal.h"
#include "faults/crash_points.h"
#include "faults/fault_plan.h"
#include "storage/wal.h"

namespace prorp::controlplane {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

JournalRecord SampleRecord(uint64_t i) {
  JournalRecord rec;
  rec.event = JournalEvent::kAccepted;
  rec.epoch = 3;
  rec.db = static_cast<DbId>(100 + i);
  rec.cls = static_cast<uint8_t>(i % 4);
  rec.flags = kJfReactive | kJfFirstWait;
  rec.attempt = static_cast<int32_t>(i) - 2;
  rec.time = 1'000'000 + static_cast<EpochSeconds>(i);
  rec.enqueued_at = rec.time;
  rec.not_before = rec.time + 60;
  rec.deadline = rec.time + 120;
  rec.predicted_start = rec.time + 600;
  rec.stats = {i, i * 2, i * 3, i * 4};
  return rec;
}

TEST(ControlPlaneJournalTest, AppendReplayRoundTrip) {
  std::string path = FreshDir("journal_roundtrip") + "/j.wal";
  auto journal =
      ControlPlaneJournal::Open(path, ControlPlaneJournal::SyncMode::kDurable);
  ASSERT_TRUE(journal.ok());
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE((*journal)->Append(SampleRecord(i)).ok());
  }
  EXPECT_EQ((*journal)->appended_records(), 20u);
  EXPECT_EQ((*journal)->next_seq(), 21u);

  std::vector<uint64_t> seqs;
  std::vector<JournalRecord> records;
  auto replayed = ControlPlaneJournal::Replay(
      path, [&](uint64_t seq, const JournalRecord& rec) {
        seqs.push_back(seq);
        records.push_back(rec);
        return Status::OK();
      });
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 20u);
  for (uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(seqs[i], i + 1);  // monotonic, 1-based
    JournalRecord want = SampleRecord(i);
    const JournalRecord& got = records[i];
    EXPECT_EQ(got.event, want.event);
    EXPECT_EQ(got.epoch, want.epoch);
    EXPECT_EQ(got.db, want.db);
    EXPECT_EQ(got.cls, want.cls);
    EXPECT_EQ(got.flags, want.flags);
    EXPECT_EQ(got.attempt, want.attempt);
    EXPECT_EQ(got.time, want.time);
    EXPECT_EQ(got.enqueued_at, want.enqueued_at);
    EXPECT_EQ(got.not_before, want.not_before);
    EXPECT_EQ(got.deadline, want.deadline);
    EXPECT_EQ(got.predicted_start, want.predicted_start);
    EXPECT_EQ(got.stats, want.stats);
  }
}

TEST(ControlPlaneJournalTest, ReplayOfMissingFileIsEmpty) {
  std::string path = FreshDir("journal_missing") + "/nope.wal";
  auto replayed = ControlPlaneJournal::Replay(
      path, [&](uint64_t, const JournalRecord&) { return Status::OK(); });
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 0u);
}

TEST(ControlPlaneJournalTest, TruncateKeepsSequenceMonotonic) {
  std::string path = FreshDir("journal_truncate") + "/j.wal";
  auto journal =
      ControlPlaneJournal::Open(path, ControlPlaneJournal::SyncMode::kDurable);
  ASSERT_TRUE(journal.ok());
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE((*journal)->Append(SampleRecord(i)).ok());
  }
  ASSERT_TRUE((*journal)->TruncateAfterCheckpoint().ok());
  ASSERT_TRUE((*journal)->Append(SampleRecord(99)).ok());
  std::vector<uint64_t> seqs;
  auto replayed = ControlPlaneJournal::Replay(
      path, [&](uint64_t seq, const JournalRecord&) {
        seqs.push_back(seq);
        return Status::OK();
      });
  ASSERT_TRUE(replayed.ok());
  // Only the post-truncation record remains, and its sequence number
  // continued past the truncated prefix: record identity never repeats.
  ASSERT_EQ(seqs.size(), 1u);
  EXPECT_EQ(seqs[0], 6u);
}

TEST(ControlPlaneJournalTest, TornTailIsTrimmedOnReplay) {
  std::string path = FreshDir("journal_torn") + "/j.wal";
  {
    auto journal = ControlPlaneJournal::Open(
        path, ControlPlaneJournal::SyncMode::kDurable);
    ASSERT_TRUE(journal.ok());
    for (uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE((*journal)->Append(SampleRecord(i)).ok());
    }
    // Arm the pre-sync crash point with a payload that tears the frame:
    // the record is cut to a non-zero prefix, as if the crash hit
    // mid-write.
    auto& registry = faults::CrashPointRegistry::Global();
    registry.Reset();
    registry.Arm(faults::kCpJournalPreSync, 1, /*payload=*/7);
    Status s = (*journal)->Append(SampleRecord(3));
    EXPECT_FALSE(s.ok());
    EXPECT_FALSE((*journal)->healthy());
    // Fail-stop: later appends refuse with the latched status.
    Status again = (*journal)->Append(SampleRecord(4));
    EXPECT_EQ(again.code(), s.code());
    registry.Reset();
  }
  std::vector<uint64_t> seqs;
  auto replayed = ControlPlaneJournal::Replay(
      path, [&](uint64_t seq, const JournalRecord&) {
        seqs.push_back(seq);
        return Status::OK();
      });
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  // The torn 4th record is trimmed; the intact prefix survives.
  EXPECT_EQ(*replayed, 3u);
  EXPECT_EQ(seqs, (std::vector<uint64_t>{1, 2, 3}));
}

TEST(ControlPlaneJournalTest, FullFrameSurvivesPreSyncCrash) {
  std::string path = FreshDir("journal_presync_full") + "/j.wal";
  {
    auto journal = ControlPlaneJournal::Open(
        path, ControlPlaneJournal::SyncMode::kDurable);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(SampleRecord(0)).ok());
    // Payload 0: the frame reached the medium intact, the crash only beat
    // the acknowledgment.  Replay must surface the record (recovery then
    // reconciles it), because the transition may have had side effects.
    auto& registry = faults::CrashPointRegistry::Global();
    registry.Reset();
    registry.Arm(faults::kCpJournalPreSync, 1, /*payload=*/0);
    EXPECT_FALSE((*journal)->Append(SampleRecord(1)).ok());
    registry.Reset();
  }
  auto replayed = ControlPlaneJournal::Replay(
      path, [&](uint64_t, const JournalRecord&) { return Status::OK(); });
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 2u);  // the unacknowledged record IS durable
}

TEST(ControlPlaneJournalTest, DiskFullFailsStopCleanly) {
  std::string path = FreshDir("journal_enospc") + "/j.wal";
  auto journal =
      ControlPlaneJournal::Open(path, ControlPlaneJournal::SyncMode::kDurable);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*journal)->Append(SampleRecord(0)).ok());

  faults::FaultPlan plan(7);
  plan.FailNth(faults::FaultOp::kWalAppend, 1, faults::FaultKind::kDiskFull);
  (*journal)->set_fault_plan(&plan);
  Status s = (*journal)->Append(SampleRecord(1));
  EXPECT_TRUE(s.IsIoError());
  EXPECT_NE(s.message().find("disk full"), std::string::npos)
      << s.ToString();
  EXPECT_FALSE((*journal)->healthy());
  // Latched dead even after the plan would allow appends again.
  (*journal)->set_fault_plan(nullptr);
  EXPECT_FALSE((*journal)->Append(SampleRecord(2)).ok());

  // The failed append left no partial frame behind.
  auto replayed = ControlPlaneJournal::Replay(
      path, [&](uint64_t, const JournalRecord&) { return Status::OK(); });
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 1u);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// What a process death leaves of a journal that is still open: the file
/// as the page cache holds it, mapped tail and preallocated zeros
/// included.
std::string ProcessDeathImage(const std::string& path) {
  std::string image = path + ".img";
  fs::copy_file(path, image, fs::copy_options::overwrite_existing);
  return image;
}

std::vector<uint64_t> ReplaySeqs(const std::string& path,
                                 std::vector<JournalRecord>* records) {
  std::vector<uint64_t> seqs;
  auto replayed = ControlPlaneJournal::Replay(
      path, [&](uint64_t seq, const JournalRecord& rec) {
        seqs.push_back(seq);
        if (records != nullptr) records->push_back(rec);
        return Status::OK();
      });
  EXPECT_TRUE(replayed.ok()) << replayed.status().ToString();
  return seqs;
}

TEST(ControlPlaneJournalTest, BufferedProcessDeathImageReplaysExactly) {
  // kBuffered appends across several mapped windows, then the process
  // dies with the journal open.  The page cache holds every record.  At
  // ~50 bytes a frame, 6,000 records span more than four windows.
  constexpr uint64_t kRecords = 6000;
  std::string path = FreshDir("journal_death") + "/j.wal";
  auto journal =
      ControlPlaneJournal::Open(path, ControlPlaneJournal::SyncMode::kBuffered);
  ASSERT_TRUE(journal.ok());
  for (uint64_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE((*journal)->Append(SampleRecord(i)).ok());
  }
  const uint64_t size = *(*journal)->SizeBytes();
  ASSERT_GT(size, 2 * storage::WriteAheadLog::kTailChunk);
  const std::string image = ProcessDeathImage(path);
  ASSERT_GT(fs::file_size(image), size);  // the window's zeros came along

  std::vector<JournalRecord> records;
  std::vector<uint64_t> seqs = ReplaySeqs(image, &records);
  ASSERT_EQ(seqs.size(), kRecords);
  for (uint64_t i = 0; i < kRecords; ++i) {
    EXPECT_EQ(seqs[i], i + 1);
    EXPECT_EQ(records[i].db, SampleRecord(i).db);
    EXPECT_EQ(records[i].stats, SampleRecord(i).stats);
  }
  // The next incarnation's first record lands right behind them.
  {
    auto next = ControlPlaneJournal::Open(
        image, ControlPlaneJournal::SyncMode::kBuffered);
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(*(*next)->SizeBytes(), size);
    (*next)->set_next_seq(kRecords + 1);
    ASSERT_TRUE((*next)->Append(SampleRecord(kRecords)).ok());
  }
  seqs = ReplaySeqs(image, nullptr);
  ASSERT_EQ(seqs.size(), kRecords + 1);
  EXPECT_EQ(seqs.back(), kRecords + 1);
}

TEST(ControlPlaneJournalTest, TruncateLeavesNoStaleFrames) {
  std::string path = FreshDir("journal_truncate_stale") + "/j.wal";
  auto journal =
      ControlPlaneJournal::Open(path, ControlPlaneJournal::SyncMode::kBuffered);
  ASSERT_TRUE(journal.ok());
  // One record under eleven sequence numbers: every frame has the same
  // size, so a stale frame 2 would sit intact right behind the new frame
  // 11 had the truncation kept the bytes.
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE((*journal)->Append(SampleRecord(5)).ok());
  }
  ASSERT_TRUE((*journal)->TruncateAfterCheckpoint().ok());
  ASSERT_TRUE((*journal)->Append(SampleRecord(5)).ok());
  EXPECT_EQ(ReplaySeqs(ProcessDeathImage(path), nullptr),
            (std::vector<uint64_t>{11}));
}

TEST(ControlPlaneJournalTest, DiskFullLeavesTheFileAppendable) {
  std::string path = FreshDir("journal_enospc_reopen") + "/j.wal";
  {
    auto journal = ControlPlaneJournal::Open(
        path, ControlPlaneJournal::SyncMode::kBuffered);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(SampleRecord(0)).ok());
    faults::FaultPlan plan(9);
    plan.FailNthWithArg(faults::FaultOp::kWalAppend, 1,
                        faults::FaultKind::kDiskFull, 50);
    (*journal)->set_fault_plan(&plan);
    Status s = (*journal)->Append(SampleRecord(1));
    EXPECT_TRUE(s.IsIoError()) << s.ToString();
    EXPECT_FALSE((*journal)->healthy());
    (*journal)->set_fault_plan(nullptr);
    // The 50 bytes that reached the tail were cut off again.
    const std::string bytes = ReadFileBytes(ProcessDeathImage(path));
    const uint64_t size = *(*journal)->SizeBytes();
    for (size_t i = size; i < bytes.size(); ++i) {
      ASSERT_EQ(bytes[i], 0) << "byte " << i << " past the logical end";
    }
  }
  // The journal latched dead; the next incarnation appends behind the
  // one intact record.
  {
    auto next = ControlPlaneJournal::Open(
        path, ControlPlaneJournal::SyncMode::kBuffered);
    ASSERT_TRUE(next.ok());
    (*next)->set_next_seq(2);
    ASSERT_TRUE((*next)->Append(SampleRecord(1)).ok());
  }
  EXPECT_EQ(ReplaySeqs(path, nullptr), (std::vector<uint64_t>{1, 2}));
}

TEST(ControlPlaneJournalTest, FramesAreTheWalEncodingOfTheRecord) {
  // The journal builds its frames itself; they must be byte for byte the
  // frames WriteAheadLog::Append writes for the same kInsert record, so
  // every journal already on disk still replays.
  std::string dir = FreshDir("journal_frame_bytes");
  std::string path = dir + "/j.wal";
  {
    auto journal = ControlPlaneJournal::Open(
        path, ControlPlaneJournal::SyncMode::kBuffered);
    ASSERT_TRUE(journal.ok());
    for (uint64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE((*journal)->Append(SampleRecord(i)).ok());
    }
  }
  std::string copy = dir + "/copy.wal";
  {
    auto wal = storage::WriteAheadLog::Open(copy);
    ASSERT_TRUE(wal.ok());
    auto n = storage::WriteAheadLog::Replay(
        path, [&](const storage::WalRecord& rec) {
          EXPECT_EQ(rec.type, storage::WalRecord::Type::kInsert);
          return (*wal)->Append(rec);
        });
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 5u);
  }
  EXPECT_EQ(ReadFileBytes(copy), ReadFileBytes(path));
}

}  // namespace
}  // namespace prorp::controlplane
