#include "storage/wal.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "faults/crash_points.h"
#include "storage/io_util.h"

namespace prorp::storage {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

WalRecord Insert(int64_t key, std::vector<uint8_t> value) {
  WalRecord r;
  r.type = WalRecord::Type::kInsert;
  r.key = key;
  r.value = std::move(value);
  return r;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// What a process death leaves of a log that is still open: the file as
/// the page cache holds it, mapped tail and preallocated zeros included.
std::string ProcessDeathImage(const std::string& path,
                              const std::string& name) {
  std::string image = TempPath(name);
  std::filesystem::copy_file(
      path, image, std::filesystem::copy_options::overwrite_existing);
  return image;
}

std::vector<int64_t> ReplayKeys(const std::string& path) {
  std::vector<int64_t> keys;
  auto n = WriteAheadLog::Replay(path, [&](const WalRecord& r) {
    keys.push_back(r.key);
    return Status::OK();
  });
  EXPECT_TRUE(n.ok()) << n.status().ToString();
  return keys;
}

/// Whether every byte of `bytes` from `from` on is zero.
bool ZerosFrom(const std::string& bytes, size_t from) {
  for (size_t i = from; i < bytes.size(); ++i) {
    if (bytes[i] != 0) return false;
  }
  return true;
}

TEST(WalTest, AppendAndReplayRoundTrip) {
  std::string path = TempPath("wal_roundtrip.log");
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(Insert(1, {0xAA, 0xBB})).ok());
    WalRecord del;
    del.type = WalRecord::Type::kDelete;
    del.key = 2;
    ASSERT_TRUE((*wal)->Append(del).ok());
    WalRecord range;
    range.type = WalRecord::Type::kDeleteRange;
    range.key = 10;
    range.key2 = 20;
    ASSERT_TRUE((*wal)->Append(range).ok());
    WalRecord upd;
    upd.type = WalRecord::Type::kUpdate;
    upd.key = 3;
    upd.value = {0x01};
    ASSERT_TRUE((*wal)->Append(upd).ok());
  }
  std::vector<WalRecord> seen;
  auto n = WriteAheadLog::Replay(path, [&](const WalRecord& r) {
    seen.push_back(r);
    return Status::OK();
  });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 4u);
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0].type, WalRecord::Type::kInsert);
  EXPECT_EQ(seen[0].key, 1);
  EXPECT_EQ(seen[0].value, (std::vector<uint8_t>{0xAA, 0xBB}));
  EXPECT_EQ(seen[1].type, WalRecord::Type::kDelete);
  EXPECT_EQ(seen[1].key, 2);
  EXPECT_EQ(seen[2].type, WalRecord::Type::kDeleteRange);
  EXPECT_EQ(seen[2].key, 10);
  EXPECT_EQ(seen[2].key2, 20);
  EXPECT_EQ(seen[3].type, WalRecord::Type::kUpdate);
  std::remove(path.c_str());
}

TEST(WalTest, ReplayMissingFileIsEmpty) {
  auto n = WriteAheadLog::Replay(TempPath("no_such_wal.log"),
                                 [](const WalRecord&) {
                                   ADD_FAILURE() << "should not be called";
                                   return Status::OK();
                                 });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
}

TEST(WalTest, TornTailIsDiscarded) {
  std::string path = TempPath("wal_torn.log");
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(Insert(1, {0x01})).ok());
    ASSERT_TRUE((*wal)->Append(Insert(2, {0x02})).ok());
  }
  // Truncate mid-record to simulate a crash during append.
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  ASSERT_EQ(::truncate(path.c_str(), size - 3), 0);
  std::fclose(f);

  std::vector<int64_t> keys;
  auto n = WriteAheadLog::Replay(path, [&](const WalRecord& r) {
    keys.push_back(r.key);
    return Status::OK();
  });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  EXPECT_EQ(keys, (std::vector<int64_t>{1}));
  std::remove(path.c_str());
}

TEST(WalTest, CorruptRecordStopsReplay) {
  std::string path = TempPath("wal_corrupt.log");
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(Insert(1, {0x01})).ok());
    ASSERT_TRUE((*wal)->Append(Insert(2, {0x02})).ok());
  }
  // Flip a payload byte in the second record.
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, size - 6, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, size - 6, SEEK_SET);
  std::fputc(c ^ 0xFF, f);
  std::fclose(f);

  auto n = WriteAheadLog::Replay(path, [](const WalRecord&) {
    return Status::OK();
  });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  std::remove(path.c_str());
}

TEST(WalTest, TruncateEmptiesLog) {
  std::string path = TempPath("wal_truncate.log");
  std::remove(path.c_str());
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(Insert(1, {})).ok());
  ASSERT_GT(*(*wal)->SizeBytes(), 0u);
  ASSERT_TRUE((*wal)->Truncate().ok());
  EXPECT_EQ(*(*wal)->SizeBytes(), 0u);
  auto n = WriteAheadLog::Replay(path, [](const WalRecord&) {
    return Status::OK();
  });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
  std::remove(path.c_str());
}

TEST(WalTest, ShortWriteRollsBackTornFrame) {
  // Regression: a short append used to leave the torn frame bytes in the
  // file, so every subsequent (valid) append landed behind a corrupt
  // prefix and was lost at replay.  Append must ftruncate back to the
  // pre-append offset before reporting the IoError.
  std::string path = TempPath("wal_short_write.log");
  std::remove(path.c_str());
  faults::FaultPlan plan(1);
  plan.FailNth(faults::FaultOp::kWalAppend, 2,
               faults::FaultKind::kTornWrite);
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    (*wal)->set_fault_plan(&plan);
    ASSERT_TRUE((*wal)->Append(Insert(1, {0x01})).ok());
    Status torn = (*wal)->Append(Insert(2, {0x02}));
    ASSERT_TRUE(torn.IsIoError()) << torn.ToString();
    // The log is clean again: later appends must survive replay.
    ASSERT_TRUE((*wal)->Append(Insert(3, {0x03})).ok());
    ASSERT_TRUE((*wal)->Append(Insert(4, {0x04})).ok());
  }
  std::vector<int64_t> keys;
  auto n = WriteAheadLog::Replay(path, [&](const WalRecord& r) {
    keys.push_back(r.key);
    return Status::OK();
  });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(keys, (std::vector<int64_t>{1, 3, 4}));
  std::remove(path.c_str());
}

/// Restores the interposed I/O faults even if an assertion bails out.
struct IoFaultGuard {
  ~IoFaultGuard() { io::ResetIoFaultsForTest(); }
};

TEST(WalTest, SurvivesPartialTransfersAndEintr) {
  // Every read syscall is capped at 97 bytes, so the 1000-byte records
  // span many calls, and EINTR bursts are interposed.  ReadUpTo must
  // still move whole frames, so replay round-trips every record, synced
  // or not.
  std::string path = TempPath("wal_partial_io.log");
  std::remove(path.c_str());
  IoFaultGuard guard;
  io::SetMaxBytesPerCallForTest(97);
  std::vector<uint8_t> big(1000);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(Insert(1, big)).ok());
    ASSERT_TRUE((*wal)->Append(Insert(2, {0x02})).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
    ASSERT_TRUE((*wal)->Append(Insert(3, big)).ok());
  }
  io::SetEintrBurstForTest(25);
  std::vector<WalRecord> seen;
  auto n = WriteAheadLog::Replay(path, [&](const WalRecord& r) {
    seen.push_back(r);
    return Status::OK();
  });
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 3u);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].key, 1);
  EXPECT_EQ(seen[0].value, big);
  EXPECT_EQ(seen[1].key, 2);
  EXPECT_EQ(seen[1].value, (std::vector<uint8_t>{0x02}));
  EXPECT_EQ(seen[2].key, 3);
  EXPECT_EQ(seen[2].value, big);
  std::remove(path.c_str());
}

TEST(WalTest, TruncateZerosThroughPartialTransfersAndEintr) {
  // A cut writes its zeros with pwritev: capped at 97 bytes per call
  // (never a whole page) and interrupted by EINTR, it must still zero
  // every byte it drops.
  std::string path = TempPath("wal_partial_cut.log");
  std::remove(path.c_str());
  IoFaultGuard guard;
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  for (int64_t k = 1; k <= 1000; ++k) {
    ASSERT_TRUE((*wal)->Append(Insert(k, std::vector<uint8_t>(64, 0x77)))
                    .ok());
  }
  const uint64_t first = 4 + 1 + 8 + 4 + 64 + 4;
  io::SetMaxBytesPerCallForTest(97);
  io::SetEintrBurstForTest(25);
  ASSERT_TRUE((*wal)->Truncate(first).ok());
  io::ResetIoFaultsForTest();
  ASSERT_TRUE((*wal)->Append(Insert(-1, {0x01})).ok());
  const std::string image = ProcessDeathImage(path, "wal_partial_cut.img");
  EXPECT_TRUE(ZerosFrom(ReadFileBytes(image), *(*wal)->SizeBytes()));
  EXPECT_EQ(ReplayKeys(image), (std::vector<int64_t>{1, -1}));
  wal->reset();
  std::remove(path.c_str());
  std::remove(image.c_str());
}

TEST(WalTest, ReplayTrimsTornTailSoNewAppendsAreReadable) {
  // Regression: Replay used to skip the torn tail but leave it in the
  // file; the next Append (O_APPEND) landed behind the garbage, so every
  // record written after recovery was invisible to the following replay.
  std::string path = TempPath("wal_trim_tail.log");
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(Insert(1, {0x01})).ok());
    ASSERT_TRUE((*wal)->Append(Insert(2, {0x02})).ok());
  }
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(::truncate(path.c_str(), size - 3), 0);  // torn second record

  auto first = WriteAheadLog::Replay(path, [](const WalRecord&) {
    return Status::OK();
  });
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 1u);
  {
    // Post-recovery writer: the append must land right after record 1.
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(Insert(3, {0x03})).ok());
  }
  std::vector<int64_t> keys;
  auto again = WriteAheadLog::Replay(path, [&](const WalRecord& r) {
    keys.push_back(r.key);
    return Status::OK();
  });
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(keys, (std::vector<int64_t>{1, 3}));
  std::remove(path.c_str());
}

TEST(WalTest, ConcurrentAppendAndSyncReplayEachRecordOnce) {
  // N threads share one log, each doing durable appends (Append + Sync)
  // of disjoint keys.  Every record must replay exactly once, and each
  // thread's records in the order that thread appended them.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::string path = TempPath("wal_concurrent.log");
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          int64_t key = static_cast<int64_t>(t) * kPerThread + i;
          if (!(*wal)->Append(Insert(key, {static_cast<uint8_t>(t),
                                           static_cast<uint8_t>(i)}))
                   .ok() ||
              !(*wal)->Sync().ok()) {
            ++failures;
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_EQ(failures.load(), 0);
  }

  std::vector<int64_t> last_by_thread(kThreads, -1);
  std::map<int64_t, int> seen;
  auto n = WriteAheadLog::Replay(path, [&](const WalRecord& r) {
    const int t = static_cast<int>(r.key / kPerThread);
    if (r.key < 0 || t >= kThreads) return Status::Corruption("stray key");
    EXPECT_EQ(++seen[r.key], 1) << "key " << r.key << " replayed twice";
    EXPECT_GT(r.key, last_by_thread[t]) << "thread " << t << " reordered";
    EXPECT_EQ(r.value, (std::vector<uint8_t>{static_cast<uint8_t>(t),
                                             static_cast<uint8_t>(
                                                 r.key % kPerThread)}));
    last_by_thread[t] = r.key;
    return Status::OK();
  });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(seen.size(), static_cast<size_t>(kThreads * kPerThread));
  std::remove(path.c_str());
}

TEST(WalTest, ProcessDeathImageReplaysAndAppendsBehind) {
  // Enough 64-byte records to cross several mapped windows; then the
  // process dies inside the next frame, leaving a 7-byte torn prefix.
  constexpr int64_t kRecords = 3000;
  std::string path = TempPath("wal_death.log");
  std::remove(path.c_str());
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  uint64_t expect_size = 0;
  for (int64_t k = 1; k <= kRecords; ++k) {
    std::vector<uint8_t> value(64, static_cast<uint8_t>(k));
    ASSERT_TRUE((*wal)->Append(Insert(k, value)).ok());
    expect_size += 4 + 1 + 8 + 4 + 64 + 4;
  }
  ASSERT_GT(expect_size, 2 * WriteAheadLog::kTailChunk);
  EXPECT_EQ(*(*wal)->SizeBytes(), expect_size);  // logical, not the file's
  auto& registry = faults::CrashPointRegistry::Global();
  registry.Reset();
  registry.Arm(faults::kWalAppendPartial, 1, /*payload=*/7);
  EXPECT_FALSE((*wal)->Append(Insert(kRecords + 1, {0x01})).ok());
  registry.Reset();
  EXPECT_EQ(*(*wal)->SizeBytes(), expect_size);

  const std::string image = ProcessDeathImage(path, "wal_death_a.img");
  const std::string image_b = ProcessDeathImage(path, "wal_death_b.img");
  wal->reset();
  std::string bytes = ReadFileBytes(image);
  // Past the logical end: the torn prefix, then the window's zeros.
  ASSERT_GT(bytes.size(), expect_size + 7);
  EXPECT_NE(bytes.substr(expect_size, 7), std::string(7, '\0'));
  EXPECT_TRUE(ZerosFrom(bytes, expect_size + 7));

  std::vector<int64_t> want;
  for (int64_t k = 1; k <= kRecords; ++k) want.push_back(k);
  EXPECT_EQ(ReplayKeys(image), want);
  {
    // Reopened after a replay: the append lands right behind the last
    // intact frame.
    auto reopened = WriteAheadLog::Open(image);
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(*(*reopened)->SizeBytes(), expect_size);
    ASSERT_TRUE((*reopened)->Append(Insert(-1, {0x02})).ok());
  }
  {
    // Reopened with no replay first: the same.
    auto reopened = WriteAheadLog::Open(image_b);
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(*(*reopened)->SizeBytes(), expect_size);
    ASSERT_TRUE((*reopened)->Append(Insert(-1, {0x02})).ok());
  }
  want.push_back(-1);
  EXPECT_EQ(ReplayKeys(image), want);
  EXPECT_EQ(ReplayKeys(image_b), want);
  std::remove(path.c_str());
  std::remove(image.c_str());
  std::remove(image_b.c_str());
}

TEST(WalTest, TruncateLeavesNoFrameFromBeforeIt) {
  // Same-size frames, so a truncation that only moved a cursor would
  // leave old frames intact right behind the new one.
  std::string path = TempPath("wal_truncate_stale.log");
  std::remove(path.c_str());
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  for (int64_t k = 1; k <= 20; ++k) {
    ASSERT_TRUE((*wal)->Append(Insert(k, {0x11, 0x22})).ok());
  }
  ASSERT_TRUE((*wal)->Truncate().ok());
  EXPECT_EQ(*(*wal)->SizeBytes(), 0u);
  ASSERT_TRUE((*wal)->Append(Insert(100, {0x33, 0x44})).ok());
  const uint64_t size = *(*wal)->SizeBytes();

  const std::string image = ProcessDeathImage(path, "wal_truncate_stale.img");
  EXPECT_TRUE(ZerosFrom(ReadFileBytes(image), size));
  EXPECT_EQ(ReplayKeys(image), (std::vector<int64_t>{100}));
  wal->reset();
  EXPECT_EQ(ReplayKeys(path), (std::vector<int64_t>{100}));
  std::remove(path.c_str());
  std::remove(image.c_str());
}

TEST(WalTest, TruncateAcrossWindowsZerosInPlaceAndKeepsReservation) {
  // More than one mapped window of same-size frames, cut to empty, then
  // a few new frames: a cut that left the old bytes in place would let
  // the old frames replay right behind the new ones.
  constexpr int64_t kOld = 2000;
  constexpr int64_t kNew = 5;
  std::string path = TempPath("wal_truncate_windows.log");
  std::remove(path.c_str());
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  for (int64_t k = 1; k <= kOld; ++k) {
    std::vector<uint8_t> value(64, static_cast<uint8_t>(k));
    ASSERT_TRUE((*wal)->Append(Insert(k, value)).ok());
  }
  ASSERT_GT(*(*wal)->SizeBytes(), WriteAheadLog::kTailChunk);
  const uint64_t reserved = std::filesystem::file_size(path);
  ASSERT_GE(reserved, *(*wal)->SizeBytes());

  ASSERT_TRUE((*wal)->Truncate(0).ok());
  EXPECT_EQ(*(*wal)->SizeBytes(), 0u);
  EXPECT_EQ(std::filesystem::file_size(path), reserved);
  std::vector<int64_t> want;
  for (int64_t k = -1; k >= -kNew; --k) {
    std::vector<uint8_t> value(64, 0x5a);
    ASSERT_TRUE((*wal)->Append(Insert(k, value)).ok());
    want.push_back(k);
  }
  const uint64_t size = *(*wal)->SizeBytes();
  EXPECT_EQ(std::filesystem::file_size(path), reserved);

  const std::string image =
      ProcessDeathImage(path, "wal_truncate_windows.img");
  const std::string bytes = ReadFileBytes(image);
  EXPECT_EQ(bytes.size(), reserved);
  EXPECT_TRUE(ZerosFrom(bytes, size));
  EXPECT_EQ(ReplayKeys(image), want);

  wal->reset();
  EXPECT_EQ(std::filesystem::file_size(path), size);
  EXPECT_EQ(ReplayKeys(path), want);
  std::remove(path.c_str());
  std::remove(image.c_str());
}

TEST(WalTest, DiskFullOnMappedTailRollsBackAndStaysAppendable) {
  std::string path = TempPath("wal_disk_full.log");
  std::remove(path.c_str());
  faults::FaultPlan plan(5);
  // The space runs out 9 bytes into the third frame.
  plan.FailNthWithArg(faults::FaultOp::kWalAppend, 3,
                      faults::FaultKind::kDiskFull, 9);
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  (*wal)->set_fault_plan(&plan);
  ASSERT_TRUE((*wal)->Append(Insert(1, {0x01})).ok());
  ASSERT_TRUE((*wal)->Append(Insert(2, {0x02})).ok());
  const uint64_t size = *(*wal)->SizeBytes();
  Status full = (*wal)->Append(Insert(3, {0x03}));
  ASSERT_TRUE(full.IsIoError()) << full.ToString();
  EXPECT_NE(full.message().find("disk full"), std::string::npos);
  EXPECT_EQ(*(*wal)->SizeBytes(), size);
  // The 9 bytes that made it were discarded, not just skipped over.
  const std::string image = ProcessDeathImage(path, "wal_disk_full.img");
  EXPECT_TRUE(ZerosFrom(ReadFileBytes(image), size));

  ASSERT_TRUE((*wal)->Append(Insert(4, {0x04})).ok());
  EXPECT_EQ(ReplayKeys(path), (std::vector<int64_t>{1, 2, 4}));
  wal->reset();
  EXPECT_EQ(ReplayKeys(path), (std::vector<int64_t>{1, 2, 4}));
  std::remove(path.c_str());
  std::remove(image.c_str());
}

TEST(WalTest, OpenCutsOffIntactFramesBehindACorruptOne) {
  // Frame 2 of four same-size frames is corrupt, so replay ends at frame
  // 1.  The writer reopened on that file appends behind frame 1; frames
  // 3 and 4 must go, or they would replay intact behind the new frame.
  std::string path = TempPath("wal_open_corrupt.log");
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    for (int64_t k = 1; k <= 4; ++k) {
      ASSERT_TRUE((*wal)->Append(Insert(k, {0x10, 0x20})).ok());
    }
  }
  std::string bytes = ReadFileBytes(path);
  ASSERT_EQ(bytes.size() % 4, 0u);
  const size_t frame = bytes.size() / 4;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(frame + 6), SEEK_SET);
    std::fputc(bytes[frame + 6] ^ 0x01, f);
    std::fclose(f);
  }
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(*(*wal)->SizeBytes(), frame);
  ASSERT_TRUE((*wal)->Append(Insert(5, {0x30, 0x40})).ok());
  const std::string image = ProcessDeathImage(path, "wal_open_corrupt.img");
  EXPECT_EQ(ReplayKeys(image), (std::vector<int64_t>{1, 5}));
  wal->reset();
  EXPECT_EQ(ReplayKeys(path), (std::vector<int64_t>{1, 5}));
  std::remove(path.c_str());
  std::remove(image.c_str());
}

TEST(WalTest, ReplayOfAnOpenLogLeavesItAppendable) {
  // Recovery code and tests replay a log whose writer is still open.
  // The writer's reserved window is zeros past the logical end; cutting
  // it would leave mapped pages past end of file, and the writer's next
  // store into one would raise SIGBUS.
  std::string path = TempPath("wal_replay_open.log");
  std::remove(path.c_str());
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  std::vector<uint8_t> value(200, 0x5A);
  ASSERT_TRUE((*wal)->Append(Insert(1, value)).ok());
  EXPECT_EQ(ReplayKeys(path), (std::vector<int64_t>{1}));
  std::vector<int64_t> want{1};
  for (int64_t k = 2; k <= 100; ++k) {  // ~21 KiB: several more pages
    ASSERT_TRUE((*wal)->Append(Insert(k, value)).ok());
    want.push_back(k);
  }
  EXPECT_EQ(ReplayKeys(path), want);
  wal->reset();
  EXPECT_EQ(ReplayKeys(path), want);
  std::remove(path.c_str());
}

TEST(WalTest, ApplyErrorPropagates) {
  std::string path = TempPath("wal_apply_err.log");
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(Insert(1, {})).ok());
  }
  auto n = WriteAheadLog::Replay(path, [](const WalRecord&) {
    return Status::Corruption("apply failed");
  });
  EXPECT_FALSE(n.ok());
  EXPECT_TRUE(n.status().IsCorruption());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace prorp::storage
