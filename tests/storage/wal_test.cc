#include "storage/wal.h"

#include <atomic>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

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
  // Every write and read syscall is capped at 97 bytes, so the 1000-byte
  // records span many calls, and EINTR bursts are interposed.  WriteFull
  // and ReadUpTo must still move whole frames, so append and replay
  // round-trip every record through both the buffered and the
  // group-commit path.
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
    io::SetEintrBurstForTest(25);
    ASSERT_TRUE((*wal)->Append(Insert(1, big)).ok());
    io::SetEintrBurstForTest(25);
    ASSERT_TRUE((*wal)->AppendDurable(Insert(2, {0x02})).ok());
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

TEST(WalTest, AppendDurableSingleCallerRoundTrip) {
  std::string path = TempPath("wal_durable_single.log");
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    auto lsn1 = (*wal)->AppendDurable(Insert(1, {0x01}));
    auto lsn2 = (*wal)->AppendDurable(Insert(2, {0x02}));
    ASSERT_TRUE(lsn1.ok());
    ASSERT_TRUE(lsn2.ok());
    EXPECT_LT(*lsn1, *lsn2);
    auto stats = (*wal)->group_commit_stats();
    EXPECT_EQ(stats.records, 2u);
    EXPECT_EQ(stats.commits, 2u);  // no concurrency, no batching
    EXPECT_EQ(stats.durable_lsn, *lsn2);
  }
  std::vector<int64_t> keys;
  auto n = WriteAheadLog::Replay(path, [&](const WalRecord& r) {
    keys.push_back(r.key);
    return Status::OK();
  });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(keys, (std::vector<int64_t>{1, 2}));
  std::remove(path.c_str());
}

TEST(WalTest, GroupCommitConcurrentAppendersReplayOnceInLsnOrder) {
  // N threads append disjoint records through the group-commit path.
  // After a clean join every acked record must replay exactly once, and
  // the file order must equal LSN order.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::string path = TempPath("wal_group_concurrent.log");
  std::remove(path.c_str());

  std::map<int64_t, uint64_t> lsn_by_key;
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    std::mutex mu;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          int64_t key = static_cast<int64_t>(t) * kPerThread + i;
          auto lsn = (*wal)->AppendDurable(
              Insert(key, {static_cast<uint8_t>(t), static_cast<uint8_t>(i)}));
          if (!lsn.ok()) {
            ++failures;
            continue;
          }
          std::lock_guard<std::mutex> lock(mu);
          lsn_by_key[key] = *lsn;
        }
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_EQ(failures.load(), 0);

    auto stats = (*wal)->group_commit_stats();
    EXPECT_EQ(stats.records, static_cast<uint64_t>(kThreads * kPerThread));
    EXPECT_LE(stats.commits, stats.records);
    EXPECT_GE(stats.max_batch, 1u);
  }
  ASSERT_EQ(lsn_by_key.size(), static_cast<size_t>(kThreads * kPerThread));

  std::vector<int64_t> replayed_keys;
  auto n = WriteAheadLog::Replay(path, [&](const WalRecord& r) {
    replayed_keys.push_back(r.key);
    return Status::OK();
  });
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, static_cast<uint64_t>(kThreads * kPerThread));

  // Exactly once: every acked key appears, none twice; strictly
  // increasing LSNs prove file order == commit order.
  uint64_t prev_lsn = 0;
  std::map<int64_t, int> seen;
  for (int64_t key : replayed_keys) {
    ASSERT_EQ(++seen[key], 1) << "key " << key << " replayed twice";
    auto it = lsn_by_key.find(key);
    ASSERT_NE(it, lsn_by_key.end()) << "unacked key " << key << " replayed";
    ASSERT_GT(it->second, prev_lsn) << "LSN order violated at key " << key;
    prev_lsn = it->second;
  }
  std::remove(path.c_str());
}

TEST(WalTest, GroupCommitBatchesUnderPause) {
  // With leaders paused, concurrent appenders pile up and the un-pause
  // releases them as one deterministic batch: one commit round, one
  // contiguous write, all records durable.
  constexpr int kAppenders = 4;
  std::string path = TempPath("wal_group_pause.log");
  std::remove(path.c_str());
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  (*wal)->PauseGroupCommitForTest(true);

  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kAppenders; ++t) {
    threads.emplace_back([&, t] {
      auto lsn = (*wal)->AppendDurable(Insert(t, {static_cast<uint8_t>(t)}));
      if (lsn.ok()) ++ok;
    });
  }
  // Wait for every appender to enqueue; nothing may reach the file while
  // paused.
  while ((*wal)->QueuedForTest() < static_cast<size_t>(kAppenders)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(*(*wal)->SizeBytes(), 0u);
  (*wal)->PauseGroupCommitForTest(false);
  for (auto& th : threads) th.join();

  EXPECT_EQ(ok.load(), kAppenders);
  auto stats = (*wal)->group_commit_stats();
  EXPECT_EQ(stats.records, static_cast<uint64_t>(kAppenders));
  EXPECT_EQ(stats.commits, 1u) << "paused appenders must coalesce";
  EXPECT_EQ(stats.max_batch, static_cast<uint64_t>(kAppenders));
  std::remove(path.c_str());
}

TEST(WalTest, GroupCommitFailedBatchedWriteAcksNothing) {
  // A torn batched write must not acknowledge any record in the batch:
  // the file is rolled back to the batch start and every caller gets the
  // error.  Later appends land on a clean log.
  constexpr int kAppenders = 3;
  std::string path = TempPath("wal_group_torn_batch.log");
  std::remove(path.c_str());
  faults::FaultPlan plan(11);
  plan.FailNth(faults::FaultOp::kWalAppend, 1, faults::FaultKind::kTornWrite);
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  (*wal)->set_fault_plan(&plan);
  (*wal)->PauseGroupCommitForTest(true);

  std::atomic<int> io_errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kAppenders; ++t) {
    threads.emplace_back([&, t] {
      auto lsn = (*wal)->AppendDurable(Insert(t, {0xEE}));
      if (!lsn.ok() && lsn.status().IsIoError()) ++io_errors;
    });
  }
  while ((*wal)->QueuedForTest() < static_cast<size_t>(kAppenders)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  (*wal)->PauseGroupCommitForTest(false);
  for (auto& th : threads) th.join();

  ASSERT_EQ((*wal)->group_commit_stats().commits, 1u);
  EXPECT_EQ(io_errors.load(), kAppenders) << "no record may be acked";
  EXPECT_EQ((*wal)->group_commit_stats().durable_lsn, 0u);

  // The rollback left a clean log: a fresh append is replayable.
  (*wal)->set_fault_plan(nullptr);
  ASSERT_TRUE((*wal)->AppendDurable(Insert(100, {0x64})).ok());
  std::vector<int64_t> keys;
  auto n = WriteAheadLog::Replay(path, [&](const WalRecord& r) {
    keys.push_back(r.key);
    return Status::OK();
  });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(keys, (std::vector<int64_t>{100}));
  std::remove(path.c_str());
}

TEST(WalTest, GroupCommitInjectedIoErrorFailsOnlyThatRecord) {
  // A per-record injected IoError means "no bytes of this record reached
  // the medium"; the rest of the batch still commits and acks.
  constexpr int kAppenders = 3;
  std::string path = TempPath("wal_group_ioerror.log");
  std::remove(path.c_str());
  faults::FaultPlan plan(12);
  plan.FailNth(faults::FaultOp::kWalAppend, 2, faults::FaultKind::kIoError);
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  (*wal)->set_fault_plan(&plan);
  (*wal)->PauseGroupCommitForTest(true);

  std::atomic<int> acked{0};
  std::atomic<int> io_errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kAppenders; ++t) {
    threads.emplace_back([&, t] {
      auto lsn = (*wal)->AppendDurable(Insert(t, {0xAB}));
      if (lsn.ok()) {
        ++acked;
      } else if (lsn.status().IsIoError()) {
        ++io_errors;
      }
    });
  }
  while ((*wal)->QueuedForTest() < static_cast<size_t>(kAppenders)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  (*wal)->PauseGroupCommitForTest(false);
  for (auto& th : threads) th.join();

  ASSERT_EQ((*wal)->group_commit_stats().commits, 1u);
  EXPECT_EQ(acked.load(), kAppenders - 1);
  EXPECT_EQ(io_errors.load(), 1);

  uint64_t replayed = 0;
  auto n = WriteAheadLog::Replay(path, [&](const WalRecord&) {
    ++replayed;
    return Status::OK();
  });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(replayed, static_cast<uint64_t>(kAppenders - 1));
  std::remove(path.c_str());
}

TEST(WalTest, GroupCommitSyncFaultAcksNothing) {
  // An injected sync fault fails the whole round: the bytes may stay in
  // the file (same contract as a failed serial Sync) but no caller acks.
  constexpr int kAppenders = 3;
  std::string path = TempPath("wal_group_sync_fault.log");
  std::remove(path.c_str());
  faults::FaultPlan plan(13);
  plan.FailNth(faults::FaultOp::kWalSync, 1, faults::FaultKind::kIoError);
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  (*wal)->set_fault_plan(&plan);
  (*wal)->PauseGroupCommitForTest(true);

  std::atomic<int> io_errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kAppenders; ++t) {
    threads.emplace_back([&, t] {
      auto lsn = (*wal)->AppendDurable(Insert(t, {0x55}));
      if (!lsn.ok() && lsn.status().IsIoError()) ++io_errors;
    });
  }
  while ((*wal)->QueuedForTest() < static_cast<size_t>(kAppenders)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  (*wal)->PauseGroupCommitForTest(false);
  for (auto& th : threads) th.join();

  EXPECT_EQ(io_errors.load(), kAppenders);
  EXPECT_EQ((*wal)->group_commit_stats().durable_lsn, 0u);
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
