#include "storage/durable_tree.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "faults/fault_plan.h"
#include "storage/page.h"
#include "storage/wal.h"

namespace prorp::storage {
namespace {

namespace fs = std::filesystem;

std::vector<uint8_t> Value64(int64_t v) {
  std::vector<uint8_t> out(8);
  std::memcpy(out.data(), &v, 8);
  return out;
}

/// Point read through ScanRange, the durable tree's read path: the value
/// under `key`, NotFound when it is absent, or the scan's error.
Result<std::vector<uint8_t>> Find(const DurableTree& tree, int64_t key) {
  std::vector<uint8_t> value;
  PRORP_RETURN_IF_ERROR(
      tree.ScanRange(key, key, [&](int64_t, const uint8_t* v) {
        value.assign(v, v + tree.value_width());
        return false;
      }));
  if (value.empty()) return Status::NotFound("key not found");
  return value;
}

bool Contains(const DurableTree& tree, int64_t key) {
  return Find(tree, key).ok();
}

class DurableTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/durable_tree_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  DurableTree::Options Opts() {
    DurableTree::Options o;
    o.dir = dir_;
    o.value_width = 8;
    o.checkpoint_wal_bytes = 0;  // manual checkpoints in tests
    return o;
  }

  std::string dir_;
};

TEST_F(DurableTreeTest, EphemeralModeWorksWithoutDir) {
  DurableTree::Options o;
  o.dir = "";
  auto t = DurableTree::Open(o);
  ASSERT_TRUE(t.ok());
  EXPECT_FALSE((*t)->durable());
  ASSERT_TRUE((*t)->Insert(1, Value64(10).data()).ok());
  EXPECT_TRUE(Contains(**t, 1));
  EXPECT_TRUE((*t)->Checkpoint().code() == StatusCode::kFailedPrecondition);
  EXPECT_TRUE((*t)->Backup("/tmp/x").code() ==
              StatusCode::kFailedPrecondition);
}

TEST_F(DurableTreeTest, RecoversFromWalOnly) {
  {
    auto t = DurableTree::Open(Opts());
    ASSERT_TRUE(t.ok());
    for (int64_t k = 0; k < 100; ++k) {
      ASSERT_TRUE((*t)->Insert(k, Value64(k * 3).data()).ok());
    }
    ASSERT_TRUE((*t)->Delete(50).ok());
  }  // "crash" without checkpoint
  auto t = DurableTree::Open(Opts());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ((*t)->size(), 99u);
  EXPECT_TRUE(Find(**t, 50).status().IsNotFound());
  auto v = Find(**t, 51);
  ASSERT_TRUE(v.ok());
  int64_t got;
  std::memcpy(&got, v->data(), 8);
  EXPECT_EQ(got, 153);
}

TEST_F(DurableTreeTest, RecoversFromSnapshotPlusWalTail) {
  {
    auto t = DurableTree::Open(Opts());
    ASSERT_TRUE(t.ok());
    for (int64_t k = 0; k < 50; ++k) {
      ASSERT_TRUE((*t)->Insert(k, Value64(k).data()).ok());
    }
    ASSERT_TRUE((*t)->Checkpoint().ok());
    // Post-checkpoint mutations live only in the WAL.
    for (int64_t k = 50; k < 80; ++k) {
      ASSERT_TRUE((*t)->Insert(k, Value64(k).data()).ok());
    }
    ASSERT_TRUE((*t)->DeleteRange(0, 9).ok());
  }
  auto t = DurableTree::Open(Opts());
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->size(), 70u);
  EXPECT_TRUE(Find(**t, 0).status().IsNotFound());
  EXPECT_TRUE(Contains(**t, 79));
  ASSERT_TRUE((*t)->tree().CheckInvariants().ok());
}

TEST_F(DurableTreeTest, CheckpointTruncatesWal) {
  auto t = DurableTree::Open(Opts());
  ASSERT_TRUE(t.ok());
  for (int64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE((*t)->Insert(k, Value64(k).data()).ok());
  }
  ASSERT_TRUE((*t)->Checkpoint().ok());
  // A live log keeps its reserved, zeroed tail, so its file size is not
  // its logical end: check what replay sees, then the closed file.
  auto replayed = WriteAheadLog::Replay(
      dir_ + "/wal.log", [](const WalRecord&) { return Status::OK(); });
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 0u);
  EXPECT_GT(fs::file_size(dir_ + "/snapshot.db"), 0u);
  t->reset();
  EXPECT_EQ(fs::file_size(dir_ + "/wal.log"), 0u);
}

TEST_F(DurableTreeTest, AutoCheckpointTriggersOnWalGrowth) {
  DurableTree::Options o = Opts();
  o.checkpoint_wal_bytes = 512;
  auto t = DurableTree::Open(o);
  ASSERT_TRUE(t.ok());
  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE((*t)->Insert(k, Value64(k).data()).ok());
  }
  // 100 records x ~29 bytes >> 512, so at least one auto checkpoint ran.
  // A live log's file also holds its preallocated tail window; closing
  // the tree cuts the file back to the bytes written.
  t->reset();
  EXPECT_LT(fs::file_size(dir_ + "/wal.log"), 600u);
  EXPECT_TRUE(fs::exists(dir_ + "/snapshot.db"));
}

TEST_F(DurableTreeTest, BackupAndRestoreModelsDatabaseMove) {
  std::string dest = dir_ + "_moved";
  fs::remove_all(dest);
  {
    auto t = DurableTree::Open(Opts());
    ASSERT_TRUE(t.ok());
    for (int64_t k = 0; k < 30; ++k) {
      ASSERT_TRUE((*t)->Insert(k * 100, Value64(k).data()).ok());
    }
    ASSERT_TRUE((*t)->Backup(dest).ok());
  }
  // "The database moves to another node": open the history at dest.
  DurableTree::Options o = Opts();
  o.dir = dest;
  auto moved = DurableTree::Open(o);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_EQ((*moved)->size(), 30u);
  EXPECT_TRUE(Contains(**moved, 2900));
  // History keeps working at the destination.
  ASSERT_TRUE((*moved)->Insert(9999, Value64(1).data()).ok());
  fs::remove_all(dest);
}

TEST_F(DurableTreeTest, LogicalSizeMatchesPaperArithmetic) {
  // Each history tuple is two 64-bit integers = 16 bytes (Section 9.3):
  // 500 tuples ~ the paper's "within 7 KB on average".
  auto t = DurableTree::Open(Opts());
  ASSERT_TRUE(t.ok());
  for (int64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE((*t)->Insert(k, Value64(k % 2).data()).ok());
  }
  EXPECT_EQ((*t)->LogicalSizeBytes(), 500u * 16u);
  EXPECT_LT((*t)->LogicalSizeBytes() / 1024.0, 8.0);
}

TEST_F(DurableTreeTest, CorruptSnapshotIsRejected) {
  {
    auto t = DurableTree::Open(Opts());
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE((*t)->Insert(1, Value64(1).data()).ok());
    ASSERT_TRUE((*t)->Checkpoint().ok());
  }
  // Flip a byte inside the snapshot body.
  std::string snap = dir_ + "/snapshot.db";
  FILE* f = std::fopen(snap.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 10, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, 10, SEEK_SET);
  std::fputc(c ^ 0xFF, f);
  std::fclose(f);
  auto t = DurableTree::Open(Opts());
  EXPECT_FALSE(t.ok());
  EXPECT_TRUE(t.status().IsCorruption());
}

TEST_F(DurableTreeTest, UpdateIsDurable) {
  {
    auto t = DurableTree::Open(Opts());
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE((*t)->Insert(5, Value64(1).data()).ok());
    ASSERT_TRUE((*t)->Update(5, Value64(2).data()).ok());
  }
  auto t = DurableTree::Open(Opts());
  ASSERT_TRUE(t.ok());
  auto v = Find(**t, 5);
  ASSERT_TRUE(v.ok());
  int64_t got;
  std::memcpy(&got, v->data(), 8);
  EXPECT_EQ(got, 2);
}

TEST_F(DurableTreeTest, CleanScrubCountsPasses) {
  auto t = DurableTree::Open(Opts());
  ASSERT_TRUE(t.ok());
  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE((*t)->Insert(k, Value64(k).data()).ok());
  }
  auto report = (*t)->Scrub();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->clean()) << report->ToString();
  const IntegrityStats& stats = (*t)->integrity_stats();
  EXPECT_EQ(stats.scrub_passes, 1u);
  EXPECT_GT(stats.scrub_pages, 0u);
  EXPECT_EQ(stats.scrub_errors, 0u);
  EXPECT_EQ(stats.corruption_detected, 0u);
}

TEST_F(DurableTreeTest, ScrubDetectsAndRepairsDiskCorruption) {
  auto t = DurableTree::Open(Opts());
  ASSERT_TRUE(t.ok());
  for (int64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE((*t)->Insert(k, Value64(k * 3).data()).ok());
  }
  ASSERT_TRUE((*t)->Checkpoint().ok());
  ASSERT_TRUE((*t)->buffer_pool()->FlushAll().ok());

  // Flip a payload byte of page 1 straight on the page store.  The pool's
  // cached copy stays clean, so only the raw scrub pass can see it.
  uint8_t raw[kPageSize];
  ASSERT_TRUE((*t)->disk()->Read(1, raw).ok());
  raw[kPageHeaderSize + 5] ^= 0x40;
  ASSERT_TRUE((*t)->disk()->Write(1, raw).ok());

  auto report = (*t)->Scrub();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->clean()) << report->ToString();
  const IntegrityStats& stats = (*t)->integrity_stats();
  EXPECT_GE(stats.corruption_detected, 1u);
  EXPECT_GE(stats.corruption_repaired, 1u);
  EXPECT_EQ(stats.corruption_quarantined, 0u);
  EXPECT_GE(stats.scrub_errors, 1u);
  EXPECT_FALSE((*t)->quarantined());
  // The repair lost no acknowledged record.
  EXPECT_EQ((*t)->size(), 200u);
  for (int64_t k = 0; k < 200; ++k) {
    auto v = Find(**t, k);
    ASSERT_TRUE(v.ok()) << "key " << k;
    int64_t got;
    std::memcpy(&got, v->data(), 8);
    EXPECT_EQ(got, k * 3);
  }
}

TEST_F(DurableTreeTest, ReadsSelfHealAfterPageStoreCorruption) {
  DurableTree::Options o = Opts();
  o.buffer_pool_pages = 4;
  auto t = DurableTree::Open(o);
  ASSERT_TRUE(t.ok());
  for (int64_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE((*t)->Insert(k, Value64(k * 2).data()).ok());
  }
  ASSERT_TRUE((*t)->Checkpoint().ok());
  ASSERT_TRUE((*t)->buffer_pool()->FlushAll().ok());

  // Corrupt every page on the store: the next cache miss trips checksum
  // verification and must drive a transparent rebuild mid-read.
  DiskManager* disk = (*t)->disk();
  uint8_t raw[kPageSize];
  for (PageId p = 0; p < disk->num_pages(); ++p) {
    ASSERT_TRUE(disk->Read(p, raw).ok());
    raw[kPageHeaderSize] ^= 0x01;
    ASSERT_TRUE(disk->Write(p, raw).ok());
  }
  for (int64_t k = 0; k < 1000; ++k) {
    auto v = Find(**t, k);
    ASSERT_TRUE(v.ok()) << "key " << k << ": " << v.status().ToString();
    int64_t got;
    std::memcpy(&got, v->data(), 8);
    EXPECT_EQ(got, k * 2);
  }
  EXPECT_GE((*t)->integrity_stats().corruption_detected, 1u);
  EXPECT_GE((*t)->integrity_stats().corruption_repaired, 1u);
  EXPECT_FALSE((*t)->quarantined());
  ASSERT_TRUE((*t)->tree().CheckInvariants().ok());
}

TEST_F(DurableTreeTest, EphemeralStoreQuarantinesOnCorruption) {
  DurableTree::Options o;
  o.dir = "";  // no snapshot or WAL to repair from
  auto t = DurableTree::Open(o);
  ASSERT_TRUE(t.ok());
  for (int64_t k = 0; k < 300; ++k) {
    ASSERT_TRUE((*t)->Insert(k, Value64(k).data()).ok());
  }
  ASSERT_TRUE((*t)->buffer_pool()->FlushAll().ok());

  uint8_t raw[kPageSize];
  ASSERT_TRUE((*t)->disk()->Read(1, raw).ok());
  raw[kPageHeaderSize + 9] ^= 0x08;
  ASSERT_TRUE((*t)->disk()->Write(1, raw).ok());

  auto report = (*t)->Scrub();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsCorruption())
      << report.status().ToString();
  EXPECT_TRUE((*t)->quarantined());
  EXPECT_EQ((*t)->integrity_stats().corruption_quarantined, 1u);
  // Every later operation keeps returning the typed quarantine status.
  EXPECT_TRUE((*t)->Insert(9999, Value64(1).data()).IsCorruption());
  EXPECT_TRUE(Find(**t, 1).status().IsCorruption());
}

TEST_F(DurableTreeTest, QuarantineMovesDurableFilesAside) {
  faults::FaultPlan plan(7);
  DurableTree::Options o = Opts();
  o.buffer_pool_pages = 4;
  o.fault_plan = &plan;
  auto t = DurableTree::Open(o);
  ASSERT_TRUE(t.ok());
  for (int64_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE((*t)->Insert(k, Value64(k).data()).ok());
  }
  ASSERT_TRUE((*t)->Checkpoint().ok());

  // From here on every page-store read is silently bit-flipped, so a
  // rebuild can never stick: the store must give up and quarantine.
  plan.FailWithProbability(faults::FaultOp::kDiskRead, 1.0,
                           faults::FaultKind::kBitFlip);
  Status s = Status::OK();
  for (int64_t k = 0; k < 1000 && s.ok(); ++k) {
    s = Find(**t, k).status();
  }
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_TRUE((*t)->quarantined());
  EXPECT_GE((*t)->integrity_stats().corruption_quarantined, 1u);
  EXPECT_TRUE(fs::exists(dir_ + "/snapshot.db.quarantined"));
  EXPECT_TRUE(fs::exists(dir_ + "/wal.log.quarantined"));
  EXPECT_FALSE(fs::exists(dir_ + "/snapshot.db"));
  EXPECT_TRUE((*t)->Insert(5000, Value64(1).data()).IsCorruption());
}

}  // namespace
}  // namespace prorp::storage
