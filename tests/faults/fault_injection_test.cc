// Fault-injecting disk manager semantics, and end-to-end behavior of a
// DurableTree opened over a fault plan.

#include <cstring>
#include <filesystem>

#include <gtest/gtest.h>

#include "faults/fault_injecting_disk_manager.h"
#include "faults/fault_plan.h"
#include "storage/durable_tree.h"

namespace prorp::faults {
namespace {

namespace fs = std::filesystem;
using storage::DurableTree;
using storage::InMemoryDiskManager;
using storage::kPageSize;
using storage::PageId;

std::vector<uint8_t> Value64(int64_t v) {
  std::vector<uint8_t> out(8);
  std::memcpy(out.data(), &v, 8);
  return out;
}

/// Whether `tree` holds `key`, read through ScanRange.
bool Contains(const DurableTree& tree, int64_t key) {
  bool found = false;
  EXPECT_TRUE(tree.ScanRange(key, key, [&](int64_t, const uint8_t*) {
                    found = true;
                    return false;
                  })
                  .ok());
  return found;
}

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(FaultInjectingDiskManagerTest, IoErrorFailsExactlyTheScriptedWrite) {
  FaultPlan plan(3);
  plan.FailNth(FaultOp::kDiskWrite, 2, FaultKind::kIoError);
  FaultInjectingDiskManager dm(std::make_unique<InMemoryDiskManager>(),
                               &plan);
  auto id = dm.Allocate();
  ASSERT_TRUE(id.ok());
  uint8_t page[kPageSize] = {};
  EXPECT_TRUE(dm.Write(*id, page).ok());
  Status s = dm.Write(*id, page);
  EXPECT_TRUE(s.IsIoError());
  EXPECT_TRUE(dm.Write(*id, page).ok());
}

TEST(FaultInjectingDiskManagerTest, BitFlipOnReadFlipsExactlyOneBit) {
  FaultPlan plan(11);
  plan.FailNth(FaultOp::kDiskRead, 1, FaultKind::kBitFlip);
  FaultInjectingDiskManager dm(std::make_unique<InMemoryDiskManager>(),
                               &plan);
  auto id = dm.Allocate();
  ASSERT_TRUE(id.ok());
  uint8_t page[kPageSize] = {};
  ASSERT_TRUE(dm.Write(*id, page).ok());

  uint8_t corrupt[kPageSize];
  ASSERT_TRUE(dm.Read(*id, corrupt).ok());
  int flipped_bits = 0;
  for (size_t i = 0; i < kPageSize; ++i) {
    flipped_bits += __builtin_popcount(corrupt[i]);
  }
  EXPECT_EQ(flipped_bits, 1);

  // The medium itself is untouched: a clean re-read sees zeros.
  uint8_t clean[kPageSize];
  ASSERT_TRUE(dm.Read(*id, clean).ok());
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(clean[i], 0);
}

TEST(FaultInjectingDiskManagerTest, BitFlipOnWriteCorruptsTheMedium) {
  FaultPlan plan(13);
  plan.FailNth(FaultOp::kDiskWrite, 1, FaultKind::kBitFlip);
  FaultInjectingDiskManager dm(std::make_unique<InMemoryDiskManager>(),
                               &plan);
  auto id = dm.Allocate();
  ASSERT_TRUE(id.ok());
  uint8_t page[kPageSize] = {};
  EXPECT_TRUE(dm.Write(*id, page).ok());  // reports success: silent fault
  uint8_t got[kPageSize];
  ASSERT_TRUE(dm.Read(*id, got).ok());
  int flipped_bits = 0;
  for (size_t i = 0; i < kPageSize; ++i) {
    flipped_bits += __builtin_popcount(got[i]);
  }
  EXPECT_EQ(flipped_bits, 1);
}

TEST(FaultInjectingDiskManagerTest, TornWritePersistsPrefixOnly) {
  FaultPlan plan(17);
  plan.FailNth(FaultOp::kDiskWrite, 2, FaultKind::kTornWrite);
  FaultInjectingDiskManager dm(std::make_unique<InMemoryDiskManager>(),
                               &plan);
  auto id = dm.Allocate();
  ASSERT_TRUE(id.ok());
  uint8_t old_page[kPageSize];
  std::memset(old_page, 0xAA, kPageSize);
  ASSERT_TRUE(dm.Write(*id, old_page).ok());

  uint8_t new_page[kPageSize];
  std::memset(new_page, 0x55, kPageSize);
  Status s = dm.Write(*id, new_page);
  EXPECT_TRUE(s.IsIoError());

  // The page must now be a prefix of the new contents followed by the old
  // tail — never interleaved garbage.
  uint8_t got[kPageSize];
  ASSERT_TRUE(dm.Read(*id, got).ok());
  size_t cut = 0;
  while (cut < kPageSize && got[cut] == 0x55) ++cut;
  for (size_t i = cut; i < kPageSize; ++i) {
    ASSERT_EQ(got[i], 0xAA) << "interleaved bytes at offset " << i;
  }
}

TEST(FaultInjectingDiskManagerTest, AllocateCanFail) {
  FaultPlan plan(19);
  plan.FailNth(FaultOp::kDiskAllocate, 1, FaultKind::kIoError);
  FaultInjectingDiskManager dm(std::make_unique<InMemoryDiskManager>(),
                               &plan);
  EXPECT_FALSE(dm.Allocate().ok());
  EXPECT_TRUE(dm.Allocate().ok());
}

TEST(FaultInjectionTest, FailedWalAppendLosesOnlyTheUnackedOp) {
  std::string dir = FreshDir("fault_injection_append");
  FaultPlan plan(23);
  plan.FailNth(FaultOp::kWalAppend, 3, FaultKind::kIoError);
  DurableTree::Options opts;
  opts.dir = dir;
  opts.checkpoint_wal_bytes = 0;
  opts.fault_plan = &plan;

  {
    auto tree = DurableTree::Open(opts);
    ASSERT_TRUE(tree.ok());
    EXPECT_TRUE((*tree)->Insert(1, Value64(10).data()).ok());
    EXPECT_TRUE((*tree)->Insert(2, Value64(20).data()).ok());
    // Applied to the in-memory tree but its WAL append fails: the caller
    // sees an error and must treat the op as not-durable.
    EXPECT_TRUE((*tree)->Insert(3, Value64(30).data()).IsIoError());
    EXPECT_TRUE((*tree)->Insert(4, Value64(40).data()).ok());
  }

  opts.fault_plan = nullptr;
  auto recovered = DurableTree::Open(opts);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE((*recovered)->tree().CheckInvariants().ok());
  EXPECT_TRUE(Contains(**recovered, 1));
  EXPECT_TRUE(Contains(**recovered, 2));
  EXPECT_FALSE(Contains(**recovered, 3));  // unacked: legitimately lost
  EXPECT_TRUE(Contains(**recovered, 4));   // acked after the fault: kept
}

TEST(FaultInjectionTest, SyncedWalAppendIoErrorLosesOnlyThatOp) {
  // fsync_each_append: an append that fails never reaches its sync, and
  // the appends around it are each synced and survive.
  std::string dir = FreshDir("fault_injection_synced_append");
  FaultPlan plan(31);
  plan.FailNth(FaultOp::kWalAppend, 3, FaultKind::kIoError);
  DurableTree::Options opts;
  opts.dir = dir;
  opts.checkpoint_wal_bytes = 0;
  opts.fsync_each_append = true;
  opts.fault_plan = &plan;

  {
    auto tree = DurableTree::Open(opts);
    ASSERT_TRUE(tree.ok());
    EXPECT_TRUE((*tree)->Insert(1, Value64(10).data()).ok());
    EXPECT_TRUE((*tree)->Insert(2, Value64(20).data()).ok());
    EXPECT_TRUE((*tree)->Insert(3, Value64(30).data()).IsIoError());
    EXPECT_TRUE((*tree)->Insert(4, Value64(40).data()).ok());
  }
  EXPECT_EQ(plan.ops_seen(FaultOp::kWalAppend), 4u);
  EXPECT_EQ(plan.ops_seen(FaultOp::kWalSync), 3u);

  opts.fault_plan = nullptr;
  auto recovered = DurableTree::Open(opts);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(Contains(**recovered, 1));
  EXPECT_TRUE(Contains(**recovered, 2));
  EXPECT_FALSE(Contains(**recovered, 3));  // unacked: legitimately lost
  EXPECT_TRUE(Contains(**recovered, 4));
  EXPECT_EQ((*recovered)->size(), 3u);
}

TEST(FaultInjectionTest, FailedWalSyncIsNotAcked) {
  // fsync_each_append: a failed sync reports the op as not durable.  Its
  // frame already reached the file, so the log is not cut back and later
  // appends land behind it; acknowledged ops all survive.
  std::string dir = FreshDir("fault_injection_sync");
  FaultPlan plan(37);
  plan.FailNth(FaultOp::kWalSync, 2, FaultKind::kIoError);
  DurableTree::Options opts;
  opts.dir = dir;
  opts.checkpoint_wal_bytes = 0;
  opts.fsync_each_append = true;
  opts.fault_plan = &plan;

  {
    auto tree = DurableTree::Open(opts);
    ASSERT_TRUE(tree.ok());
    EXPECT_TRUE((*tree)->Insert(1, Value64(10).data()).ok());
    Status s = (*tree)->Insert(2, Value64(20).data());
    EXPECT_TRUE(s.IsIoError()) << s.ToString();
    EXPECT_TRUE((*tree)->Insert(3, Value64(30).data()).ok());
  }
  EXPECT_EQ(plan.ops_seen(FaultOp::kWalSync), 3u);

  opts.fault_plan = nullptr;
  auto recovered = DurableTree::Open(opts);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE((*recovered)->tree().CheckInvariants().ok());
  EXPECT_TRUE(Contains(**recovered, 1));
  EXPECT_TRUE(Contains(**recovered, 2));  // unacked, but its frame stayed
  EXPECT_TRUE(Contains(**recovered, 3));
}

TEST(FaultInjectionTest, DiskFullWalAppendFailsStopWithoutCorruption) {
  std::string dir = FreshDir("fault_injection_enospc");
  FaultPlan plan(29);
  plan.FailNth(FaultOp::kWalAppend, 3, FaultKind::kDiskFull);
  DurableTree::Options opts;
  opts.dir = dir;
  opts.checkpoint_wal_bytes = 0;
  opts.fault_plan = &plan;

  {
    auto tree = DurableTree::Open(opts);
    ASSERT_TRUE(tree.ok());
    EXPECT_TRUE((*tree)->Insert(1, Value64(10).data()).ok());
    EXPECT_TRUE((*tree)->Insert(2, Value64(20).data()).ok());
    // ENOSPC: the append fails cleanly — error surfaced to the caller, no
    // partial frame written, the log still appendable once space returns.
    Status s = (*tree)->Insert(3, Value64(30).data());
    EXPECT_TRUE(s.IsIoError());
    EXPECT_NE(s.message().find("disk full"), std::string::npos)
        << s.ToString();
    EXPECT_TRUE((*tree)->Insert(4, Value64(40).data()).ok());
  }

  opts.fault_plan = nullptr;
  auto recovered = DurableTree::Open(opts);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE((*recovered)->tree().CheckInvariants().ok());
  EXPECT_TRUE(Contains(**recovered, 1));
  EXPECT_TRUE(Contains(**recovered, 2));
  EXPECT_FALSE(Contains(**recovered, 3));  // unacked: legitimately lost
  EXPECT_TRUE(Contains(**recovered, 4));
}

TEST(FaultInjectionTest, TornWalAppendDoesNotBlockLaterAppends) {
  // Regression for the torn-frame leak: a short WAL write used to leave a
  // partial frame in the file, and every append after it — though
  // acknowledged OK — was unreachable at replay.  The fix rolls the file
  // back to the pre-append offset.
  std::string dir = FreshDir("fault_injection_torn");
  FaultPlan plan(29);
  plan.FailNth(FaultOp::kWalAppend, 2, FaultKind::kTornWrite);
  DurableTree::Options opts;
  opts.dir = dir;
  opts.checkpoint_wal_bytes = 0;
  opts.fault_plan = &plan;

  {
    auto tree = DurableTree::Open(opts);
    ASSERT_TRUE(tree.ok());
    EXPECT_TRUE((*tree)->Insert(1, Value64(10).data()).ok());
    EXPECT_TRUE((*tree)->Insert(2, Value64(20).data()).IsIoError());
    EXPECT_TRUE((*tree)->Insert(3, Value64(30).data()).ok());
    EXPECT_TRUE((*tree)->Insert(4, Value64(40).data()).ok());
  }

  opts.fault_plan = nullptr;
  auto recovered = DurableTree::Open(opts);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(Contains(**recovered, 1));
  EXPECT_FALSE(Contains(**recovered, 2));
  EXPECT_TRUE(Contains(**recovered, 3));
  EXPECT_TRUE(Contains(**recovered, 4));
  EXPECT_EQ((*recovered)->size(), 3u);
}

TEST(FaultInjectionTest, ProbabilisticWalFaultsAreDeterministicInSeed) {
  auto survivors = [](uint64_t seed) {
    std::string dir =
        FreshDir("fault_injection_prob_" + std::to_string(seed));
    FaultPlan plan(seed);
    plan.FailWithProbability(FaultOp::kWalAppend, 0.2,
                             FaultKind::kIoError);
    DurableTree::Options opts;
    opts.dir = dir;
    opts.checkpoint_wal_bytes = 0;
    opts.fault_plan = &plan;
    std::vector<int64_t> acked;
    {
      auto tree = DurableTree::Open(opts);
      EXPECT_TRUE(tree.ok());
      for (int64_t k = 0; k < 100; ++k) {
        if ((*tree)->Insert(k, Value64(k).data()).ok()) acked.push_back(k);
      }
    }
    return acked;
  };
  auto a = survivors(77);
  auto b = survivors(77);
  EXPECT_EQ(a, b);
  EXPECT_LT(a.size(), 100u);  // some appends really failed
  EXPECT_GT(a.size(), 50u);
}

}  // namespace
}  // namespace prorp::faults
