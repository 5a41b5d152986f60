// Scrubber property tests: every single-bit flip in a page header and a
// sample of payload bits must be flagged against exactly the corrupted
// page, and a scrub of the restored image must report no errors.

#include "storage/scrubber.h"

#include <cstring>

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/bplus_tree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace prorp::storage {
namespace {

std::vector<uint8_t> Value64(int64_t v) {
  std::vector<uint8_t> out(8);
  std::memcpy(out.data(), &v, 8);
  return out;
}

/// Builds a multi-page sealed tree image in `disk` and returns the number
/// of entries inserted.
uint64_t BuildSealedTree(InMemoryDiskManager* disk, uint64_t entries) {
  BufferPool pool(disk, 128);
  auto tree = BPlusTree::Create(&pool, 8);
  EXPECT_TRUE(tree.ok());
  for (uint64_t i = 0; i < entries; ++i) {
    EXPECT_TRUE(
        (*tree)->Insert(static_cast<int64_t>(i), Value64(i * 7).data()).ok());
  }
  EXPECT_TRUE(pool.FlushAll().ok());
  return entries;
}

TEST(ScrubberTest, CleanTreeScrubsClean) {
  InMemoryDiskManager disk;
  BuildSealedTree(&disk, 600);
  ASSERT_GT(disk.num_pages(), 3u) << "tree should span several pages";

  auto report = ScrubPages(&disk);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->ToString();
  EXPECT_EQ(report->pages_scanned, disk.num_pages());
  EXPECT_EQ(report->checksum_errors, 0u);
  EXPECT_EQ(report->page_id_errors, 0u);
}

TEST(ScrubberTest, ScrubTreeChecksStructureToo) {
  InMemoryDiskManager disk;
  BufferPool pool(&disk, 128);
  auto tree = BPlusTree::Create(&pool, 8);
  ASSERT_TRUE(tree.ok());
  for (int64_t k = 0; k < 600; ++k) {
    ASSERT_TRUE((*tree)->Insert(k, Value64(k * 7).data()).ok());
  }
  ASSERT_GT(disk.num_pages(), 3u) << "tree should span several pages";
  auto report = ScrubTree(&pool, tree->get());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->ToString();
  EXPECT_EQ(report->structural_errors, 0u);
}

TEST(ScrubberTest, UnwrittenPageIsNotAnError) {
  InMemoryDiskManager disk;
  BuildSealedTree(&disk, 100);
  // Allocate a page that is never written back: all-zero on "disk".
  auto extra = disk.Allocate();
  ASSERT_TRUE(extra.ok());
  auto report = ScrubPages(&disk);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->ToString();
  EXPECT_GE(report->pages_unwritten, 1u);
}

/// Satellite property: every bit of one page's 16-byte integrity header,
/// flipped one at a time, is detected and attributed to exactly that page.
TEST(ScrubberTest, EveryHeaderBitFlipIsDetectedExactly) {
  InMemoryDiskManager disk;
  BuildSealedTree(&disk, 600);
  const PageId target = 1;  // the first node page

  uint8_t orig[kPageSize];
  uint8_t flipped[kPageSize];
  ASSERT_TRUE(disk.Read(target, orig).ok());

  for (uint64_t bit = 0; bit < kPageHeaderSize * 8; ++bit) {
    std::memcpy(flipped, orig, kPageSize);
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    ASSERT_TRUE(disk.Write(target, flipped).ok());

    auto report = ScrubPages(&disk);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->errors(), 1u) << "header bit " << bit;
    ASSERT_EQ(report->issues.size(), 1u) << "header bit " << bit;
    EXPECT_EQ(report->issues[0].page_id, target) << "header bit " << bit;

    // The buffer pool independently refuses the page.
    BufferPool probe(&disk, 4);
    auto guard = probe.Fetch(target);
    EXPECT_FALSE(guard.ok()) << "header bit " << bit;
    EXPECT_TRUE(guard.status().IsCorruption()) << "header bit " << bit;

    ASSERT_TRUE(disk.Write(target, orig).ok());
  }
  // No false positives on the restored image.
  auto report = ScrubPages(&disk);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->ToString();
}

/// Satellite property: sampled payload-bit flips across several seeds are
/// each detected against exactly the corrupted page, with no false
/// positives once restored.
TEST(ScrubberTest, SampledPayloadBitFlipsAreDetectedAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    InMemoryDiskManager disk;
    BuildSealedTree(&disk, 600);
    Rng rng(seed);
    const PageId target =
        static_cast<PageId>(rng.NextBelow(disk.num_pages()));

    uint8_t orig[kPageSize];
    uint8_t flipped[kPageSize];
    ASSERT_TRUE(disk.Read(target, orig).ok());

    for (int i = 0; i < 32; ++i) {
      uint64_t bit = kPageHeaderSize * 8 +
                     rng.NextBelow((kPageSize - kPageHeaderSize) * 8);
      std::memcpy(flipped, orig, kPageSize);
      flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      ASSERT_TRUE(disk.Write(target, flipped).ok());

      auto report = ScrubPages(&disk);
      ASSERT_TRUE(report.ok());
      EXPECT_EQ(report->errors(), 1u)
          << "seed " << seed << " page " << target << " bit " << bit;
      ASSERT_EQ(report->issues.size(), 1u);
      EXPECT_EQ(report->issues[0].page_id, target)
          << "seed " << seed << " bit " << bit;

      ASSERT_TRUE(disk.Write(target, orig).ok());
    }
    auto report = ScrubPages(&disk);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->clean())
        << "seed " << seed << ": " << report->ToString();
  }
}

/// Misdirected writes (a valid page image landing at the wrong offset)
/// are caught by the page-id self-reference, not the checksum.
TEST(ScrubberTest, MisdirectedPageImageIsFlagged) {
  InMemoryDiskManager disk;
  BuildSealedTree(&disk, 600);
  ASSERT_GT(disk.num_pages(), 2u);

  uint8_t page1[kPageSize];
  ASSERT_TRUE(disk.Read(1, page1).ok());
  ASSERT_TRUE(disk.Write(2, page1).ok());  // page 1's image lands on page 2

  auto report = ScrubPages(&disk);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->page_id_errors, 1u) << report->ToString();
  ASSERT_GE(report->issues.size(), 1u);
  EXPECT_EQ(report->issues[0].page_id, 2u);
}

TEST(ScrubberTest, IssueListIsCappedButCountersAreNot) {
  InMemoryDiskManager disk;
  BuildSealedTree(&disk, 8000);  // enough pages to exceed the issue cap
  ASSERT_GT(disk.num_pages(), kMaxScrubIssues + 2);

  uint8_t raw[kPageSize];
  for (PageId p = 0; p < disk.num_pages(); ++p) {
    ASSERT_TRUE(disk.Read(p, raw).ok());
    raw[kPageHeaderSize + 1] ^= 0x10;
    ASSERT_TRUE(disk.Write(p, raw).ok());
  }
  auto report = ScrubPages(&disk);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->checksum_errors, disk.num_pages());
  EXPECT_EQ(report->issues.size(), kMaxScrubIssues);
}

}  // namespace
}  // namespace prorp::storage
