#include "storage/disk_manager.h"

#include <cstring>

#include <gtest/gtest.h>

namespace prorp::storage {
namespace {

TEST(InMemoryDiskManagerTest, AllocateReadWrite) {
  InMemoryDiskManager disk;
  EXPECT_EQ(disk.num_pages(), 0u);
  auto id = disk.Allocate();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0u);
  EXPECT_EQ(disk.num_pages(), 1u);

  uint8_t out[kPageSize];
  std::memset(out, 0xCD, kPageSize);
  ASSERT_TRUE(disk.Write(*id, out).ok());
  uint8_t in[kPageSize] = {};
  ASSERT_TRUE(disk.Read(*id, in).ok());
  EXPECT_EQ(std::memcmp(in, out, kPageSize), 0);
}

TEST(InMemoryDiskManagerTest, FreshPageIsZeroed) {
  InMemoryDiskManager disk;
  auto id = disk.Allocate();
  ASSERT_TRUE(id.ok());
  uint8_t in[kPageSize];
  std::memset(in, 0xFF, kPageSize);
  ASSERT_TRUE(disk.Read(*id, in).ok());
  for (uint32_t i = 0; i < kPageSize; ++i) ASSERT_EQ(in[i], 0);
}

TEST(InMemoryDiskManagerTest, OutOfRangeAccess) {
  InMemoryDiskManager disk;
  uint8_t buf[kPageSize];
  EXPECT_EQ(disk.Read(0, buf).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(disk.Write(0, buf).code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace prorp::storage
