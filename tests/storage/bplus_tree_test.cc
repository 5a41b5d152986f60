#include "storage/bplus_tree.h"

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "golden_digest.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace prorp::storage {
namespace {

std::vector<uint8_t> Value64(int64_t v) {
  std::vector<uint8_t> out(8);
  std::memcpy(out.data(), &v, 8);
  return out;
}

int64_t AsI64(const std::vector<uint8_t>& v) {
  int64_t out;
  std::memcpy(&out, v.data(), 8);
  return out;
}

class BPlusTreeTest : public ::testing::Test {
 protected:
  void Make(uint32_t value_width = 8, size_t pool_pages = 64) {
    disk_ = std::make_unique<InMemoryDiskManager>();
    pool_ = std::make_unique<BufferPool>(disk_.get(), pool_pages);
    auto tree = BPlusTree::Create(pool_.get(), value_width);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    tree_ = std::move(tree).value();
  }

  /// Entries with lo <= key <= hi, counted through ScanRange.
  uint64_t Count(int64_t lo, int64_t hi) {
    uint64_t n = 0;
    EXPECT_TRUE(tree_->ScanRange(lo, hi, [&](int64_t, const uint8_t*) {
      ++n;
      return true;
    }).ok());
    return n;
  }

  std::unique_ptr<InMemoryDiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BPlusTree> tree_;
};

TEST_F(BPlusTreeTest, EmptyTree) {
  Make();
  EXPECT_TRUE(tree_->empty());
  EXPECT_EQ(tree_->size(), 0u);
  EXPECT_TRUE(tree_->Find(42).status().IsNotFound());
  EXPECT_TRUE(tree_->MinKey().status().IsNotFound());
  EXPECT_TRUE(tree_->CheckInvariants().ok());
}

TEST_F(BPlusTreeTest, InsertAndFind) {
  Make();
  ASSERT_TRUE(tree_->Insert(10, Value64(100).data()).ok());
  ASSERT_TRUE(tree_->Insert(5, Value64(50).data()).ok());
  ASSERT_TRUE(tree_->Insert(20, Value64(200).data()).ok());
  EXPECT_EQ(tree_->size(), 3u);
  auto v = tree_->Find(5);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(AsI64(*v), 50);
  EXPECT_TRUE(tree_->Find(6).status().IsNotFound());
  EXPECT_EQ(*tree_->MinKey(), 5);
}

TEST_F(BPlusTreeTest, DuplicateInsertRejected) {
  Make();
  ASSERT_TRUE(tree_->Insert(7, Value64(1).data()).ok());
  Status s = tree_->Insert(7, Value64(2).data());
  EXPECT_TRUE(s.IsAlreadyExists()) << s.ToString();
  EXPECT_EQ(tree_->size(), 1u);
  EXPECT_EQ(AsI64(*tree_->Find(7)), 1);
}

TEST_F(BPlusTreeTest, UpdateExisting) {
  Make();
  ASSERT_TRUE(tree_->Insert(7, Value64(1).data()).ok());
  ASSERT_TRUE(tree_->Update(7, Value64(99).data()).ok());
  EXPECT_EQ(AsI64(*tree_->Find(7)), 99);
  EXPECT_TRUE(tree_->Update(8, Value64(1).data()).IsNotFound());
}

TEST_F(BPlusTreeTest, DeleteSimple) {
  Make();
  for (int64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(tree_->Insert(k, Value64(k).data()).ok());
  }
  ASSERT_TRUE(tree_->Delete(5).ok());
  EXPECT_TRUE(tree_->Find(5).status().IsNotFound());
  EXPECT_EQ(tree_->size(), 9u);
  EXPECT_TRUE(tree_->Delete(5).IsNotFound());
  EXPECT_TRUE(tree_->CheckInvariants().ok());
}

TEST_F(BPlusTreeTest, SequentialInsertSplits) {
  Make();
  const int64_t n = 5000;  // forces multiple levels (leaf cap = 255)
  for (int64_t k = 0; k < n; ++k) {
    ASSERT_TRUE(tree_->Insert(k, Value64(k * 2).data()).ok()) << k;
  }
  EXPECT_EQ(tree_->size(), static_cast<uint64_t>(n));
  ASSERT_TRUE(tree_->CheckInvariants().ok());
  EXPECT_GE(*tree_->Height(), 2u);
  for (int64_t k = 0; k < n; k += 97) {
    auto v = tree_->Find(k);
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(AsI64(*v), k * 2);
  }
}

TEST_F(BPlusTreeTest, ReverseInsert) {
  Make();
  const int64_t n = 3000;
  for (int64_t k = n; k > 0; --k) {
    ASSERT_TRUE(tree_->Insert(k, Value64(k).data()).ok());
  }
  ASSERT_TRUE(tree_->CheckInvariants().ok());
  EXPECT_EQ(*tree_->MinKey(), 1);
  EXPECT_EQ(tree_->size(), static_cast<uint64_t>(n));
  EXPECT_TRUE(tree_->Contains(n));
}

TEST_F(BPlusTreeTest, ScanRangeInclusive) {
  Make();
  for (int64_t k = 0; k < 100; k += 2) {
    ASSERT_TRUE(tree_->Insert(k, Value64(k).data()).ok());
  }
  std::vector<int64_t> seen;
  ASSERT_TRUE(tree_->ScanRange(10, 20, [&](int64_t k, const uint8_t*) {
    seen.push_back(k);
    return true;
  }).ok());
  EXPECT_EQ(seen, (std::vector<int64_t>{10, 12, 14, 16, 18, 20}));
}

TEST_F(BPlusTreeTest, ScanRangeEarlyStop) {
  Make();
  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(tree_->Insert(k, Value64(k).data()).ok());
  }
  int count = 0;
  ASSERT_TRUE(tree_->ScanRange(0, 99, [&](int64_t, const uint8_t*) {
    return ++count < 5;
  }).ok());
  EXPECT_EQ(count, 5);
}

TEST_F(BPlusTreeTest, ScanEmptyRange) {
  Make();
  ASSERT_TRUE(tree_->Insert(10, Value64(1).data()).ok());
  int count = 0;
  ASSERT_TRUE(tree_->ScanRange(20, 30, [&](int64_t, const uint8_t*) {
    ++count;
    return true;
  }).ok());
  EXPECT_EQ(count, 0);
  // Inverted range is a no-op, not an error.
  ASSERT_TRUE(tree_->ScanRange(30, 20, [&](int64_t, const uint8_t*) {
    ++count;
    return true;
  }).ok());
  EXPECT_EQ(count, 0);
}

TEST_F(BPlusTreeTest, CountRange) {
  Make();
  for (int64_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE(tree_->Insert(k * 10, Value64(k).data()).ok());
  }
  EXPECT_EQ(Count(0, 9989), 999u);
  EXPECT_EQ(Count(0, 9990), 1000u);
  EXPECT_EQ(Count(5, 14), 1u);
  EXPECT_EQ(Count(10001, 20000), 0u);
}

TEST_F(BPlusTreeTest, DeleteRange) {
  Make();
  for (int64_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(tree_->Insert(k, Value64(k).data()).ok());
  }
  auto n = tree_->DeleteRange(500, 1499);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1000u);
  EXPECT_EQ(tree_->size(), 1000u);
  EXPECT_TRUE(tree_->Find(500).status().IsNotFound());
  EXPECT_TRUE(tree_->Find(1499).status().IsNotFound());
  EXPECT_TRUE(tree_->Find(499).ok());
  EXPECT_TRUE(tree_->Find(1500).ok());
  ASSERT_TRUE(tree_->CheckInvariants().ok());
}

TEST_F(BPlusTreeTest, DeleteAllShrinksTree) {
  Make();
  const int64_t n = 4000;
  for (int64_t k = 0; k < n; ++k) {
    ASSERT_TRUE(tree_->Insert(k, Value64(k).data()).ok());
  }
  EXPECT_GE(*tree_->Height(), 2u);
  for (int64_t k = 0; k < n; ++k) {
    ASSERT_TRUE(tree_->Delete(k).ok()) << k;
  }
  EXPECT_TRUE(tree_->empty());
  EXPECT_EQ(*tree_->Height(), 1u);
  ASSERT_TRUE(tree_->CheckInvariants().ok());
  // Freed pages must be reusable: reinsert everything.
  uint32_t pages_after_delete = disk_->num_pages();
  for (int64_t k = 0; k < n; ++k) {
    ASSERT_TRUE(tree_->Insert(k, Value64(k).data()).ok());
  }
  ASSERT_TRUE(tree_->CheckInvariants().ok());
  EXPECT_LE(disk_->num_pages(), pages_after_delete + 2);
}

TEST_F(BPlusTreeTest, NegativeAndExtremeKeys) {
  Make();
  std::vector<int64_t> keys = {INT64_MIN, -1000, -1, 0, 1, 1000,
                               INT64_MAX};
  for (int64_t k : keys) {
    ASSERT_TRUE(tree_->Insert(k, Value64(k ^ 0x55).data()).ok());
  }
  for (int64_t k : keys) {
    auto v = tree_->Find(k);
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(AsI64(*v), k ^ 0x55);
  }
  EXPECT_EQ(*tree_->MinKey(), INT64_MIN);
  std::vector<int64_t> scanned;
  ASSERT_TRUE(tree_->ScanRange(INT64_MIN, INT64_MAX,
                               [&](int64_t k, const uint8_t*) {
                                 scanned.push_back(k);
                                 return true;
                               })
                  .ok());
  EXPECT_EQ(scanned, keys);
}

TEST_F(BPlusTreeTest, WiderValues) {
  Make(/*value_width=*/64);
  std::vector<uint8_t> value(64);
  for (int64_t k = 0; k < 1000; ++k) {
    for (size_t i = 0; i < 64; ++i) {
      value[i] = static_cast<uint8_t>((k + i) & 0xFF);
    }
    ASSERT_TRUE(tree_->Insert(k, value.data()).ok());
  }
  ASSERT_TRUE(tree_->CheckInvariants().ok());
  auto v = tree_->Find(123);
  ASSERT_TRUE(v.ok());
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_EQ((*v)[i], static_cast<uint8_t>((123 + i) & 0xFF));
  }
}

TEST_F(BPlusTreeTest, ZeroWidthValues) {
  Make(/*value_width=*/0);
  for (int64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(tree_->Insert(k, nullptr).ok());
  }
  EXPECT_TRUE(tree_->Contains(250));
  EXPECT_FALSE(tree_->Contains(1000));
  ASSERT_TRUE(tree_->CheckInvariants().ok());
}

TEST_F(BPlusTreeTest, SmallBufferPoolStillCorrect) {
  // With only 8 frames, nearly every access evicts; correctness must not
  // depend on residency.
  Make(/*value_width=*/8, /*pool_pages=*/8);
  const int64_t n = 3000;
  for (int64_t k = 0; k < n; ++k) {
    ASSERT_TRUE(tree_->Insert((k * 7919) % 100000, Value64(k).data()).ok());
  }
  ASSERT_TRUE(tree_->CheckInvariants().ok());
  EXPECT_GT(pool_->stats().evictions, 0u);
}

TEST_F(BPlusTreeTest, CreateRequiresEmptyStore) {
  Make();
  auto second = BPlusTree::Create(pool_.get(), 8);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(BPlusTreeTest, MetaPageLayoutIsStable) {
  // Page 0: uint32 magic "PRPB", format 2, value width, root, free-list
  // head, then the uint64 entry count.  No tree is reopened from it, but
  // the page format stays byte-identical.
  Make(/*value_width=*/12);
  std::vector<uint8_t> value(12, 0);
  for (int64_t k = 0; k < 5; ++k) {
    ASSERT_TRUE(tree_->Insert(k, value.data()).ok());
  }
  auto meta = pool_->Fetch(0);
  ASSERT_TRUE(meta.ok());
  uint32_t words[5];
  uint64_t entries;
  std::memcpy(words, meta->data(), sizeof(words));
  std::memcpy(&entries, meta->data() + sizeof(words), sizeof(entries));
  EXPECT_EQ(words[0], 0x50525042u);
  EXPECT_EQ(words[1], 2u);
  EXPECT_EQ(words[2], 12u);
  EXPECT_EQ(entries, 5u);
}

// Grows a tree of four-entry leaves to height 3, then deletes every key in
// a fresh shuffle.  Internal nodes hold 339 keys, so the drain underfills
// internal nodes as well as leaves: it is the workload here that runs the
// internal-node borrow-left, borrow-right and merge steps.  The digest folds
// every page image (checksum, free pages and stale bytes included) at each
// checkpoint, so a rebalance that moves any byte differently changes it.
TEST_F(BPlusTreeTest, GrowThenDrainPinsPageImages) {
  constexpr uint32_t kWidth = 1000;
  Make(kWidth, /*pool_pages=*/16);
  ASSERT_EQ(tree_->leaf_capacity(), 4u);
  ASSERT_EQ(tree_->internal_capacity(), 339u);
  std::vector<int64_t> keys(8000);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<int64_t>(i) * 3;
  }
  Rng rng(2024);
  auto shuffle = [&] {
    for (size_t i = keys.size() - 1; i > 0; --i) {
      std::swap(keys[i], keys[rng.NextBelow(i + 1)]);
    }
  };
  auto value_of = [&](int64_t k) {
    std::vector<uint8_t> v(kWidth);
    for (uint32_t i = 0; i < kWidth; ++i) {
      v[i] = static_cast<uint8_t>((k * 31 + i) & 0xFF);
    }
    return v;
  };
  golden::Fnv1a digest;
  auto checkpoint = [&] {
    Status check = tree_->CheckInvariants();
    EXPECT_TRUE(check.ok()) << check.ToString();
    EXPECT_TRUE(pool_->FlushAll().ok());
    std::string image(kPageSize, '\0');
    for (PageId id = 0; id < disk_->num_pages(); ++id) {
      EXPECT_TRUE(
          disk_->Read(id, reinterpret_cast<uint8_t*>(image.data())).ok());
      digest.AddBytes(image);
    }
  };

  shuffle();
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(tree_->Insert(keys[i], value_of(keys[i]).data()).ok());
    if ((i + 1) % 2000 == 0) checkpoint();
  }
  EXPECT_EQ(*tree_->Height(), 3u);
  for (int64_t k : {int64_t{0}, int64_t{4242}, int64_t{23997}}) {
    auto v = tree_->Find(k);
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(*v, value_of(k));
  }

  shuffle();
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(tree_->Delete(keys[i]).ok()) << keys[i];
    if ((i + 1) % 2000 == 0 || i + 1 == 7990) checkpoint();
  }
  EXPECT_TRUE(tree_->empty());
  EXPECT_EQ(*tree_->Height(), 1u);
  EXPECT_EQ(digest.value(), 0x26c20db4222eee78ULL);
}

// Randomized differential test against std::map across mixed operations.
class BPlusTreeFuzzTest : public BPlusTreeTest,
                          public ::testing::WithParamInterface<uint64_t> {};

TEST_P(BPlusTreeFuzzTest, MatchesReferenceModel) {
  Make(/*value_width=*/8, /*pool_pages=*/32);
  Rng rng(GetParam());
  std::map<int64_t, int64_t> model;
  const int kOps = 20000;
  for (int op = 0; op < kOps; ++op) {
    int64_t key = rng.NextInt(0, 3000);
    double dice = rng.NextDouble();
    if (dice < 0.55) {
      int64_t value = rng.NextInt(0, 1'000'000);
      Status s = tree_->Insert(key, Value64(value).data());
      if (model.count(key)) {
        EXPECT_TRUE(s.IsAlreadyExists());
      } else {
        EXPECT_TRUE(s.ok()) << s.ToString();
        model[key] = value;
      }
    } else if (dice < 0.85) {
      Status s = tree_->Delete(key);
      if (model.count(key)) {
        EXPECT_TRUE(s.ok()) << s.ToString();
        model.erase(key);
      } else {
        EXPECT_TRUE(s.IsNotFound());
      }
    } else if (dice < 0.95) {
      auto v = tree_->Find(key);
      if (model.count(key)) {
        ASSERT_TRUE(v.ok());
        EXPECT_EQ(AsI64(*v), model[key]);
      } else {
        EXPECT_TRUE(v.status().IsNotFound());
      }
    } else {
      int64_t lo = rng.NextInt(0, 3000);
      int64_t hi = lo + rng.NextInt(0, 200);
      std::vector<int64_t> got;
      ASSERT_TRUE(tree_->ScanRange(lo, hi, [&](int64_t k, const uint8_t*) {
        got.push_back(k);
        return true;
      }).ok());
      std::vector<int64_t> expect;
      for (auto it = model.lower_bound(lo);
           it != model.end() && it->first <= hi; ++it) {
        expect.push_back(it->first);
      }
      EXPECT_EQ(got, expect);
    }
  }
  EXPECT_EQ(tree_->size(), model.size());
  ASSERT_TRUE(tree_->CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BPlusTreeFuzzTest,
                         ::testing::Values(1, 2, 3, 42, 20240609));

// Range deletion property sweep: delete random ranges until empty and keep
// invariants at every step.
class BPlusTreeRangeDeleteTest
    : public BPlusTreeTest,
      public ::testing::WithParamInterface<uint64_t> {};

TEST_P(BPlusTreeRangeDeleteTest, RepeatedRangeDeletes) {
  Make();
  Rng rng(GetParam());
  std::map<int64_t, int64_t> model;
  for (int i = 0; i < 5000; ++i) {
    int64_t key = rng.NextInt(0, 100000);
    if (tree_->Insert(key, Value64(key).data()).ok()) model[key] = key;
  }
  while (!model.empty()) {
    int64_t lo = rng.NextInt(0, 100000);
    int64_t hi = lo + rng.NextInt(0, 20000);
    auto n = tree_->DeleteRange(lo, hi);
    ASSERT_TRUE(n.ok());
    uint64_t expect = 0;
    for (auto it = model.lower_bound(lo);
         it != model.end() && it->first <= hi;) {
      it = model.erase(it);
      ++expect;
    }
    EXPECT_EQ(*n, expect);
    ASSERT_TRUE(tree_->CheckInvariants().ok());
    // Guarantee termination.
    if (expect == 0 && !model.empty()) {
      int64_t k = model.begin()->first;
      ASSERT_TRUE(tree_->Delete(k).ok());
      model.erase(k);
    }
  }
  EXPECT_TRUE(tree_->empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BPlusTreeRangeDeleteTest,
                         ::testing::Values(7, 1234));

}  // namespace
}  // namespace prorp::storage
