#ifndef PRORP_STORAGE_BPLUS_TREE_H_
#define PRORP_STORAGE_BPLUS_TREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace prorp::storage {

/// A clustered B+tree over 64-bit integer keys with fixed-width opaque
/// values, stored in 4 KiB pages managed by a BufferPool.
///
/// This is the index structure backing sys.pause_resume_history: the paper
/// requires a clustered B-tree index on the time_snapshot column so that
/// point lookups and inserts are O(log n) and the range queries of
/// Algorithms 3 and 4 are O(log n + m) (Section 5, "Complexity Analysis").
///
/// Keys are unique (the history table enforces unique timestamps).  Values
/// are `value_width` bytes; the SQL layer packs non-key columns into them.
///
/// Node layouts live inside the buffer pool's usable payload: every page
/// loses kPageHeaderSize bytes to the integrity header.  The meta page
/// carries a magic number and a format version.  The tree is only ever
/// created, never reopened from a page image: the page store under it is
/// ephemeral, and durability comes from the WAL and snapshots above it.
///
/// Single-writer; not internally synchronized.
class BPlusTree {
 public:
  /// Callback for range scans.  Return false to stop the scan early.
  using ScanCallback =
      std::function<bool(int64_t key, const uint8_t* value)>;

  /// Creates a fresh tree in `pool`'s backing store.  The first page
  /// allocated becomes the tree's meta page; `Create` requires an empty
  /// backing store (page 0 not yet allocated).
  static Result<std::unique_ptr<BPlusTree>> Create(BufferPool* pool,
                                                   uint32_t value_width);

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  /// Inserts a unique key.  Returns AlreadyExists if the key is present.
  Status Insert(int64_t key, const uint8_t* value);

  /// Overwrites the value of an existing key.  NotFound if absent.
  Status Update(int64_t key, const uint8_t* value);

  /// Point lookup.  NotFound if absent.
  Result<std::vector<uint8_t>> Find(int64_t key) const;

  bool Contains(int64_t key) const { return Find(key).ok(); }

  /// Removes a key.  NotFound if absent.
  Status Delete(int64_t key);

  /// Visits all entries with lo <= key <= hi in ascending key order.
  Status ScanRange(int64_t lo, int64_t hi, const ScanCallback& cb) const;

  /// Deletes all entries with lo <= key <= hi; returns how many.
  Result<uint64_t> DeleteRange(int64_t lo, int64_t hi);

  /// Smallest key.  NotFound when the tree is empty.
  Result<int64_t> MinKey() const;

  uint64_t size() const { return num_entries_; }
  bool empty() const { return num_entries_ == 0; }
  uint32_t value_width() const { return value_width_; }

  /// Depth of the tree (1 = root is a leaf).
  Result<uint32_t> Height() const;

  /// Exhaustively validates structural invariants: uniform depth, sorted
  /// unique keys, separator bounds, minimum fill of non-root nodes, and a
  /// sorted leaf chain.  Used by property tests.
  Status CheckInvariants() const;

  /// Maximum number of entries a leaf holds (depends on value_width).
  uint32_t leaf_capacity() const { return leaf_capacity_; }
  /// Maximum number of keys an internal node holds.
  uint32_t internal_capacity() const { return internal_capacity_; }

 private:
  struct SplitResult {
    bool did_split = false;
    int64_t separator = 0;
    PageId new_page = kInvalidPageId;
  };

  BPlusTree(BufferPool* pool, uint32_t value_width);

  Status StoreMeta();

  Result<PageId> AllocNodePage();
  Status FreeNodePage(PageId id);

  Result<SplitResult> InsertRec(PageId node_id, int64_t key,
                                const uint8_t* value);
  Status DeleteRec(PageId node_id, int64_t key);
  Status RebalanceChild(uint8_t* parent, uint32_t child_index);

  /// Finds the leaf that would contain `key`; returns its page id.
  Result<PageId> FindLeaf(int64_t key) const;

  Status CheckSubtree(PageId node_id, uint32_t depth, uint32_t expect_depth,
                      bool is_root, int64_t lower, bool has_lower,
                      int64_t upper, bool has_upper,
                      uint64_t* entries) const;

  BufferPool* pool_;
  uint32_t value_width_;
  uint32_t leaf_capacity_ = 0;
  uint32_t internal_capacity_ = 0;
  PageId root_ = kInvalidPageId;
  PageId free_list_head_ = kInvalidPageId;
  uint64_t num_entries_ = 0;
};

}  // namespace prorp::storage

#endif  // PRORP_STORAGE_BPLUS_TREE_H_
