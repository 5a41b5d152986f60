#include "storage/bplus_tree.h"

#include <cassert>
#include <cstring>

#include "faults/crash_points.h"

namespace prorp::storage {
namespace {

// On-page node layout (little-endian, raw byte access, offsets within the
// buffer pool's usable payload — checksummed pages prepend an integrity
// header below this layer, see storage/page.h):
//   offset 0: uint16 type   (0 = free, 1 = leaf, 2 = internal)
//   offset 2: uint16 count  (leaf: entries; internal: keys)
//   offset 4: uint32 next   (leaf: next leaf page; free: next free page)
//   offset 8: payload
// Leaf payload:     int64 keys[leaf_cap]; uint8 values[leaf_cap][vw]
// Internal payload: int64 keys[int_cap];  uint32 children[int_cap + 1]
//
// Meta page (page 0):
//   uint32 magic; uint32 version (= 2); uint32 value_width; uint32 root;
//   uint32 free_head; uint64 num_entries

constexpr uint32_t kMagic = 0x50525042;  // "PRPB"
constexpr uint32_t kFormatV2 = 2;
constexpr uint16_t kTypeFree = 0;
constexpr uint16_t kTypeLeaf = 1;
constexpr uint16_t kTypeInternal = 2;
constexpr uint32_t kHeaderSize = 8;

template <typename T>
T Load(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void Store(uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

uint16_t NodeType(const uint8_t* p) { return Load<uint16_t>(p); }
void SetNodeType(uint8_t* p, uint16_t t) { Store<uint16_t>(p, t); }
uint16_t NodeCount(const uint8_t* p) { return Load<uint16_t>(p + 2); }
void SetNodeCount(uint8_t* p, uint16_t c) { Store<uint16_t>(p + 2, c); }
PageId NodeNext(const uint8_t* p) { return Load<uint32_t>(p + 4); }
void SetNodeNext(uint8_t* p, PageId n) { Store<uint32_t>(p + 4, n); }

/// Accessors over a leaf page image.
struct LeafView {
  uint8_t* p;
  uint32_t cap;
  uint32_t vw;

  uint16_t count() const { return NodeCount(p); }
  void set_count(uint16_t c) { SetNodeCount(p, c); }
  PageId next() const { return NodeNext(p); }
  void set_next(PageId n) { SetNodeNext(p, n); }

  int64_t key(uint32_t i) const {
    return Load<int64_t>(p + kHeaderSize + i * 8);
  }
  void set_key(uint32_t i, int64_t k) {
    Store<int64_t>(p + kHeaderSize + i * 8, k);
  }
  uint8_t* value(uint32_t i) const {
    return p + kHeaderSize + cap * 8 + i * vw;
  }

  /// First index with key(i) >= k; count() if none.
  uint32_t LowerBound(int64_t k) const {
    uint32_t lo = 0, hi = count();
    while (lo < hi) {
      uint32_t mid = (lo + hi) / 2;
      if (key(mid) < k) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  void InsertAt(uint32_t pos, int64_t k, const uint8_t* v) {
    uint32_t n = count();
    std::memmove(p + kHeaderSize + (pos + 1) * 8, p + kHeaderSize + pos * 8,
                 (n - pos) * 8);
    if (vw > 0) {
      std::memmove(value(pos + 1), value(pos), (n - pos) * vw);
      std::memcpy(value(pos), v, vw);
    }
    set_key(pos, k);
    set_count(static_cast<uint16_t>(n + 1));
  }

  void RemoveAt(uint32_t pos) {
    uint32_t n = count();
    std::memmove(p + kHeaderSize + pos * 8, p + kHeaderSize + (pos + 1) * 8,
                 (n - pos - 1) * 8);
    if (vw > 0) {
      std::memmove(value(pos), value(pos + 1), (n - pos - 1) * vw);
    }
    set_count(static_cast<uint16_t>(n - 1));
  }
};

/// Accessors over an internal-node page image.
struct InternalView {
  uint8_t* p;
  uint32_t cap;

  uint16_t count() const { return NodeCount(p); }
  void set_count(uint16_t c) { SetNodeCount(p, c); }

  int64_t key(uint32_t i) const {
    return Load<int64_t>(p + kHeaderSize + i * 8);
  }
  void set_key(uint32_t i, int64_t k) {
    Store<int64_t>(p + kHeaderSize + i * 8, k);
  }
  PageId child(uint32_t i) const {
    return Load<uint32_t>(p + kHeaderSize + cap * 8 + i * 4);
  }
  void set_child(uint32_t i, PageId c) {
    Store<uint32_t>(p + kHeaderSize + cap * 8 + i * 4, c);
  }

  /// Index of the child subtree that would contain `k`: the number of keys
  /// <= k (separator keys are minimums of their right subtrees).
  uint32_t ChildIndexFor(int64_t k) const {
    uint32_t lo = 0, hi = count();
    while (lo < hi) {
      uint32_t mid = (lo + hi) / 2;
      if (key(mid) <= k) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Inserts separator `k` at key index `pos` with `new_child` becoming
  /// children[pos + 1].
  void InsertAt(uint32_t pos, int64_t k, PageId new_child) {
    uint32_t n = count();
    std::memmove(p + kHeaderSize + (pos + 1) * 8, p + kHeaderSize + pos * 8,
                 (n - pos) * 8);
    uint8_t* children = p + kHeaderSize + cap * 8;
    std::memmove(children + (pos + 2) * 4, children + (pos + 1) * 4,
                 (n - pos) * 4);
    set_key(pos, k);
    set_child(pos + 1, new_child);
    set_count(static_cast<uint16_t>(n + 1));
  }

  /// Removes separator key `pos` and child pointer `pos + 1`.
  void RemoveAt(uint32_t pos) {
    uint32_t n = count();
    std::memmove(p + kHeaderSize + pos * 8, p + kHeaderSize + (pos + 1) * 8,
                 (n - pos - 1) * 8);
    uint8_t* children = p + kHeaderSize + cap * 8;
    std::memmove(children + (pos + 1) * 4, children + (pos + 2) * 4,
                 (n - pos - 1) * 4);
    set_count(static_cast<uint16_t>(n - 1));
  }
};

}  // namespace

BPlusTree::BPlusTree(BufferPool* pool, uint32_t value_width)
    : pool_(pool), value_width_(value_width) {
  uint32_t usable = pool->usable_size();
  leaf_capacity_ = (usable - kHeaderSize) / (8 + value_width);
  internal_capacity_ = (usable - kHeaderSize - 4) / 12;
}

Result<std::unique_ptr<BPlusTree>> BPlusTree::Create(BufferPool* pool,
                                                     uint32_t value_width) {
  if (value_width > pool->usable_size() / 4) {
    return Status::InvalidArgument("value_width too large for page size");
  }
  if (pool->disk()->num_pages() != 0) {
    return Status::FailedPrecondition(
        "BPlusTree::Create requires an empty backing store");
  }
  std::unique_ptr<BPlusTree> tree(new BPlusTree(pool, value_width));
  if (tree->leaf_capacity_ < 4 || tree->internal_capacity_ < 4) {
    return Status::InvalidArgument("value_width leaves node capacity < 4");
  }
  PRORP_ASSIGN_OR_RETURN(PageGuard meta, pool->New());
  if (meta.id() != 0) {
    return Status::Internal("meta page must be page 0");
  }
  PRORP_ASSIGN_OR_RETURN(PageGuard root, pool->New());
  uint8_t* rp = root.mutable_data();
  SetNodeType(rp, kTypeLeaf);
  SetNodeCount(rp, 0);
  SetNodeNext(rp, kInvalidPageId);
  tree->root_ = root.id();
  tree->free_list_head_ = kInvalidPageId;
  tree->num_entries_ = 0;
  meta.MarkDirty();
  meta.Release();
  PRORP_RETURN_IF_ERROR(tree->StoreMeta());
  return tree;
}

Status BPlusTree::StoreMeta() {
  PRORP_ASSIGN_OR_RETURN(PageGuard meta, pool_->Fetch(0));
  uint8_t* mp = meta.mutable_data();
  Store<uint32_t>(mp, kMagic);
  Store<uint32_t>(mp + 4, kFormatV2);
  Store<uint32_t>(mp + 8, value_width_);
  Store<uint32_t>(mp + 12, root_);
  Store<uint32_t>(mp + 16, free_list_head_);
  Store<uint64_t>(mp + 20, num_entries_);
  return Status::OK();
}

Result<PageId> BPlusTree::AllocNodePage() {
  if (free_list_head_ != kInvalidPageId) {
    PageId id = free_list_head_;
    PRORP_ASSIGN_OR_RETURN(PageGuard page, pool_->Fetch(id));
    free_list_head_ = NodeNext(page.data());
    return id;
  }
  PRORP_ASSIGN_OR_RETURN(PageGuard page, pool_->New());
  return page.id();
}

Status BPlusTree::FreeNodePage(PageId id) {
  PRORP_ASSIGN_OR_RETURN(PageGuard page, pool_->Fetch(id));
  uint8_t* p = page.mutable_data();
  SetNodeType(p, kTypeFree);
  SetNodeCount(p, 0);
  SetNodeNext(p, free_list_head_);
  free_list_head_ = id;
  return Status::OK();
}

Result<PageId> BPlusTree::FindLeaf(int64_t key) const {
  PageId cur = root_;
  for (;;) {
    PRORP_ASSIGN_OR_RETURN(PageGuard page, pool_->Fetch(cur));
    const uint8_t* p = page.data();
    if (NodeType(p) == kTypeLeaf) return cur;
    if (NodeType(p) != kTypeInternal) {
      return Status::Corruption("unexpected node type in descent");
    }
    InternalView node{const_cast<uint8_t*>(p), internal_capacity_};
    cur = node.child(node.ChildIndexFor(key));
  }
}

Result<std::vector<uint8_t>> BPlusTree::Find(int64_t key) const {
  PRORP_ASSIGN_OR_RETURN(PageId leaf_id, FindLeaf(key));
  PRORP_ASSIGN_OR_RETURN(PageGuard page, pool_->Fetch(leaf_id));
  LeafView leaf{const_cast<uint8_t*>(page.data()), leaf_capacity_,
                value_width_};
  uint32_t pos = leaf.LowerBound(key);
  if (pos >= leaf.count() || leaf.key(pos) != key) {
    return Status::NotFound("key not found");
  }
  return std::vector<uint8_t>(leaf.value(pos), leaf.value(pos) + value_width_);
}

Status BPlusTree::Update(int64_t key, const uint8_t* value) {
  PRORP_ASSIGN_OR_RETURN(PageId leaf_id, FindLeaf(key));
  PRORP_ASSIGN_OR_RETURN(PageGuard page, pool_->Fetch(leaf_id));
  LeafView leaf{page.mutable_data(), leaf_capacity_, value_width_};
  uint32_t pos = leaf.LowerBound(key);
  if (pos >= leaf.count() || leaf.key(pos) != key) {
    return Status::NotFound("key not found");
  }
  if (value_width_ > 0) std::memcpy(leaf.value(pos), value, value_width_);
  return Status::OK();
}

Status BPlusTree::Insert(int64_t key, const uint8_t* value) {
  PRORP_ASSIGN_OR_RETURN(SplitResult split, InsertRec(root_, key, value));
  if (split.did_split) {
    // Grow a new root.
    PRORP_ASSIGN_OR_RETURN(PageId new_root_id, AllocNodePage());
    PRORP_ASSIGN_OR_RETURN(PageGuard page, pool_->Fetch(new_root_id));
    uint8_t* p = page.mutable_data();
    SetNodeType(p, kTypeInternal);
    SetNodeCount(p, 1);
    SetNodeNext(p, kInvalidPageId);
    InternalView node{p, internal_capacity_};
    node.set_key(0, split.separator);
    node.set_child(0, root_);
    node.set_child(1, split.new_page);
    root_ = new_root_id;
  }
  ++num_entries_;
  return StoreMeta();
}

Result<BPlusTree::SplitResult> BPlusTree::InsertRec(PageId node_id,
                                                    int64_t key,
                                                    const uint8_t* value) {
  PRORP_ASSIGN_OR_RETURN(PageGuard page, pool_->Fetch(node_id));
  uint8_t* p = const_cast<uint8_t*>(page.data());

  if (NodeType(p) == kTypeLeaf) {
    LeafView leaf{p, leaf_capacity_, value_width_};
    uint32_t pos = leaf.LowerBound(key);
    if (pos < leaf.count() && leaf.key(pos) == key) {
      return Status::AlreadyExists("duplicate key");
    }
    if (leaf.count() < leaf_capacity_) {
      page.MarkDirty();
      leaf.InsertAt(pos, key, value);
      return SplitResult{};
    }
    // Split the full leaf, then insert into the proper half.
    PRORP_ASSIGN_OR_RETURN(PageId right_id, AllocNodePage());
    // Crash simulation: die with the right sibling allocated but not yet
    // linked — the most state-scattered instant of a leaf split.  The
    // mutation never reaches the WAL (apply-then-log), so recovery must
    // reconstruct a tree without it.
    PRORP_CRASH_POINT(faults::kBtreeMidSplit);
    PRORP_ASSIGN_OR_RETURN(PageGuard right_page, pool_->Fetch(right_id));
    uint8_t* rp = right_page.mutable_data();
    SetNodeType(rp, kTypeLeaf);
    SetNodeCount(rp, 0);
    LeafView right{rp, leaf_capacity_, value_width_};
    uint32_t left_count = (leaf_capacity_ + 1) / 2;
    uint32_t move = leaf_capacity_ - left_count;
    std::memcpy(rp + kHeaderSize, p + kHeaderSize + left_count * 8,
                move * 8);
    if (value_width_ > 0) {
      std::memcpy(right.value(0), leaf.value(left_count),
                  move * value_width_);
    }
    right.set_count(static_cast<uint16_t>(move));
    page.MarkDirty();
    leaf.set_count(static_cast<uint16_t>(left_count));
    right.set_next(leaf.next());
    leaf.set_next(right_id);
    if (key < right.key(0)) {
      leaf.InsertAt(leaf.LowerBound(key), key, value);
    } else {
      right.InsertAt(right.LowerBound(key), key, value);
    }
    SplitResult r;
    r.did_split = true;
    r.separator = right.key(0);
    r.new_page = right_id;
    return r;
  }

  if (NodeType(p) != kTypeInternal) {
    return Status::Corruption("unexpected node type during insert");
  }
  InternalView node{p, internal_capacity_};
  uint32_t ci = node.ChildIndexFor(key);
  PageId child_id = node.child(ci);
  // Release before recursing to keep the pinned set small.
  page.Release();
  PRORP_ASSIGN_OR_RETURN(SplitResult child_split,
                         InsertRec(child_id, key, value));
  if (!child_split.did_split) return SplitResult{};

  PRORP_ASSIGN_OR_RETURN(PageGuard page2, pool_->Fetch(node_id));
  uint8_t* p2 = page2.mutable_data();
  InternalView node2{p2, internal_capacity_};
  if (node2.count() < internal_capacity_) {
    node2.InsertAt(ci, child_split.separator, child_split.new_page);
    return SplitResult{};
  }

  // Node is full: materialize keys/children with the new separator
  // inserted, then split around the middle key (which moves up).
  uint32_t n = node2.count();
  std::vector<int64_t> keys(n + 1);
  std::vector<PageId> children(n + 2);
  for (uint32_t i = 0; i < ci; ++i) keys[i] = node2.key(i);
  keys[ci] = child_split.separator;
  for (uint32_t i = ci; i < n; ++i) keys[i + 1] = node2.key(i);
  for (uint32_t i = 0; i <= ci; ++i) children[i] = node2.child(i);
  children[ci + 1] = child_split.new_page;
  for (uint32_t i = ci + 1; i <= n; ++i) children[i + 1] = node2.child(i);

  uint32_t total_keys = n + 1;
  uint32_t left_keys = total_keys / 2;
  int64_t up_key = keys[left_keys];
  uint32_t right_keys = total_keys - left_keys - 1;

  PRORP_ASSIGN_OR_RETURN(PageId right_id, AllocNodePage());
  PRORP_ASSIGN_OR_RETURN(PageGuard right_page, pool_->Fetch(right_id));
  uint8_t* rp = right_page.mutable_data();
  SetNodeType(rp, kTypeInternal);
  SetNodeNext(rp, kInvalidPageId);
  InternalView right{rp, internal_capacity_};
  right.set_count(static_cast<uint16_t>(right_keys));
  for (uint32_t i = 0; i < right_keys; ++i) {
    right.set_key(i, keys[left_keys + 1 + i]);
  }
  for (uint32_t i = 0; i <= right_keys; ++i) {
    right.set_child(i, children[left_keys + 1 + i]);
  }

  node2.set_count(static_cast<uint16_t>(left_keys));
  for (uint32_t i = 0; i < left_keys; ++i) node2.set_key(i, keys[i]);
  for (uint32_t i = 0; i <= left_keys; ++i) node2.set_child(i, children[i]);

  SplitResult r;
  r.did_split = true;
  r.separator = up_key;
  r.new_page = right_id;
  return r;
}

Status BPlusTree::Delete(int64_t key) {
  PRORP_RETURN_IF_ERROR(DeleteRec(root_, key));
  // Shrink the root if it became a pass-through internal node.
  PRORP_ASSIGN_OR_RETURN(PageGuard page, pool_->Fetch(root_));
  const uint8_t* p = page.data();
  if (NodeType(p) == kTypeInternal && NodeCount(p) == 0) {
    InternalView node{const_cast<uint8_t*>(p), internal_capacity_};
    PageId old_root = root_;
    root_ = node.child(0);
    page.Release();
    PRORP_RETURN_IF_ERROR(FreeNodePage(old_root));
  }
  --num_entries_;
  return StoreMeta();
}

Status BPlusTree::DeleteRec(PageId node_id, int64_t key) {
  PRORP_ASSIGN_OR_RETURN(PageGuard page, pool_->Fetch(node_id));
  uint8_t* p = const_cast<uint8_t*>(page.data());

  if (NodeType(p) == kTypeLeaf) {
    LeafView leaf{p, leaf_capacity_, value_width_};
    uint32_t pos = leaf.LowerBound(key);
    if (pos >= leaf.count() || leaf.key(pos) != key) {
      return Status::NotFound("key not found");
    }
    page.MarkDirty();
    leaf.RemoveAt(pos);
    return Status::OK();
  }

  if (NodeType(p) != kTypeInternal) {
    return Status::Corruption("unexpected node type during delete");
  }
  InternalView node{p, internal_capacity_};
  uint32_t ci = node.ChildIndexFor(key);
  PageId child_id = node.child(ci);
  page.Release();
  PRORP_RETURN_IF_ERROR(DeleteRec(child_id, key));

  // Re-fetch and rebalance the child if it underflowed.
  PRORP_ASSIGN_OR_RETURN(PageGuard page2, pool_->Fetch(node_id));
  uint8_t* p2 = const_cast<uint8_t*>(page2.data());
  PRORP_ASSIGN_OR_RETURN(PageGuard child_page, pool_->Fetch(child_id));
  const uint8_t* cp = child_page.data();
  uint32_t min_fill = (NodeType(cp) == kTypeLeaf) ? leaf_capacity_ / 2
                                                  : internal_capacity_ / 2;
  bool underflow = NodeCount(cp) < min_fill;
  child_page.Release();
  if (!underflow) return Status::OK();
  page2.MarkDirty();
  return RebalanceChild(p2, ci);
}

Status BPlusTree::RebalanceChild(uint8_t* parent, uint32_t child_index) {
  InternalView par{parent, internal_capacity_};
  PageId child_id = par.child(child_index);
  PRORP_ASSIGN_OR_RETURN(PageGuard child_page, pool_->Fetch(child_id));
  uint8_t* cp = const_cast<uint8_t*>(child_page.data());
  bool child_is_leaf = NodeType(cp) == kTypeLeaf;
  uint32_t min_fill = child_is_leaf ? leaf_capacity_ / 2
                                    : internal_capacity_ / 2;

  // Try to borrow from the left sibling.
  if (child_index > 0) {
    PageId left_id = par.child(child_index - 1);
    PRORP_ASSIGN_OR_RETURN(PageGuard left_page, pool_->Fetch(left_id));
    uint8_t* lp = const_cast<uint8_t*>(left_page.data());
    if (NodeCount(lp) > min_fill) {
      child_page.MarkDirty();
      left_page.MarkDirty();
      if (child_is_leaf) {
        LeafView child{cp, leaf_capacity_, value_width_};
        LeafView left{lp, leaf_capacity_, value_width_};
        uint32_t last = left.count() - 1;
        child.InsertAt(0, left.key(last), left.value(last));
        left.RemoveAt(last);
        par.set_key(child_index - 1, child.key(0));
      } else {
        InternalView child{cp, internal_capacity_};
        InternalView left{lp, internal_capacity_};
        uint32_t n = child.count();
        // Shift child right by one (keys and children).
        for (uint32_t i = n; i > 0; --i) child.set_key(i, child.key(i - 1));
        for (uint32_t i = n + 1; i > 0; --i) {
          child.set_child(i, child.child(i - 1));
        }
        child.set_key(0, par.key(child_index - 1));
        child.set_child(0, left.child(left.count()));
        child.set_count(static_cast<uint16_t>(n + 1));
        par.set_key(child_index - 1, left.key(left.count() - 1));
        left.set_count(static_cast<uint16_t>(left.count() - 1));
      }
      return Status::OK();
    }
  }

  // Try to borrow from the right sibling.
  if (child_index < par.count()) {
    PageId right_id = par.child(child_index + 1);
    PRORP_ASSIGN_OR_RETURN(PageGuard right_page, pool_->Fetch(right_id));
    uint8_t* rp = const_cast<uint8_t*>(right_page.data());
    if (NodeCount(rp) > min_fill) {
      child_page.MarkDirty();
      right_page.MarkDirty();
      if (child_is_leaf) {
        LeafView child{cp, leaf_capacity_, value_width_};
        LeafView right{rp, leaf_capacity_, value_width_};
        child.InsertAt(child.count(), right.key(0), right.value(0));
        right.RemoveAt(0);
        par.set_key(child_index, right.key(0));
      } else {
        InternalView child{cp, internal_capacity_};
        InternalView right{rp, internal_capacity_};
        uint32_t n = child.count();
        child.set_key(n, par.key(child_index));
        child.set_child(n + 1, right.child(0));
        child.set_count(static_cast<uint16_t>(n + 1));
        par.set_key(child_index, right.key(0));
        uint32_t rn = right.count();
        for (uint32_t i = 0; i + 1 < rn; ++i) {
          right.set_key(i, right.key(i + 1));
        }
        for (uint32_t i = 0; i < rn; ++i) {
          right.set_child(i, right.child(i + 1));
        }
        right.set_count(static_cast<uint16_t>(rn - 1));
      }
      return Status::OK();
    }
  }

  // Merge with a sibling.  Prefer merging into the left sibling.
  uint32_t sep_idx;
  PageId left_id, right_id;
  if (child_index > 0) {
    sep_idx = child_index - 1;
    left_id = par.child(child_index - 1);
    right_id = child_id;
  } else {
    sep_idx = child_index;
    left_id = child_id;
    right_id = par.child(child_index + 1);
  }
  child_page.Release();
  PRORP_ASSIGN_OR_RETURN(PageGuard left_page, pool_->Fetch(left_id));
  PRORP_ASSIGN_OR_RETURN(PageGuard right_page, pool_->Fetch(right_id));
  uint8_t* lp = left_page.mutable_data();
  uint8_t* rp = const_cast<uint8_t*>(right_page.data());

  if (NodeType(lp) == kTypeLeaf) {
    LeafView left{lp, leaf_capacity_, value_width_};
    LeafView right{rp, leaf_capacity_, value_width_};
    uint32_t ln = left.count();
    uint32_t rn = right.count();
    std::memcpy(lp + kHeaderSize + ln * 8, rp + kHeaderSize, rn * 8);
    if (value_width_ > 0) {
      std::memcpy(left.value(ln), right.value(0), rn * value_width_);
    }
    left.set_count(static_cast<uint16_t>(ln + rn));
    left.set_next(right.next());
  } else {
    InternalView left{lp, internal_capacity_};
    InternalView right{rp, internal_capacity_};
    uint32_t ln = left.count();
    uint32_t rn = right.count();
    left.set_key(ln, par.key(sep_idx));
    for (uint32_t i = 0; i < rn; ++i) left.set_key(ln + 1 + i, right.key(i));
    for (uint32_t i = 0; i <= rn; ++i) {
      left.set_child(ln + 1 + i, right.child(i));
    }
    left.set_count(static_cast<uint16_t>(ln + 1 + rn));
  }
  right_page.Release();
  PRORP_RETURN_IF_ERROR(FreeNodePage(right_id));
  par.RemoveAt(sep_idx);
  return Status::OK();
}

Status BPlusTree::ScanRange(int64_t lo, int64_t hi,
                            const ScanCallback& cb) const {
  if (lo > hi || num_entries_ == 0) return Status::OK();
  PRORP_ASSIGN_OR_RETURN(PageId leaf_id, FindLeaf(lo));
  PageId cur = leaf_id;
  while (cur != kInvalidPageId) {
    PRORP_ASSIGN_OR_RETURN(PageGuard page, pool_->Fetch(cur));
    LeafView leaf{const_cast<uint8_t*>(page.data()), leaf_capacity_,
                  value_width_};
    uint32_t pos = leaf.LowerBound(lo);
    for (uint32_t i = pos; i < leaf.count(); ++i) {
      int64_t k = leaf.key(i);
      if (k > hi) return Status::OK();
      if (!cb(k, leaf.value(i))) return Status::OK();
    }
    cur = leaf.next();
  }
  return Status::OK();
}

Result<uint64_t> BPlusTree::DeleteRange(int64_t lo, int64_t hi) {
  std::vector<int64_t> keys;
  PRORP_RETURN_IF_ERROR(ScanRange(lo, hi, [&](int64_t k, const uint8_t*) {
    keys.push_back(k);
    return true;
  }));
  for (int64_t k : keys) {
    PRORP_RETURN_IF_ERROR(Delete(k));
  }
  return static_cast<uint64_t>(keys.size());
}

Result<int64_t> BPlusTree::MinKey() const {
  if (num_entries_ == 0) return Status::NotFound("tree is empty");
  PageId cur = root_;
  for (;;) {
    PRORP_ASSIGN_OR_RETURN(PageGuard page, pool_->Fetch(cur));
    const uint8_t* p = page.data();
    if (NodeType(p) == kTypeLeaf) {
      LeafView leaf{const_cast<uint8_t*>(p), leaf_capacity_, value_width_};
      if (leaf.count() == 0) return Status::Corruption("empty leaf on path");
      return leaf.key(0);
    }
    InternalView node{const_cast<uint8_t*>(p), internal_capacity_};
    cur = node.child(0);
  }
}

Result<uint32_t> BPlusTree::Height() const {
  uint32_t height = 1;
  PageId cur = root_;
  for (;;) {
    PRORP_ASSIGN_OR_RETURN(PageGuard page, pool_->Fetch(cur));
    const uint8_t* p = page.data();
    if (NodeType(p) == kTypeLeaf) return height;
    InternalView node{const_cast<uint8_t*>(p), internal_capacity_};
    cur = node.child(0);
    ++height;
  }
}

Status BPlusTree::CheckInvariants() const {
  PRORP_ASSIGN_OR_RETURN(uint32_t depth, Height());
  uint64_t entries = 0;
  PRORP_RETURN_IF_ERROR(CheckSubtree(root_, 1, depth, /*is_root=*/true,
                                     0, false, 0, false, &entries));
  if (entries != num_entries_) {
    return Status::Corruption("entry count mismatch vs meta");
  }
  // Verify the leaf chain is globally sorted and complete.
  if (num_entries_ > 0) {
    PRORP_ASSIGN_OR_RETURN(int64_t min_key, MinKey());
    PRORP_ASSIGN_OR_RETURN(PageId cur, FindLeaf(min_key));
    uint64_t seen = 0;
    bool have_prev = false;
    int64_t prev = 0;
    while (cur != kInvalidPageId) {
      PRORP_ASSIGN_OR_RETURN(PageGuard page, pool_->Fetch(cur));
      LeafView leaf{const_cast<uint8_t*>(page.data()), leaf_capacity_,
                    value_width_};
      for (uint32_t i = 0; i < leaf.count(); ++i) {
        if (have_prev && leaf.key(i) <= prev) {
          return Status::Corruption("leaf chain not strictly ascending");
        }
        prev = leaf.key(i);
        have_prev = true;
        ++seen;
      }
      cur = leaf.next();
    }
    if (seen != num_entries_) {
      return Status::Corruption("leaf chain entry count mismatch");
    }
  }
  return Status::OK();
}

Status BPlusTree::CheckSubtree(PageId node_id, uint32_t depth,
                               uint32_t expect_depth, bool is_root,
                               int64_t lower, bool has_lower, int64_t upper,
                               bool has_upper, uint64_t* entries) const {
  PRORP_ASSIGN_OR_RETURN(PageGuard page, pool_->Fetch(node_id));
  const uint8_t* p = page.data();
  uint16_t type = NodeType(p);
  uint16_t count = NodeCount(p);

  if (type == kTypeLeaf) {
    if (depth != expect_depth) {
      return Status::Corruption("leaf at wrong depth");
    }
    LeafView leaf{const_cast<uint8_t*>(p), leaf_capacity_, value_width_};
    if (!is_root && count < leaf_capacity_ / 2) {
      return Status::Corruption("leaf underfull");
    }
    if (count > leaf_capacity_) return Status::Corruption("leaf overfull");
    for (uint32_t i = 0; i < count; ++i) {
      int64_t k = leaf.key(i);
      if (i > 0 && k <= leaf.key(i - 1)) {
        return Status::Corruption("leaf keys not strictly ascending");
      }
      if (has_lower && k < lower) return Status::Corruption("key < lower");
      if (has_upper && k >= upper) return Status::Corruption("key >= upper");
    }
    *entries += count;
    return Status::OK();
  }

  if (type != kTypeInternal) {
    return Status::Corruption("unexpected node type");
  }
  if (depth >= expect_depth) {
    return Status::Corruption("internal node at leaf depth");
  }
  InternalView node{const_cast<uint8_t*>(p), internal_capacity_};
  uint32_t min_keys = is_root ? 1 : internal_capacity_ / 2;
  if (count < min_keys) return Status::Corruption("internal underfull");
  if (count > internal_capacity_) {
    return Status::Corruption("internal overfull");
  }
  for (uint32_t i = 0; i < count; ++i) {
    int64_t k = node.key(i);
    if (i > 0 && k <= node.key(i - 1)) {
      return Status::Corruption("internal keys not strictly ascending");
    }
    if (has_lower && k < lower) {
      return Status::Corruption("separator < lower");
    }
    if (has_upper && k >= upper) {
      return Status::Corruption("separator >= upper");
    }
  }
  // Copy out children and key bounds before recursing (the guard's frame
  // may be evicted during recursion).
  std::vector<PageId> children(count + 1);
  std::vector<int64_t> keys(count);
  for (uint32_t i = 0; i <= count; ++i) children[i] = node.child(i);
  for (uint32_t i = 0; i < count; ++i) keys[i] = node.key(i);
  page.Release();
  for (uint32_t i = 0; i <= count; ++i) {
    int64_t child_lower = (i == 0) ? lower : keys[i - 1];
    bool child_has_lower = (i == 0) ? has_lower : true;
    int64_t child_upper = (i == count) ? upper : keys[i];
    bool child_has_upper = (i == count) ? has_upper : true;
    PRORP_RETURN_IF_ERROR(CheckSubtree(
        children[i], depth + 1, expect_depth, /*is_root=*/false, child_lower,
        child_has_lower, child_upper, child_has_upper, entries));
  }
  return Status::OK();
}

}  // namespace prorp::storage
