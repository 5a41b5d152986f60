#include "storage/bplus_tree.h"

#include <cassert>
#include <cstring>

#include "faults/crash_points.h"

namespace prorp::storage {
namespace {

// On-page node layout (little-endian, raw byte access, offsets within the
// buffer pool's usable payload — checksummed pages prepend an integrity
// header below this layer, see storage/page.h).  Leaves and internal nodes
// share one layout of fixed-width arrays:
//   offset 0: uint16 type   (0 = free, 1 = leaf, 2 = internal)
//   offset 2: uint16 count  (keys)
//   offset 4: uint32 next   (leaf: next leaf page; free: next free page)
//   offset 8: int64 keys[cap]; then fixed-width slots
// A leaf's slots are its `count` values (value_width bytes each, cap =
// leaf capacity); an internal node's are its `count + 1` uint32 child ids
// (cap = internal capacity), child i left of key i.
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
void SetNodeCount(uint8_t* p, uint16_t c) { Store<uint16_t>(p + 2, c); }
PageId NodeNext(const uint8_t* p) { return Load<uint32_t>(p + 4); }
void SetNodeNext(uint8_t* p, PageId n) { Store<uint32_t>(p + 4, n); }

/// Accessors over a leaf or internal page image.  `lead` is the number of
/// slots before key 0's own slot: 0 in a leaf (value i belongs to key i),
/// 1 in an internal node (child i + 1 is right of key i).
struct Node {
  uint8_t* p;
  uint32_t cap;
  uint32_t width;
  uint32_t lead;

  bool leaf() const { return lead == 0; }
  uint16_t count() const { return Load<uint16_t>(p + 2); }
  void set_count(uint32_t c) { SetNodeCount(p, static_cast<uint16_t>(c)); }
  uint32_t slots() const { return count() + lead; }

  int64_t key(uint32_t i) const {
    return Load<int64_t>(p + kHeaderSize + i * 8);
  }
  void set_key(uint32_t i, int64_t k) {
    Store<int64_t>(p + kHeaderSize + i * 8, k);
  }
  uint8_t* slot(uint32_t i) const {
    return p + kHeaderSize + cap * 8 + i * width;
  }
  PageId child(uint32_t i) const { return Load<uint32_t>(slot(i)); }
  void set_child(uint32_t i, PageId c) { Store<uint32_t>(slot(i), c); }

  /// The slot for `k`: in a leaf, the first key >= k (count() if none); in
  /// an internal node, the child whose subtree holds k — the first key
  /// > k, since separators are minimums of their right subtrees.
  uint32_t Search(int64_t k) const {
    uint32_t lo = 0, hi = count();
    if (lead == 1) {
      if (k == INT64_MAX) return hi;
      ++k;  // the first key > k is the first key >= k + 1
    }
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

  /// Inserts key `k` at key index `kpos` and the `width` bytes at `s` at
  /// slot index `spos`, shifting later keys and slots up by one.
  void InsertAt(uint32_t kpos, int64_t k, uint32_t spos, const uint8_t* s) {
    uint32_t n = count(), ns = slots();
    std::memmove(p + kHeaderSize + (kpos + 1) * 8, p + kHeaderSize + kpos * 8,
                 (n - kpos) * 8);
    if (width > 0) {
      std::memmove(slot(spos + 1), slot(spos), (ns - spos) * width);
      std::memcpy(slot(spos), s, width);
    }
    set_key(kpos, k);
    set_count(n + 1);
  }

  /// Removes key `kpos` and slot `spos`, shifting later ones down by one.
  void RemoveAt(uint32_t kpos, uint32_t spos) {
    uint32_t n = count(), ns = slots();
    std::memmove(p + kHeaderSize + kpos * 8, p + kHeaderSize + (kpos + 1) * 8,
                 (n - kpos - 1) * 8);
    if (width > 0) {
      std::memmove(slot(spos), slot(spos + 1), (ns - spos - 1) * width);
    }
    set_count(n - 1);
  }

  /// Appends `n` keys of `src` from key `k0` and `n` of its slots from slot
  /// `s0` after this node's keys and slots.
  void Append(const Node& src, uint32_t k0, uint32_t s0, uint32_t n) {
    uint32_t c = count();
    std::memcpy(p + kHeaderSize + c * 8, src.p + kHeaderSize + k0 * 8, n * 8);
    if (width > 0) std::memcpy(slot(slots()), src.slot(s0), n * width);
    set_count(c + n);
  }
};

/// The view over node page `p` of `tree`; any type but leaf reads as an
/// internal node.
Node View(const uint8_t* p, const BPlusTree& tree) {
  bool leaf = NodeType(p) == kTypeLeaf;
  return Node{const_cast<uint8_t*>(p),
              leaf ? tree.leaf_capacity() : tree.internal_capacity(),
              leaf ? tree.value_width() : 4u, leaf ? 0u : 1u};
}

/// True for a leaf or an internal node; false for a free page or garbage.
bool IsNode(const uint8_t* p) {
  return NodeType(p) == kTypeLeaf || NodeType(p) == kTypeInternal;
}

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
    Node node = View(p, *this);
    cur = node.child(node.Search(key));
  }
}

Result<std::vector<uint8_t>> BPlusTree::Find(int64_t key) const {
  PRORP_ASSIGN_OR_RETURN(PageId leaf_id, FindLeaf(key));
  PRORP_ASSIGN_OR_RETURN(PageGuard page, pool_->Fetch(leaf_id));
  Node leaf = View(page.data(), *this);
  uint32_t pos = leaf.Search(key);
  if (pos >= leaf.count() || leaf.key(pos) != key) {
    return Status::NotFound("key not found");
  }
  return std::vector<uint8_t>(leaf.slot(pos), leaf.slot(pos) + value_width_);
}

Status BPlusTree::Update(int64_t key, const uint8_t* value) {
  PRORP_ASSIGN_OR_RETURN(PageId leaf_id, FindLeaf(key));
  PRORP_ASSIGN_OR_RETURN(PageGuard page, pool_->Fetch(leaf_id));
  Node leaf = View(page.mutable_data(), *this);
  uint32_t pos = leaf.Search(key);
  if (pos >= leaf.count() || leaf.key(pos) != key) {
    return Status::NotFound("key not found");
  }
  if (value_width_ > 0) std::memcpy(leaf.slot(pos), value, value_width_);
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
    Node node = View(p, *this);
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
  if (!IsNode(p)) {
    return Status::Corruption("unexpected node type during insert");
  }
  Node node = View(p, *this);
  uint32_t pos = node.Search(key);

  if (node.leaf()) {
    if (pos < node.count() && node.key(pos) == key) {
      return Status::AlreadyExists("duplicate key");
    }
    if (node.count() < node.cap) {
      page.MarkDirty();
      node.InsertAt(pos, key, pos, value);
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
    Node right = View(rp, *this);
    uint32_t left_count = (node.cap + 1) / 2;
    right.Append(node, left_count, left_count, node.cap - left_count);
    page.MarkDirty();
    node.set_count(left_count);
    SetNodeNext(rp, NodeNext(p));
    SetNodeNext(p, right_id);
    Node& half = key < right.key(0) ? node : right;
    uint32_t at = half.Search(key);
    half.InsertAt(at, key, at, value);
    SplitResult r;
    r.did_split = true;
    r.separator = right.key(0);
    r.new_page = right_id;
    return r;
  }

  PageId child_id = node.child(pos);
  // Release before recursing to keep the pinned set small.
  page.Release();
  PRORP_ASSIGN_OR_RETURN(SplitResult child_split,
                         InsertRec(child_id, key, value));
  if (!child_split.did_split) return SplitResult{};

  PRORP_ASSIGN_OR_RETURN(PageGuard page2, pool_->Fetch(node_id));
  Node node2 = View(page2.mutable_data(), *this);
  if (node2.count() < internal_capacity_) {
    node2.InsertAt(pos, child_split.separator, pos + 1,
                   reinterpret_cast<const uint8_t*>(&child_split.new_page));
    return SplitResult{};
  }

  // Node is full: materialize keys/children with the new separator
  // inserted, then split around the middle key (which moves up).
  uint32_t n = node2.count();
  std::vector<int64_t> keys(n + 1);
  std::vector<PageId> children(n + 2);
  for (uint32_t i = 0; i < pos; ++i) keys[i] = node2.key(i);
  keys[pos] = child_split.separator;
  for (uint32_t i = pos; i < n; ++i) keys[i + 1] = node2.key(i);
  for (uint32_t i = 0; i <= pos; ++i) children[i] = node2.child(i);
  children[pos + 1] = child_split.new_page;
  for (uint32_t i = pos + 1; i <= n; ++i) children[i + 1] = node2.child(i);

  uint32_t total_keys = n + 1;
  uint32_t left_keys = total_keys / 2;
  int64_t up_key = keys[left_keys];
  uint32_t right_keys = total_keys - left_keys - 1;

  PRORP_ASSIGN_OR_RETURN(PageId right_id, AllocNodePage());
  PRORP_ASSIGN_OR_RETURN(PageGuard right_page, pool_->Fetch(right_id));
  uint8_t* rp = right_page.mutable_data();
  SetNodeType(rp, kTypeInternal);
  SetNodeNext(rp, kInvalidPageId);
  Node right = View(rp, *this);
  right.set_count(right_keys);
  for (uint32_t i = 0; i < right_keys; ++i) {
    right.set_key(i, keys[left_keys + 1 + i]);
  }
  for (uint32_t i = 0; i <= right_keys; ++i) {
    right.set_child(i, children[left_keys + 1 + i]);
  }

  node2.set_count(left_keys);
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
  Node root = View(page.data(), *this);
  if (NodeType(root.p) == kTypeInternal && root.count() == 0) {
    PageId old_root = root_;
    root_ = root.child(0);
    page.Release();
    PRORP_RETURN_IF_ERROR(FreeNodePage(old_root));
  }
  --num_entries_;
  return StoreMeta();
}

Status BPlusTree::DeleteRec(PageId node_id, int64_t key) {
  PRORP_ASSIGN_OR_RETURN(PageGuard page, pool_->Fetch(node_id));
  uint8_t* p = const_cast<uint8_t*>(page.data());
  if (!IsNode(p)) {
    return Status::Corruption("unexpected node type during delete");
  }
  Node node = View(p, *this);
  uint32_t pos = node.Search(key);

  if (node.leaf()) {
    if (pos >= node.count() || node.key(pos) != key) {
      return Status::NotFound("key not found");
    }
    page.MarkDirty();
    node.RemoveAt(pos, pos);
    return Status::OK();
  }

  PageId child_id = node.child(pos);
  page.Release();
  PRORP_RETURN_IF_ERROR(DeleteRec(child_id, key));

  // Re-fetch and rebalance the child if it underflowed.
  PRORP_ASSIGN_OR_RETURN(PageGuard page2, pool_->Fetch(node_id));
  uint8_t* p2 = const_cast<uint8_t*>(page2.data());
  PRORP_ASSIGN_OR_RETURN(PageGuard child_page, pool_->Fetch(child_id));
  Node child = View(child_page.data(), *this);
  bool underflow = child.count() < child.cap / 2;
  child_page.Release();
  if (!underflow) return Status::OK();
  page2.MarkDirty();
  return RebalanceChild(p2, pos);
}

// Each step serves both node kinds.  A borrowed leaf entry moves whole and
// its new first key is copied up to the parent; an internal node's
// borrowed key rotates through the parent, whose separator moves down.
Status BPlusTree::RebalanceChild(uint8_t* parent, uint32_t child_index) {
  Node par = View(parent, *this);
  PRORP_ASSIGN_OR_RETURN(PageGuard child_page,
                         pool_->Fetch(par.child(child_index)));
  Node child = View(child_page.data(), *this);
  uint32_t min_fill = child.cap / 2;

  // Try to borrow the left sibling's last key and slot.
  if (child_index > 0) {
    uint32_t sep = child_index - 1;
    PRORP_ASSIGN_OR_RETURN(PageGuard left_page, pool_->Fetch(par.child(sep)));
    Node left = View(left_page.data(), *this);
    if (left.count() > min_fill) {
      child_page.MarkDirty();
      left_page.MarkDirty();
      int64_t last = left.key(left.count() - 1);
      child.InsertAt(0, child.leaf() ? last : par.key(sep), 0,
                     left.slot(left.slots() - 1));
      left.RemoveAt(left.count() - 1, left.slots() - 1);
      par.set_key(sep, last);
      return Status::OK();
    }
  }

  // Try to borrow the right sibling's first key and slot.
  if (child_index < par.count()) {
    PRORP_ASSIGN_OR_RETURN(PageGuard right_page,
                           pool_->Fetch(par.child(child_index + 1)));
    Node right = View(right_page.data(), *this);
    if (right.count() > min_fill) {
      child_page.MarkDirty();
      right_page.MarkDirty();
      int64_t first = right.key(0);
      child.InsertAt(child.count(), child.leaf() ? first : par.key(child_index),
                     child.slots(), right.slot(0));
      right.RemoveAt(0, 0);
      par.set_key(child_index, child.leaf() ? right.key(0) : first);
      return Status::OK();
    }
  }

  // Merge with a sibling, preferring the left one: the right node's keys
  // and slots follow the left node's (an internal node's after the
  // separator pulled down from the parent), and the right page is freed.
  uint32_t sep = child_index > 0 ? child_index - 1 : child_index;
  PageId left_id = par.child(sep);
  PageId right_id = par.child(sep + 1);
  child_page.Release();
  PRORP_ASSIGN_OR_RETURN(PageGuard left_page, pool_->Fetch(left_id));
  PRORP_ASSIGN_OR_RETURN(PageGuard right_page, pool_->Fetch(right_id));
  Node left = View(left_page.mutable_data(), *this);
  Node right = View(right_page.data(), *this);
  if (!left.leaf()) {
    left.InsertAt(left.count(), par.key(sep), left.slots(), right.slot(0));
  }
  left.Append(right, 0, right.lead, right.count());
  if (left.leaf()) SetNodeNext(left.p, NodeNext(right.p));
  right_page.Release();
  PRORP_RETURN_IF_ERROR(FreeNodePage(right_id));
  par.RemoveAt(sep, sep + 1);
  return Status::OK();
}

Status BPlusTree::ScanRange(int64_t lo, int64_t hi,
                            const ScanCallback& cb) const {
  if (lo > hi || num_entries_ == 0) return Status::OK();
  PRORP_ASSIGN_OR_RETURN(PageId leaf_id, FindLeaf(lo));
  PageId cur = leaf_id;
  while (cur != kInvalidPageId) {
    PRORP_ASSIGN_OR_RETURN(PageGuard page, pool_->Fetch(cur));
    Node leaf = View(page.data(), *this);
    for (uint32_t i = leaf.Search(lo); i < leaf.count(); ++i) {
      int64_t k = leaf.key(i);
      if (k > hi) return Status::OK();
      if (!cb(k, leaf.slot(i))) return Status::OK();
    }
    cur = NodeNext(leaf.p);
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
    Node node = View(page.data(), *this);
    if (node.leaf()) {
      if (node.count() == 0) return Status::Corruption("empty leaf on path");
      return node.key(0);
    }
    cur = node.child(0);
  }
}

Result<uint32_t> BPlusTree::Height() const {
  uint32_t height = 1;
  PageId cur = root_;
  for (;;) {
    PRORP_ASSIGN_OR_RETURN(PageGuard page, pool_->Fetch(cur));
    Node node = View(page.data(), *this);
    if (node.leaf()) return height;
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
      Node leaf = View(page.data(), *this);
      for (uint32_t i = 0; i < leaf.count(); ++i) {
        if (have_prev && leaf.key(i) <= prev) {
          return Status::Corruption("leaf chain not strictly ascending");
        }
        prev = leaf.key(i);
        have_prev = true;
        ++seen;
      }
      cur = NodeNext(leaf.p);
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
  if (!IsNode(page.data())) return Status::Corruption("unexpected node type");
  Node node = View(page.data(), *this);
  uint32_t count = node.count();
  if (node.leaf() ? depth != expect_depth : depth >= expect_depth) {
    return Status::Corruption("node at wrong depth");
  }
  // A root leaf may be empty; a root internal node keeps one key.
  if (count < (is_root ? node.lead : node.cap / 2)) {
    return Status::Corruption("node underfull");
  }
  if (count > node.cap) return Status::Corruption("node overfull");
  for (uint32_t i = 0; i < count; ++i) {
    int64_t k = node.key(i);
    if (i > 0 && k <= node.key(i - 1)) {
      return Status::Corruption("keys not strictly ascending");
    }
    if (has_lower && k < lower) return Status::Corruption("key < lower");
    if (has_upper && k >= upper) return Status::Corruption("key >= upper");
  }
  if (node.leaf()) {
    *entries += count;
    return Status::OK();
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
