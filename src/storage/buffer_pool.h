#ifndef PRORP_STORAGE_BUFFER_POOL_H_
#define PRORP_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace prorp::storage {

class BufferPool;

/// RAII handle to a pinned page frame.  While a PageGuard is alive the page
/// stays in memory; destruction unpins it.  Call MarkDirty() after any
/// mutation so the frame is written back on eviction/flush.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept { MoveFrom(other); }
  PageGuard& operator=(PageGuard&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(other);
    }
    return *this;
  }
  ~PageGuard() { Release(); }

  bool valid() const { return pool_ != nullptr; }
  PageId id() const { return id_; }
  const uint8_t* data() const { return data_; }
  uint8_t* mutable_data() {
    MarkDirty();
    return data_;
  }
  void MarkDirty();

  /// Explicitly unpins early.
  void Release();

 private:
  friend class BufferPool;
  PageGuard(BufferPool* pool, PageId id, uint8_t* data)
      : pool_(pool), id_(id), data_(data) {}

  void MoveFrom(PageGuard& other) {
    pool_ = other.pool_;
    id_ = other.id_;
    data_ = other.data_;
    other.pool_ = nullptr;
    other.data_ = nullptr;
  }

  BufferPool* pool_ = nullptr;
  PageId id_ = kInvalidPageId;
  uint8_t* data_ = nullptr;
};

/// Counters exposed for observability and bench_micro_storage.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;
  /// Pages sealed (integrity header stamped) on writeback.
  uint64_t pages_sealed = 0;
  /// Pages verified on fetch from disk.
  uint64_t pages_verified = 0;
  /// Fetches that failed verification (checksum / page-id mismatch).
  uint64_t checksum_failures = 0;
};

/// A fixed-capacity page cache with LRU eviction over unpinned frames.
/// Single-threaded by design: ProRP runs one history store per database and
/// the fleet simulator drives them from one thread (see DESIGN.md).
///
/// The pool owns the on-disk page format (see page.h): every frame's
/// first kPageHeaderSize bytes hold the integrity header, clients see
/// usable_size() payload bytes, and the header is stamped (SealPage) on
/// every writeback and verified (VerifyPage) on every fetch from disk.
/// Disk managers below stay byte-oriented and never interpret the header.
class BufferPool {
 public:
  /// `capacity` is the number of in-memory frames (>= 2: the B+tree pins at
  /// most a small constant number of pages at a time, but give it room).
  BufferPool(DiskManager* disk, size_t capacity);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins page `id`, reading it from disk on a miss.  A page that fails
  /// verification is never handed to the caller: Fetch returns
  /// Status::Corruption with structured context instead.
  Result<PageGuard> Fetch(PageId id);

  /// Allocates a fresh zeroed page on disk and pins it.
  Result<PageGuard> New();

  /// Writes back all dirty pages (a checkpoint primitive).
  Status FlushAll();

  size_t capacity() const { return capacity_; }
  const BufferPoolStats& stats() const { return stats_; }
  DiskManager* disk() const { return disk_; }

  /// Payload bytes a PageGuard exposes.
  uint32_t usable_size() const { return kPageUsableSize; }

  /// LSN stamped into page headers on subsequent writebacks.  The
  /// DurableTree advances this after each WAL append; purely diagnostic.
  void set_current_lsn(uint64_t lsn) { current_lsn_ = lsn; }
  uint64_t current_lsn() const { return current_lsn_; }

 private:
  friend class PageGuard;

  struct Frame {
    PageId id = kInvalidPageId;
    int pin_count = 0;
    bool dirty = false;
    std::unique_ptr<uint8_t[]> data;
    // Position in lru_ when pin_count == 0.
    std::list<size_t>::iterator lru_pos;
    bool in_lru = false;
  };

  void Unpin(PageId id);
  void SetDirty(PageId id);

  /// Finds a frame to host a new page, evicting if needed.  Returns the
  /// frame index or an error if everything is pinned.
  Result<size_t> AcquireFrame();

  /// Seals and writes the frame's page to disk.
  Status WriteBack(Frame& f);

  DiskManager* disk_;
  size_t capacity_;
  uint64_t current_lsn_ = 0;
  std::vector<Frame> frames_;
  std::unordered_map<PageId, size_t> page_to_frame_;
  std::list<size_t> lru_;  // front = least recently used
  std::vector<size_t> free_frames_;
  BufferPoolStats stats_;
};

}  // namespace prorp::storage

#endif  // PRORP_STORAGE_BUFFER_POOL_H_
